"""Peak-concurrence optimization over the field intensity.

The even-parity peak (at Gt = pi/2) is stationary in |alpha|^2 where a
transcendental equation involving the principal Lambert W branch equals N.
That root solve is cross-checked by direct golden-section maximization of
the closed-form concurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import crmath
from .analytic import cat_ratio, coherent_concurrence
from .errors import DomainError, InvalidParameter, NoRoot
from .model import ParityKind, SystemParams

_BRANCH_POINT = -1.0 / math.e
_PEAK_GT = math.pi / 2.0
_INTENSITY_BRACKET = (1e-4, 10.0)
_ROOT_BRACKET = (1e-6, 10.0)
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptimumReport:
    intensity: float
    concurrence: float
    method: str  # "root-solve", "golden-section", or "plateau"
    residual: float
    iterations: int


def lambert_w0(z: float) -> float:
    """Principal branch W0: the solution w >= -1 of w e^w = z.

    Halley iteration from a regime-matched seed; near the branch point the
    series in p = sqrt(2e(z + 1/e)) is returned directly, where the
    iteration loses digits to the square-root singularity.
    """
    if not math.isfinite(z):
        raise DomainError(f"argument {z!r} is not finite")
    if z < _BRANCH_POINT:
        raise DomainError(f"argument {z:.17g} below -1/e")
    d = z - _BRANCH_POINT
    if d <= 0.0:
        return -1.0
    p = math.sqrt(2.0 * math.e * d)
    series = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 - p * 43.0 / 540.0)))
    if p < 1e-4:
        return series
    if z < -0.3:
        w = series
    elif z < math.e:
        w = math.log1p(z) if z >= 0.0 else z * (1.0 - z)
    else:
        log_z = math.log(z)
        log_log = math.log(log_z)
        w = log_z - log_log + log_log / log_z
    floor = 1e-16 * max(1.0, abs(z))
    for _ in range(100):
        e_w = crmath.exp(w)
        f = w * e_w - z
        if abs(f) <= floor:
            break
        denominator = e_w * (w + 1.0) - (w + 2.0) * f / (2.0 * (w + 1.0))
        if denominator == 0.0:
            break
        step = f / denominator
        w -= step
        if abs(step) <= 1e-16 * (1.0 + abs(w)):
            break
    return w


def _stationarity_rhs(x: float) -> float:
    """Left side N of the peak-stationarity condition, as a function of x.

    Written via zeta = -x(1 + tanh x): the Lambert argument is exactly
    zeta e^zeta, and the condition reads 4x/(W0(zeta e^zeta) - zeta) = N.
    For zeta >= -1 the principal branch returns zeta itself and the ratio
    diverges, so small intensities always sit above any finite N.
    """
    zeta = -x * (1.0 + math.tanh(x))
    if zeta >= -1.0:
        return math.inf
    # zeta e^zeta can undershoot the branch point by a few ulp near the
    # tangency zeta = -1; clamp, the exact value is >= -1/e there
    z = max(zeta * crmath.exp(zeta), _BRANCH_POINT)
    return 4.0 * x / (lambert_w0(z) - zeta)


def threshold_intensity(n: int) -> OptimumReport:
    """Intensity where the even-parity peak concurrence is stationary.

    Solved by bisection on the stationarity condition minus N, then a short
    secant polish. Requires N >= 3: for N = 2 the even peak grows
    monotonically with intensity and no interior root exists.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidParameter("n", "must be an integer")
    if n < 3:
        raise InvalidParameter("n", "stationarity condition needs N >= 3")

    def objective(x: float) -> float:
        return _stationarity_rhs(x) - n

    lo, hi = _ROOT_BRACKET
    f_lo, f_hi = objective(lo), objective(hi)
    if not (f_lo > 0.0 > f_hi):
        raise NoRoot(f"no sign change on ({lo}, {hi}) for N = {n}")
    iterations = 0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        f_mid = objective(mid)
        if f_mid > 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
        iterations += 1
    x = 0.5 * (lo + hi)
    f_x = objective(x)
    prev_x, prev_f = lo, f_lo
    for _ in range(10):
        if f_x == prev_f or abs(f_x) <= 1e-13:
            break
        nxt = x - f_x * (x - prev_x) / (f_x - prev_f)
        prev_x, prev_f = x, f_x
        x, f_x = nxt, objective(nxt)
        iterations += 1
    return OptimumReport(
        intensity=x,
        concurrence=cat_ratio(ParityKind.EVEN, x, x / n, 1.0 / n),
        method="root-solve",
        residual=abs(f_x),
        iterations=iterations,
    )


def optimal_intensity(n: int, parity: ParityKind) -> OptimumReport:
    """Golden-section maximum of the peak concurrence over |alpha|^2.

    The search runs on [1e-4, 10] to bracket width 1e-8. N = 2 odd is the
    known flat case (the peak is 1 at every intensity) and is reported as a
    plateau at the lower edge instead of searching.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidParameter("n", "must be an integer")
    if n < 2:
        raise InvalidParameter("n", "need at least two modes")
    if n == 2 and parity is ParityKind.ODD:
        return OptimumReport(
            intensity=_INTENSITY_BRACKET[0],
            concurrence=1.0,
            method="plateau",
            residual=0.0,
            iterations=0,
        )

    SystemParams(n_crystallites=n, parity=parity)  # validates parity
    s = crmath.sin(_PEAK_GT)
    s2 = s * s

    def objective(x: float) -> float:  # coherent_concurrence's operands
        return cat_ratio(parity, x, x * s2 / n, s2 / n)

    a, b = _INTENSITY_BRACKET
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    f_c, f_d = objective(c), objective(d)
    iterations = 0
    while b - a > 1e-8:
        if f_c < f_d:
            a, c, f_c = c, d, f_d
            d = a + _INVPHI * (b - a)
            f_d = objective(d)
        else:
            b, d, f_d = d, c, f_c
            c = b - _INVPHI * (b - a)
            f_c = objective(c)
        iterations += 1
    x = 0.5 * (a + b)
    return OptimumReport(
        intensity=x,
        concurrence=coherent_concurrence(
            SystemParams(n_crystallites=n, intensity=x, parity=parity), _PEAK_GT),
        method="golden-section",
        residual=b - a,
        iterations=iterations,
    )
