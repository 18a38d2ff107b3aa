"""Correctly rounded exp, expm1, sin and cos over float64 arrays.

The figure and sweep CSVs print 17 significant digits, so they show the last
bit of every value, and the C library behind ``math`` and numpy does not
round these four functions correctly (glibc misses the nearest double on up
to 10 % of some figures' arguments). Each kernel here returns the float64
nearest to the exact value, which no platform can change, in the two stages
of CORE-MATH (Sibidanov, Zimmermann and Glondu, ARITH 2022):

1. evaluate the whole array in ``np.longdouble`` (x87 extended with a 64-bit
   mantissa, or IEEE quad) and keep each result whose error interval rounds
   to a single float64 (Ziv's rounding test): all but about one in a hundred;
2. evaluate each argument left in Python-integer fixed point with p = 160
   fraction bits: reduce it by k·ln 2 or k·π/2, sum the Taylor series, and
   apply the same test to that value and its error bound, again with p
   doubled while the test fails. Where ``long double`` is no wider than
   double (or is a double-double), every argument starts here.

Stage 2's error bound at p bits is p + 11 units of 2^-p, times 2^k for exp
and expm1 (e^x = 2^k e^r) and 1 for sin and cos. The reduced r (|r| <=
ln2/2 or π/4) is within 2.3 units: |x| is rounded down at c = p + 2 +
(integer bits of |x|) fraction bits, and the constant in k·ln 2 or k·π/2 is
less than 2 units of 2^-c off. Each series term t_j = floor(floor(t_(j-1)·z)
/ d_j) is less than 1.52 units off (z = r or -r², d_1 >= 2, then d_j >= 3
for exp and >= 12 for sin and cos), and as |z| / d_j <= 0.31 the terms end
within 0.59p + 3.7 steps, so the sum is within 0.9p + 6.3 units. r's error,
through e^r <= 1.42 or the series' slopes (<= 0.56 in -r²), and the last
product's floor add 4.2 units: 0.9p + 10.5 < p + 11 in all.

Against mpmath, on 7 000 random arguments per function (|x| from 2^-1074 up,
past 2^1000 for sin and cos), the worst error was 13.2 units at p = 160 and
20.6 at p = 320: a margin of 13. The loop ends: at nonzero finite x each
value is transcendental (Lindemann-Weierstrass), so it is no rounding
boundary (a midpoint of two doubles or the overflow threshold), and the test
decides it once 2^-p (p + 11) is below its distance to the nearest one.

Zero and non-finite arguments go to ``math``, which is exact there (nan gives
nan, sin and cos of inf raise ValueError); an overflow raises OverflowError.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_LD = np.finfo(np.longdouble)
_FAST = _LD.nmant in (63, 112)
# Error bound of stage 1: 7 long double epsilons, relative to the result.
# Against mpmath on this package's figure arguments and on 10^5 random
# arguments in [-20, 20], glibc's x86-64 long double exp, expm1, sin and cos
# stay within 1.44 epsilons, a factor of 4.8 below; for IEEE quad it is
# assumed. One more epsilon covers the rounding of the interval's ends.
_SLACK = np.longdouble(8) * _LD.eps
_P = 160  # stage 2's first precision, in fraction bits


@functools.cache
def _summed(name: str, width: int) -> int:
    """ln 2 (the sum of 1/(k·2^k)) or π/2 (Machin: 8·atan(1/5) -
    2·atan(1/239)) at 2^-width; 64 guard bits take the terms' floors."""
    one, total = 1 << width + 64, 0
    if name == "ln2":
        return sum((one >> k) // k for k in range(1, width + 65)) >> 64
    for n, weight in ((5, 8), (239, -2)):
        power, j = one // n, 1  # one / n^j
        while power:
            total += weight * (power // j if j % 4 == 1 else -(power // j))
            power, j = power // (n * n), j + 2
    return total >> 64


@functools.lru_cache(maxsize=1024)
def _constant(name: str, bits: int) -> int:
    """_summed at 2^-bits (less than 2 units off), from the next power of two."""
    width = 1 << (bits - 1).bit_length()
    return _summed(name, width) >> width - bits


def _series(z: int, n: int, step: int, p: int) -> int:
    """The sum of t_0 = 1 and t_j = t_(j-1)·z / d_j at 2^-p, where d_j
    multiplies the step integers that follow n + (j - 1)·step."""
    total = t = 1 << p
    while t:  # ends: a term -1 needs z < 0, and then the next term is 0
        n += step
        t = (t * z >> p) // (n * (n - 1) if step == 2 else n)
        total += t
    return total


def _decide(v: int, err: int, q: int) -> float | None:
    """The double nearest to v / 2^q, if all of (v ± err) / 2^q round to it:
    Ziv's test, done exactly, as int / int rounds correctly (and raises
    OverflowError where the result rounds past the largest double)."""
    v, err, q = (v << -q, err << -q, 0) if q < 0 else (v, err, q)
    try:
        lo, hi = (v - err) / (1 << q), (v + err) / (1 << q)
    except OverflowError:  # inf if the lower end rounds past it too
        return math.inf if v - err >= (1 << 1024 + q) - (1 << 970 + q) else None
    return lo if lo == hi else None


def _fixed(name: str, x: float, p: int) -> float | None:
    """The double nearest to name(x) from fixed point at 2^-p, or None if
    undecided there; x is nonzero, and |x| <= 800 for exp and expm1."""
    err, exp = p + 11, name in ("exp", "expm1")  # err: the bound, in units
    m, d = abs(x).as_integer_ratio()
    q = d.bit_length() - 1  # |x| = m / 2^q
    c = p + max(m.bit_length() - q, 0) + 2  # 2 bits past |x|'s integer bits
    ax = m << c - q if q <= c else m >> q - c  # |x| at 2^-c, rounded down
    ax = -ax if exp and x < 0 else ax
    h = _constant("ln2" if exp else "pi/2", c)
    k = (2 * ax + h) // (2 * h)  # the integer nearest ax / h
    r = ax - k * h >> c - p
    if exp:
        e = (1 << p) + (r * _series(r, 1, 1, p) >> p)  # e^r; e^x = e^r 2^k
        if name == "exp":
            return _decide(e, err, p - k)
        up, down = max(k, 0), max(-k, 0)
        return _decide((e << up) - (1 << p + down), err << up, p + down)
    z = -(r * r >> p)
    quadrant = (k + (name == "cos")) % 4  # name(|x|) = ±sin r or ±cos r
    if quadrant % 2:
        v, err, q = _series(z, 0, 2, p), err, p  # cos r
    else:
        v, err, q = r * _series(z, 1, 2, p), err << p, 2 * p  # sin r
    if (quadrant >= 2) != (name == "sin" and x < 0):
        v = -v
    return _decide(v, err, q)


def _stage2(name: str, x: float) -> float:
    """The double nearest to name(x): fixed point at _P fraction bits, and
    twice as many each time Ziv's test leaves it undecided."""
    if x == 0.0 or not math.isfinite(x):
        return getattr(math, name)(x)  # exact at these arguments
    if name in ("exp", "expm1"):  # past ±800 the result stays 0, -1 or inf
        x = min(max(x, -800.0), 800.0)
    p = _P
    while (y := _fixed(name, x, p)) is None:
        p *= 2
    return y


def _kernel(name: str):
    fast = getattr(np, name)

    def kernel(x):
        if isinstance(x, float) or np.ndim(x) == 0:
            x = float(x)
            if _FAST and math.isfinite(x):
                y = fast(np.longdouble(x))
                slack = _SLACK * abs(y)
                # every value in [y - slack, y + slack] rounds to one double
                if float(y - slack) == float(y + slack) != math.inf:
                    return float(y)
            return float(kernel(np.array([x]))[0])
        x = np.asarray(x, dtype=np.float64)
        out = np.zeros(x.shape)
        settled = np.zeros(x.shape, dtype=bool)
        if _FAST:
            with np.errstate(all="ignore"):
                y = fast(x.astype(np.longdouble))
                slack = _SLACK * np.abs(y)
                out[...] = y
                settled = ((y - slack).astype(np.float64)
                           == (y + slack).astype(np.float64))
        for i in np.flatnonzero(~settled):
            out.flat[i] = _stage2(name, float(x.flat[i]))
        if np.isinf(out[np.isfinite(x)]).any():
            raise OverflowError("math range error")
        return out

    kernel.__name__ = name
    kernel.__doc__ = (f"Correctly rounded {name}: a float for a scalar "
                      "argument, a float64 array for an array.")
    return kernel


exp = _kernel("exp")
expm1 = _kernel("expm1")
sin = _kernel("sin")
cos = _kernel("cos")
