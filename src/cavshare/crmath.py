"""Correctly rounded exp, expm1, sin and cos over float64 arrays.

The figure and sweep CSVs print 17 significant digits, so they show the last
bit of every value. The C library behind ``math`` and numpy does not round
these four functions correctly (glibc misses the nearest double on up to 10 %
of some figures' arguments), so the bytes of a figure used to depend on the
platform. Each kernel here returns the float64 nearest to the exact value
(ties cannot occur: the results are transcendental for nonzero finite
arguments), which no platform can change. The scheme is the one of CORE-MATH
(Sibidanov, Zimmermann and Glondu, ARITH 2022), in three stages:

1. evaluate the whole array in ``np.longdouble`` (x87 extended with a 64-bit
   mantissa, or IEEE quad) and keep each result whose error interval rounds
   to a single float64 (Ziv's rounding test), which is all but about one in
   a hundred;
2. evaluate each argument left with |x| <= 512 in Python-integer fixed point
   with 160 fraction bits: reduce it by k·ln 2 or k·π/2, sum the Taylor
   series, and apply the same rounding test to that value and its error
   bound;
3. evaluate what stage 2 cannot decide with mpmath at 256 bits and round
   that exactly. No argument of the default figures or verify suites gets
   here, so those runs never import mpmath.

Where ``long double`` is no wider than double (or is a double-double),
every argument starts at stage 2: slower, still correct.

Stage 2's error bound is 256 units of 2^-160, times a scale: |x| for expm1
and sin when no reduction applies (k = 0), 2^k for exp and the rest of
expm1 (e^x = 2^k e^r with |r| <= ln2/2), and 1 for cos and the rest of
sin. Summing the truncation errors of the reduction and the series gives
at most 60 units. Measured against mpmath at 400 bits or more, on every figure argument and
per function on 10^5 random arguments in [-20, 20], 10^4 in [-512, 512] and
10^4 of random magnitude in [2^-1074, 2^-1], the worst error was 19.6 units
(expm1 at 0.324), a factor of 13 below the bound.

Arguments and results outside the finite range follow the ``math`` module:
nan gives nan, sin and cos of an infinity raise ValueError, and a finite
argument whose result overflows raises OverflowError.
"""

from __future__ import annotations

import math

import numpy as np

_LD = np.finfo(np.longdouble)
_FAST = _LD.nmant in (63, 112)
# Error bound of stage 1: 7 long double epsilons, relative to the result.
# Measured against mpmath on this package's figure arguments and on 10^5
# random arguments in [-20, 20], glibc's x86-64 long double exp, expm1, sin
# and cos stay within 1.44 epsilons, so the bound leaves a factor of 4.8;
# for IEEE quad it is assumed, not measured. tests/test_crmath.py checks the
# kernels bit for bit against mpmath. The rounding test widens the result
# by one more epsilon, which covers the rounding of the interval ends it
# forms in long double.
_SLACK = np.longdouble(8) * _LD.eps
# Stage 2: an integer v stands for v / 2^_P. ln 2 and π/2 are rounded down
# at 2^-192, so that k times either is within 2^-182 for |k| <= 739.
_P = 160
_ONE = 1 << _P
_CONST_BITS = 192
_LN2 = 0xb17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d
_PI_2 = 0x1921fb54442d18469898cc51701b839a252049c1114cf98e8
_ERR = 256  # the bound in the module docstring, in units of 2^-_P
_REACH = 512.0
# The hardest double arguments known for these functions (Lefevre and
# Muller, ARITH 2001) lie about 2^-120 from a rounding boundary; 256 bits
# decides them with a wide margin.
_MP_BITS = 256


def _nearest_double(v) -> float:
    """The float64 nearest to the mpmath number v, subnormals included."""
    sign, man, exp, bc = v._mpf_
    if not man:
        return float(v)  # zero, infinity or nan
    # weight of the last bit a double keeps at this magnitude
    shift = max(exp + bc - 53, -1074) - exp
    if shift > 0:
        man, rem = divmod(man, 1 << shift)
        half = 1 << (shift - 1)
        if rem > half or (rem == half and man & 1):
            man += 1
        exp += shift
    try:
        value = math.ldexp(man, exp)
    except OverflowError:
        value = math.inf
    return -value if sign else value


def _mp_nearest(name: str, x: float) -> float:
    import mpmath  # only what stage 2 cannot decide needs it

    with mpmath.workprec(_MP_BITS):
        return _nearest_double(getattr(mpmath, name)(x))


def _series(z: int, n: int, step: int) -> int:
    """The sum of t_0 = 1 and t_j = t_(j-1)·z / d_j in fixed point, where
    d_j multiplies the step integers that follow n + (j - 1)·step."""
    total = t = _ONE
    while t:  # ends: a term -1 needs z < 0, and then the next term is 0
        n += step
        t = (t * z >> _P) // (n * (n - 1) if step == 2 else n)
        total += t
    return total


def _decide(v: int, err: int, q: int) -> float | None:
    """The double nearest to v / 2^q, if all of (v ± err) / 2^q round to it.

    int / int and float(int) round correctly, so this is Ziv's test done
    exactly.
    """
    if q >= 0:
        lo, hi = (v - err) / (1 << q), (v + err) / (1 << q)
    else:
        lo, hi = float((v - err) << -q), float((v + err) << -q)
    return lo if lo == hi else None


def _stage2(name: str, x: float) -> float | None:
    """The double nearest to name(x) from fixed point, or None if undecided."""
    if not abs(x) <= _REACH:
        return None
    if x == 0.0:
        return 1.0 if name in ("exp", "cos") else x  # keeps the sign of -0.0
    m, d = abs(x).as_integer_ratio()
    q = d.bit_length() - 1  # |x| = m / 2^q
    ax = m << (_P - q) if q <= _P else m >> (q - _P)  # |x|, rounded down
    if name in ("exp", "expm1"):
        k = round(x * 1.4426950408889634)
        r = (ax if x > 0 else -ax) - (k * _LN2 >> _CONST_BITS - _P)
        s = _series(r, 1, 1)  # (e^r - 1) / r
        if name == "expm1" and k == 0:
            # keep x exact, so tiny arguments keep their relative precision
            return _decide(m * s if x > 0 else -m * s, m * _ERR, q + _P)
        e = _ONE + (r * s >> _P)  # e^r, and e^x = e^r 2^k
        if name == "exp":
            return _decide(e, _ERR, _P - k)
        up, down = max(k, 0), max(-k, 0)
        return _decide((e << up) - (_ONE << down), _ERR << up, _P + down)
    k = round(abs(x) * 0.6366197723675814)
    r = ax - (k * _PI_2 >> _CONST_BITS - _P)
    z = -(r * r >> _P)
    quadrant = (k + (name == "cos")) % 4  # name(|x|) = ±sin r or ±cos r
    if quadrant % 2:
        v, err, q = _series(z, 0, 2), _ERR, _P  # cos r
    elif k:
        v, err, q = r * _series(z, 1, 2), _ERR << _P, 2 * _P  # sin r
    else:
        v, err, q = m * _series(z, 1, 2), m * _ERR, q + _P  # sin |x|, exact |x|
    if (quadrant >= 2) != (name == "sin" and x < 0):
        v = -v
    return _decide(v, err, q)


def _kernel(name: str):
    fast = getattr(np, name)
    periodic = name in ("sin", "cos")

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
        if periodic and np.isinf(x).any():
            raise ValueError("math domain error")
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
            xi = float(x.flat[i])
            yi = _stage2(name, xi)
            out.flat[i] = _mp_nearest(name, xi) if yi is None else yi
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
