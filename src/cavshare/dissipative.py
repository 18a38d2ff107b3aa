"""Damped closed forms for lossy exciton modes.

Each mode leaks to its own zero-temperature bath at rate gamma while the
cavity stays lossless. The collective normal mode then oscillates at
delta = sqrt(N g^2 - (gamma/4)^2) under an e^{-gamma t/4} envelope. Times
are passed as dimensionless Gt (G = g sqrt(N)) and converted internally.
The amplitudes and concurrences accept a float Gt or an array of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import crmath
from .analytic import _cat_pair_density, _grown, _tilde_bases, cat_ratio
from .entanglement import TwoQubitDensity
from .errors import InvalidParameter, OverdampedRegime
from .model import SystemParams


@dataclass(frozen=True)
class DampedAmplitudes:
    """Cavity and per-mode amplitude factors under exciton damping.

    u_prime and v_prime are arrays when the time was an array.
    """

    u_prime: float
    v_prime: float
    delta: float


def _oscillation_rate(params: SystemParams) -> float:
    g = params.coupling
    gamma = params.decay_rate
    quarter = gamma / 4.0
    delta_sq = params.n_crystallites * g * g - quarter * quarter
    if delta_sq <= 0.0:
        raise OverdampedRegime(
            f"N g^2 = {params.n_crystallites * g * g:.6g} does not exceed "
            f"(gamma/4)^2 = {quarter * quarter:.6g}"
        )
    return math.sqrt(delta_sq)


def _damped_v(params: SystemParams, gt):
    """v'(t) = (g/delta) e^{-gamma t/4} sin(delta t), with delta, delta t,
    the envelope and the sine it is made of: all but the cosine that u'
    adds, which nothing reading v' alone evaluates."""
    delta = _oscillation_rate(params)
    t = params.time_from_gt(gt)
    try:
        envelope = crmath.exp(-params.decay_rate * t / 4.0)
    except OverflowError:  # the envelope grows only before t = 0
        raise InvalidParameter("gt", "e^(-gamma t/4) overflows a double below "
                               "gamma t = -2839.13") from None
    s = crmath.sin(delta * t)
    return (params.coupling / delta) * envelope * s, delta, delta * t, envelope, s


def damped_amplitudes(params: SystemParams, gt) -> DampedAmplitudes:
    """Amplitudes u'(t), v'(t) and the shifted rate delta.

    u' = e^{-gamma t/4} [(gamma/4 delta) sin(delta t) + cos(delta t)],
    v' = (g/delta) e^{-gamma t/4} sin(delta t). At gamma = 0 these reduce to
    cos(Gt) and sin(Gt)/sqrt(N).
    """
    v_prime, delta, phase, envelope, s = _damped_v(params, gt)
    u_prime = envelope * ((params.decay_rate / (4.0 * delta)) * s + crmath.cos(phase))
    return DampedAmplitudes(u_prime=u_prime, v_prime=v_prime, delta=delta)


def damped_overlap(params: SystemParams, gt: float) -> float:
    """Branch overlap P'(t) = exp[-2|alpha|^2 (1 - 2 v'(t)^2)]."""
    v = _damped_v(params, gt)[0]
    return crmath.exp(-2.0 * params.intensity * (1.0 - 2.0 * v * v))


def damped_qubit_basis(params: SystemParams, gt):
    """The tilde basis a damped cat's pairs are read in, of amplitude
    mu = -i v'(t) alpha. The one place mu is formed, for the closed density
    and the oracle's reduction alike. A float Gt gives its basis, an array
    of times a list of one per time."""
    return _tilde_bases(-1j * _damped_v(params, gt)[0] * params.alpha)


def damped_pair_density(params: SystemParams, gt: float) -> TwoQubitDensity:
    """Reduced pair density under damping, in the tilde basis of
    damped_qubit_basis.

    Same X-shaped structure as the lossless case with sin(Gt)/sqrt(N)
    replaced by v'(t). Raises DegenerateBasis once the basis amplitude has
    decayed below threshold.
    """
    v = _damped_v(params, gt)[0]
    return _cat_pair_density(params, params.intensity * v * v,
                             damped_qubit_basis(params, gt))


def damped_concurrence(params: SystemParams, gt):
    """Damped pairwise concurrence C' = (e^{4|alpha v'|^2} - 1)/(e^{2|alpha|^2} +- 1)."""
    v = _damped_v(params, gt)[0]
    x = params.intensity
    with np.errstate(over="ignore", invalid="ignore"):
        mu_sq, v_sq = x * v * v, v * v
        # crmath.expm1 passes an infinite 4 mu_sq through (nan at x = 0)
        if not np.all(4.0 * mu_sq < math.inf):
            raise _grown()
    return cat_ratio(params.parity, x, mu_sq, v_sq)


def damped_concurrence_weak_coupling(params: SystemParams, gt):
    """Weak-coupling (gamma << g) approximation to the damped concurrence.

    Replaces |v'|^2 by sin^2(Gt) e^{-gamma t/2}/N, i.e. an undistorted
    oscillation under the bare decay envelope. Valid for any gamma as a
    formula, accurate when gamma << g.
    """
    x = params.intensity
    n = params.n_crystallites
    t = params.time_from_gt(gt)
    s = crmath.sin(gt)
    damped_s2 = s * s * crmath.exp(-params.decay_rate * t / 2.0)
    return cat_ratio(params.parity, x, x * damped_s2 / n, damped_s2 / n)
