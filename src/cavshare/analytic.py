"""Closed forms for the lossless dynamics.

A single cavity photon (or cat state) is transferred coherently to N coupled
bosonic modes and back. These functions give the transfer coefficients, the
reduced two-mode qubit densities, pairwise concurrences, and the cavity
photon number, all as explicit functions of the dimensionless time Gt.

The concurrences and the photon number accept a float time, giving a float,
or an array of times, giving an array; the CLI evaluates whole figure grids
through the same formulas. exp, expm1, sin and cos come from ``crmath``,
which rounds them correctly, so every value is the same on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import crmath
from .entanglement import TwoQubitDensity
from .errors import DegenerateBasis, InvalidParameter
from .model import (
    DEGENERACY_THRESHOLD,
    Cat,
    CouplingProfile,
    NumberBasis,
    PairIndex,
    ParityKind,
    SinglePhoton,
    SystemParams,
    TildeBasis,
)


@dataclass(frozen=True)
class TransferCoefficients:
    """Amplitude fractions f_j(t) moved from the cavity into each mode."""

    g_collective: float
    f: np.ndarray
    cos_term: float


@dataclass(frozen=True)
class ModeAmplitudes:
    """Isotropic amplitude pair: cavity keeps u(t), each mode gets v(t)."""

    u: float
    v: complex


def transfer_coefficients(profile: CouplingProfile, gt: float) -> TransferCoefficients:
    """Transfer coefficients f_j = g_j sin(G't)/G' at dimensionless time G't.

    They satisfy sum f_j^2 + cos^2(G't) = 1 for every profile.
    """
    gp = profile.collective_rate
    s = crmath.sin(gt)
    f = np.array([g * s / gp for g in profile.couplings])
    return TransferCoefficients(g_collective=gp, f=f, cos_term=crmath.cos(gt))


def isotropic_amplitudes(params: SystemParams, gt: float) -> ModeAmplitudes:
    """Amplitudes u = cos(Gt), v = -i sin(Gt)/sqrt(N) in the rotating frame."""
    n = params.n_crystallites
    return ModeAmplitudes(u=crmath.cos(gt), v=-1j * (crmath.sin(gt) / math.sqrt(n)))


def single_photon_pair_density(profile: CouplingProfile, gt: float,
                               pair: PairIndex) -> TwoQubitDensity:
    """Reduced density of modes (m, n) after single-photon transfer.

    Populations f_m^2 and f_n^2 sit on |10> and |01> with coherence f_m f_n;
    the remaining weight (cavity plus the other modes) sits on |00>. The
    doubly excited level is empty.
    """
    pair.check_bounds(len(profile))
    coeffs = transfer_coefficients(profile, gt)
    fm = coeffs.f[pair.m - 1]
    fn = coeffs.f[pair.n - 1]
    rest = coeffs.cos_term * coeffs.cos_term + sum(
        fj * fj for j, fj in enumerate(coeffs.f, start=1) if j not in (pair.m, pair.n)
    )
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = rest
    mat[1, 1] = fn * fn
    mat[2, 2] = fm * fm
    mat[1, 2] = mat[2, 1] = fm * fn
    return TwoQubitDensity(entries=mat, basis_tag=NumberBasis())


def single_photon_concurrence(profile: CouplingProfile, gt,
                              pair: PairIndex):
    """Pairwise concurrence 2 g_m g_n sin^2(G't) / G'^2.

    Isotropic profiles give (2/N) sin^2(Gt): the single excitation is shared
    equally, bounded by 2/N for every pair.
    """
    pair.check_bounds(len(profile))
    gm = profile.couplings[pair.m - 1]
    gn = profile.couplings[pair.n - 1]
    gp = profile.collective_rate
    gp2 = gp * gp
    s = crmath.sin(gt)
    return 2.0 * gm * gn * s * s / gp2


def cavity_overlap(params: SystemParams, gt: float) -> float:
    """Coherence survival factor P(t) between the two cat branches.

    P = exp(-2|alpha|^2 (1 - 2 sin^2(Gt)/N)); equal to exp(-2|alpha|^2) at
    t = 0 and largest when the cavity is empty.
    """
    x = params.intensity
    s = crmath.sin(gt)
    s2 = s * s
    return crmath.exp(-2.0 * x + 4.0 * x * s2 / params.n_crystallites)


def _tilde_x_matrix(x: float, u: float, parity: ParityKind) -> np.ndarray:
    """Shared X-shaped pair density in the cat qubit basis.

    x is the field intensity |alpha|^2 and u = 2 |mu|^2 with mu the per-mode
    amplitude. Guards: callers ensure x > 0 and u > 0. expm1 keeps the
    near-degenerate differences (1 - e^{-u}, 1 - P) accurate.
    """
    sign = parity.sign
    eps = crmath.exp(-2.0 * x)
    log_p = 2.0 * u - 2.0 * x  # <= 0 since u <= x for N >= 2
    p_factor = crmath.exp(log_p)
    one_m_p = -crmath.expm1(log_p)
    one_p_p = 1.0 + p_factor
    norm2 = 0.5 / (1.0 + eps) if sign > 0 else 0.5 / (-crmath.expm1(-2.0 * x))
    one_m_q = -crmath.expm1(-u)
    one_p_q = 1.0 + crmath.exp(-u)
    diag_p = one_p_p if sign > 0 else one_m_p
    mid_p = one_m_p if sign > 0 else one_p_p
    a00 = norm2 * diag_p * one_p_q * one_p_q / 2.0
    a11 = norm2 * diag_p * one_m_q * one_m_q / 2.0
    mid = norm2 * mid_p * one_p_q * one_m_q / 2.0
    corner = norm2 * diag_p * one_p_q * one_m_q / 2.0
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = a00
    mat[3, 3] = a11
    mat[1, 1] = mat[2, 2] = mat[1, 2] = mat[2, 1] = mid
    mat[0, 3] = mat[3, 0] = corner
    return mat


def cat_qubit_basis(params: SystemParams, gt: float) -> TildeBasis:
    """The tilde basis a lossless cat's pairs are read in: the even/odd cat
    pair of the per-mode amplitude mu = v(t) alpha. The one place mu is
    formed, for the closed density and the oracle's reduction alike."""
    return TildeBasis(isotropic_amplitudes(params, gt).v * params.alpha)


def coherent_pair_density(params: SystemParams, gt: float) -> TwoQubitDensity:
    """Reduced pair density for a cat-state preparation, in the tilde basis
    of cat_qubit_basis. Raises DegenerateBasis when |mu|^2 < 1e-12 (the
    basis collapses as the modes return to vacuum).
    """
    s = crmath.sin(gt)
    s2 = s * s
    mu_sq = params.intensity * s2 / params.n_crystallites
    return _cat_pair_density(params, mu_sq, cat_qubit_basis(params, gt))


def _cat_pair_density(params: SystemParams, mu_sq: float,
                      basis: TildeBasis) -> TwoQubitDensity:
    """The X-shaped cat pair density in the tilde basis given, |mu|^2 =
    mu_sq as the caller forms it; DegenerateBasis when that is below 1e-12."""
    if mu_sq < DEGENERACY_THRESHOLD:
        raise DegenerateBasis(f"|mu|^2 = {mu_sq:.3e} below 1e-12")
    mat = _tilde_x_matrix(params.intensity, 2.0 * mu_sq, params.parity)
    return TwoQubitDensity(entries=mat, basis_tag=basis)


def coherent_concurrence(params: SystemParams, gt):
    """Pairwise concurrence of the cat-state dynamics.

    C = (e^{4|alpha|^2 sin^2(Gt)/N} - 1) / (e^{2|alpha|^2} +- 1) with + for
    even and - for odd parity. The odd case tends to the single-photon law
    (2/N) sin^2(Gt) as the intensity vanishes.
    """
    return cat_concurrence(params.n_crystallites, params.parity,
                           params.intensity, gt)


def cat_concurrence(n, parity: ParityKind, intensity, gt):
    """coherent_concurrence with N, |alpha|^2 and Gt as broadcast arrays.

    Arguments are not validated; build a SystemParams for that. Each
    exponential is evaluated once per distinct value along its own axes, so
    an (N, intensity, Gt) grid costs one sin per time and one expm1 per
    point. Scalar arguments give a float.
    """
    x = np.asarray(intensity, dtype=float)
    s = crmath.sin(gt)
    s2 = s * s
    return cat_ratio(parity, x, x * s2 / n, s2 / n)


def cat_ratio(parity: ParityKind, intensity, mu_sq, v_sq):
    """The cat-state pair concurrence (e^{4|mu|^2} - 1)/(e^{2|alpha|^2} +- 1).

    + for even and - for odd parity, clipped to [0, 1]. mu_sq is
    |mu|^2 = |alpha|^2 |v|^2 as the caller forms it, since the rounding of
    that product shows in the last digit of every CSV value; 4 mu_sq is
    exact. At zero intensity the odd value is its limit 2|v|^2 (v_sq is
    |v|^2) and the even one 0. Arguments broadcast; scalars give a float.
    """
    x = np.asarray(intensity, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # x = 0 is the limit
        try:
            numerator = crmath.expm1(4.0 * mu_sq)
            if parity is ParityKind.EVEN:
                denominator = crmath.exp(2.0 * x) + 1.0
            else:
                denominator = crmath.expm1(2.0 * x)
        except OverflowError:  # 4 mu_sq <= 2 |alpha|^2: the intensity is why
            raise InvalidParameter("intensity", "e^(2|alpha|^2) overflows a "
                                   "double above |alpha|^2 = 354.89") from None
        ratio = np.minimum(np.maximum(np.divide(numerator, denominator), 0.0), 1.0)
    limit = 2.0 * v_sq if parity is ParityKind.ODD else 0.0 * v_sq
    value = np.where(x == 0.0, limit, ratio)
    return float(value) if np.ndim(value) == 0 else value


def mean_photon_number(params: SystemParams, gt,
                       initial: SinglePhoton | Cat):
    """Cavity photon number at Gt for the given preparation.

    SinglePhoton gives cos^2(Gt). Cat preparations give
    |alpha|^2 cos^2(Gt) (1 -+ e^{-2|alpha|^2}) / (1 +- e^{-2|alpha|^2}),
    upper signs even, lower signs odd; the odd zero-intensity limit is the
    single-photon result.
    """
    c = crmath.cos(gt)
    c2 = c * c
    if isinstance(initial, SinglePhoton):
        return c2
    if not isinstance(initial, Cat):
        raise TypeError(f"unsupported initial state {type(initial).__name__}")
    x = params.intensity
    parity = initial.parity
    if x == 0.0:
        return c2 if parity is ParityKind.ODD else 0.0 * c2
    eps = crmath.exp(-2.0 * x)
    if parity is ParityKind.EVEN:
        ratio = (1.0 - eps) / (1.0 + eps)
    else:
        ratio = (1.0 + eps) / (-crmath.expm1(-2.0 * x))
    return x * c2 * ratio
