"""Underdamped closed forms for a leaky cavity, checked against the lossless
limit and against direct master-equation propagation."""

import math

import numpy as np
import pytest

from cavshare import (
    Cat,
    DegenerateBasis,
    OverdampedRegime,
    PairIndex,
    ParityKind,
    SystemParams,
    TildeBasis,
    coherent_concurrence,
    concurrence,
    isotropic_amplitudes,
)
from cavshare.dissipative import (
    damped_amplitudes,
    damped_concurrence,
    damped_concurrence_weak_coupling,
    damped_overlap,
    damped_pair_density,
    damped_qubit_basis,
)
from cavshare.fockspace import (
    MixedState,
    build_basis,
    lindblad_trajectory,
    minimum_truncation,
    prepare_initial,
    reduce_to_qubit_pair,
)

_GAMMA = 0.13
# sqrt(N g^2 - (gamma/4)^2) for N=3, g=1, gamma=0.13
_DELTA_N3 = 1.7317458676145296


def _params(n=3, x=1.0, gamma=_GAMMA, parity=ParityKind.ODD):
    return SystemParams(
        n_crystallites=n, intensity=x, decay_rate=gamma, parity=parity
    )


def test_shifted_frequency_value():
    amps = damped_amplitudes(_params(), 0.7)
    assert math.isclose(amps.delta, _DELTA_N3, rel_tol=1e-15)


def test_amplitudes_start_from_identity():
    amps = damped_amplitudes(_params(), 0.0)
    assert math.isclose(amps.u_prime, 1.0, abs_tol=1e-15)
    assert amps.v_prime == 0.0


def test_lossless_limit_recovers_ideal_forms():
    lossy = _params(gamma=0.0)
    rng = np.random.default_rng(67)
    for gt in rng.uniform(0.05, 2.0 * math.pi, size=20):
        gt = float(gt)
        amps = damped_amplitudes(lossy, gt)
        ideal = isotropic_amplitudes(lossy, gt)
        # the damped amplitudes are real and signed; moduli must agree
        assert math.isclose(amps.u_prime ** 2, abs(ideal.u) ** 2, abs_tol=1e-12)
        assert math.isclose(amps.v_prime ** 2, abs(ideal.v) ** 2, abs_tol=1e-12)
        assert math.isclose(damped_concurrence(lossy, gt),
                            coherent_concurrence(lossy, gt), abs_tol=1e-12)


def test_transfer_amplitude_decays_with_loss():
    gt = math.pi / 2.0
    levels = [damped_amplitudes(_params(gamma=g), gt).v_prime
              for g in (0.0, 0.1, 0.3, 0.6)]
    assert all(a > b for a, b in zip(levels, levels[1:]))


def test_concurrence_envelope_shrinks_with_loss():
    rng = np.random.default_rng(71)
    for _ in range(15):
        gt = float(rng.uniform(0.3, math.pi - 0.3))
        x = float(rng.uniform(0.1, 2.0))
        c = [damped_concurrence(_params(x=x, gamma=g), gt)
             for g in (0.0, 0.2, 0.5)]
        assert c[0] >= c[1] >= c[2]


def test_weak_coupling_form_approaches_exact_as_loss_vanishes():
    gts = np.linspace(0.1, 4.0 * math.pi, 120)
    gaps = []
    for gamma in (0.5, 0.25, 0.125):
        p = _params(n=2, x=0.25, gamma=gamma)
        gaps.append(max(abs(damped_concurrence_weak_coupling(p, float(gt))
                            - damped_concurrence(p, float(gt)))
                        for gt in gts))
    assert gaps[0] > gaps[1] > gaps[2]


def test_overlap_decays_and_matches_lossless_limit():
    p0 = _params(x=0.8, gamma=0.0)
    from cavshare import cavity_overlap
    for gt in (0.3, 1.0, 2.0):
        assert math.isclose(damped_overlap(p0, gt), cavity_overlap(p0, gt),
                            rel_tol=1e-12)
    # loss cuts the transferred share, so the peak overlap drops
    lossy = _params(x=0.8, gamma=0.3)
    half_pi = math.pi / 2.0
    assert damped_overlap(lossy, half_pi) < damped_overlap(p0, half_pi)


def test_pair_density_trace_and_tag():
    p = _params(x=1.3)
    gt = 1.1
    rho = damped_pair_density(p, gt)
    assert math.isclose(float(np.trace(rho.entries).real), 1.0, abs_tol=1e-14)
    amps = damped_amplitudes(p, gt)
    assert isinstance(rho.basis_tag, TildeBasis)
    expected_mu = -1j * amps.v_prime * p.alpha
    assert abs(rho.basis_tag.mu - expected_mu) < 1e-15


def _words(basis: TildeBasis) -> list[int]:
    return np.array([basis.mu]).view(np.int64).tolist()


def test_damped_density_is_read_in_damped_qubit_basis():
    # damped_qubit_basis is mu = -i v'(t) alpha, operand for operand, and
    # the closed density's tag is it, word for word. Without loss v'(t)
    # vanishes at Gt = pi, and the density refuses there
    grid = [0.3, 1.0, math.pi / 2.0, 2.5, math.pi, 4.0, 2.0 * math.pi - 0.1]
    degenerate = 0
    for n, x, gamma in [(2, 0.25, 0.13), (3, 1.0, 0.0), (5, 2.0, 0.5)]:
        for parity in (ParityKind.EVEN, ParityKind.ODD):
            p = _params(n=n, x=x, gamma=gamma, parity=parity)
            for gt in grid:
                basis = damped_qubit_basis(p, gt)
                assert _words(basis) == _words(TildeBasis(
                    -1j * damped_amplitudes(p, gt).v_prime * p.alpha))
                try:
                    rho = damped_pair_density(p, gt)
                except DegenerateBasis:
                    assert gamma == 0.0 and gt == math.pi
                    degenerate += 1
                    continue
                assert _words(rho.basis_tag) == _words(basis)
    assert degenerate == 2


def test_kernel_agrees_with_closed_form():
    rng = np.random.default_rng(73)
    for _ in range(25):
        p = _params(
            n=int(rng.integers(2, 6)),
            x=float(rng.uniform(0.1, 2.5)),
            gamma=float(rng.uniform(0.0, 0.5)),
            parity=ParityKind.EVEN if rng.integers(2) else ParityKind.ODD,
        )
        gt = float(rng.uniform(0.2, math.pi - 0.2))
        rho = damped_pair_density(p, gt)
        assert abs(concurrence(rho) - damped_concurrence(p, gt)) <= 1e-8


def test_long_time_basis_degenerates():
    p = _params(x=1.0, gamma=1.0)
    with pytest.raises(DegenerateBasis):
        damped_pair_density(p, 120.0)
    with pytest.raises(DegenerateBasis):
        damped_pair_density(_params(), 0.0)


def test_overdamped_regime_is_rejected():
    # gamma/4 >= g sqrt(N): oscillatory forms do not apply
    p = SystemParams(n_crystallites=2, intensity=1.0, decay_rate=6.0)
    with pytest.raises(OverdampedRegime):
        damped_amplitudes(p, 0.5)
    with pytest.raises(OverdampedRegime):
        damped_concurrence(p, 0.5)


def test_closed_form_matches_master_equation():
    # exact propagation of the dissipative dynamics reproduces the closed
    # form; the system is linear so agreement is limited only by truncation
    # and roundoff
    p = _params(n=2, x=0.25, parity=ParityKind.ODD)
    basis = build_basis(3, minimum_truncation(0.25, margin=2))
    psi0 = prepare_initial(Cat(p.parity, alpha=p.alpha), basis)
    support = np.flatnonzero(psi0.amplitudes)  # psi0's density as one block there
    amp = psi0.amplitudes[support]
    rho0 = MixedState(basis=basis, blocks=[(support, np.outer(amp, amp.conj()))])
    gt = 1.0
    states = lindblad_trajectory(p, rho0, [0.0, p.time_from_gt(gt)])
    amps = damped_amplitudes(p, gt)
    mu = -1j * amps.v_prime * p.alpha
    reduced, _ = reduce_to_qubit_pair(states[-1:], PairIndex(1, 2), [TildeBasis(mu=mu)])
    closed = damped_pair_density(p, gt)
    np.testing.assert_allclose(reduced.entries[0], closed.entries, atol=1e-9)
    assert abs(concurrence(reduced)[0] - damped_concurrence(p, gt)) < 1e-9
