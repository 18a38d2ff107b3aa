"""Underdamped closed forms for a leaky cavity, checked against the lossless
limit and against direct master-equation propagation."""

import math

import numpy as np
import pytest

from cavshare import (
    Cat,
    DegenerateBasis,
    InvalidParameter,
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


def test_concurrence_reads_no_cosine(monkeypatch):
    # only u' needs cos(delta t), and the concurrence reads v' alone;
    # damped_amplitudes still gives u' as its formula does
    from cavshare import crmath

    p = _params()
    gts = np.array([0.0, 0.7, 2.0, 9.5])
    amps = damped_amplitudes(p, gts)
    t = p.time_from_gt(gts)
    envelope = crmath.exp(-p.decay_rate * t / 4.0)
    s, c = crmath.sin(amps.delta * t), crmath.cos(amps.delta * t)
    u_prime = envelope * ((p.decay_rate / (4.0 * amps.delta)) * s + c)
    assert amps.u_prime.tobytes() == u_prime.tobytes()
    expected = damped_concurrence(p, gts)

    def refuse(x):
        raise AssertionError("cos evaluated")

    monkeypatch.setattr(crmath, "cos", refuse)
    for parity in ParityKind:
        damped_concurrence(_params(parity=parity), gts)
    assert damped_concurrence(p, gts).tobytes() == expected.tobytes()
    assert damped_concurrence(p, 0.7) == expected[1]


@pytest.mark.parametrize("parity, value", [(ParityKind.ODD, 1.0),
                                           (ParityKind.EVEN, 0.0)])
def test_zero_intensity_limit_is_clipped_before_t0(parity, value):
    # the odd limit 2 v'^2 read 26.67 at Gt = -20, where the envelope has
    # grown v'; from t = 0 on, 2 v'^2 <= 2/N keeps it in range unclipped
    p = _params(n=2, x=0.0, gamma=0.5, parity=parity)
    assert damped_concurrence(p, -20.0) == value
    gts = np.linspace(0.0, 20.0, 201)
    v = damped_amplitudes(p, gts).v_prime
    limit = (2.0 if parity is ParityKind.ODD else 0.0) * (v * v)
    assert damped_concurrence(p, gts).tobytes() == limit.tobytes()


@pytest.mark.parametrize("gt, finite", [
    (-100.0, (True, True)), (-4109.58, (True, False)), (-5000.0, (False, False)),
], ids=["e4mu2_past_a_double", "4mu2_past_a_double", "mu2_past_a_double"])
@pytest.mark.parametrize("parity", list(ParityKind))
def test_damped_concurrence_refuses_a_grown_v_before_t0(gt, finite, parity):
    # before t = 0 the envelope grows v': at |alpha|^2 = 1, e^(4|alpha v'|^2),
    # then 4|alpha v'|^2 and at last |alpha v'|^2 leave the doubles. Each is
    # refused naming gt, for a float and for an array, where it read 1
    p = _params(n=2, gamma=0.5, parity=parity)
    v = damped_amplitudes(p, gt).v_prime
    v_sq = v * v  # inf, not OverflowError, past a double
    assert (math.isfinite(v_sq), math.isfinite(4.0 * v_sq)) == finite
    assert 4.0 * v_sq > math.log(np.finfo(float).max)
    for times in (gt, np.array([gt, gt])):
        with pytest.raises(InvalidParameter, match=r"^gt: e\^\(4\|alpha v"):
            damped_concurrence(p, times)


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
