"""Closed forms of the lossless dynamics: transfer coefficients, pair
densities, concurrences, overlap and photon-number formulas."""

import math

import numpy as np
import pytest

from cavshare import (
    Cat,
    Coherent,
    CouplingProfile,
    DegenerateBasis,
    InvalidParameter,
    NotADensityMatrix,
    NumberBasis,
    PairIndex,
    ParityKind,
    SinglePhoton,
    SystemParams,
    TildeBasis,
    TwoQubitDensity,
    cat_qubit_basis,
    cavity_overlap,
    coherent_concurrence,
    coherent_pair_density,
    concurrence,
    isotropic_amplitudes,
    mean_photon_number,
    single_photon_concurrence,
    single_photon_pair_density,
    transfer_coefficients,
)

_HALF_PI = math.pi / 2.0


def _seeded_gts(rng, count, lo=0.05, hi=2.0 * math.pi):
    return rng.uniform(lo, hi, size=count)


# --- transfer coefficients -------------------------------------------------

def test_transfer_coefficients_34_at_quarter_period():
    coeffs = transfer_coefficients(CouplingProfile(couplings=(3.0, 4.0)), _HALF_PI)
    assert math.isclose(coeffs.g_collective, 5.0, rel_tol=1e-15)
    np.testing.assert_allclose(coeffs.f, [0.6, 0.8], atol=1e-15)
    assert abs(coeffs.cos_term) < 1e-15


def test_transfer_conservation_property():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        profile = CouplingProfile(couplings=tuple(rng.uniform(0.2, 3.0, size=n)))
        for gt in _seeded_gts(rng, 4):
            coeffs = transfer_coefficients(profile, gt)
            total = float(np.sum(coeffs.f ** 2)) + coeffs.cos_term ** 2
            assert math.isclose(total, 1.0, abs_tol=1e-12)


def test_isotropic_amplitudes_limits_and_norm():
    params = SystemParams(n_crystallites=4)
    at0 = isotropic_amplitudes(params, 0.0)
    assert at0.u == 1.0 and at0.v == 0.0
    rng = np.random.default_rng(5)
    for gt in _seeded_gts(rng, 20):
        amps = isotropic_amplitudes(params, gt)
        norm = abs(amps.u) ** 2 + 4 * abs(amps.v) ** 2
        assert math.isclose(norm, 1.0, abs_tol=1e-12)


# --- single-photon pair density and concurrence ----------------------------

def test_pair_density_34_exact_rationals():
    rho = single_photon_pair_density(
        CouplingProfile(couplings=(3.0, 4.0)), _HALF_PI, PairIndex(1, 2)
    )
    mat = rho.entries
    assert math.isclose(mat[2, 2].real, 9.0 / 25.0, abs_tol=1e-15)
    assert math.isclose(mat[1, 1].real, 16.0 / 25.0, abs_tol=1e-15)
    assert math.isclose(mat[1, 2].real, 12.0 / 25.0, abs_tol=1e-15)
    assert abs(mat[0, 0]) < 1e-15 and abs(mat[3, 3]) < 1e-15
    assert isinstance(rho.basis_tag, NumberBasis)


def test_anisotropic_concurrence_exact_case():
    profile = CouplingProfile(couplings=(3.0, 4.0))
    law = single_photon_concurrence(profile, _HALF_PI, PairIndex(1, 2))
    assert math.isclose(law, 24.0 / 25.0, abs_tol=1e-15)
    rho = single_photon_pair_density(profile, _HALF_PI, PairIndex(1, 2))
    assert math.isclose(concurrence(rho), 24.0 / 25.0, abs_tol=1e-15)


def test_isotropic_law_peaks_at_two_over_n():
    for n in (2, 3, 5, 8):
        profile = CouplingProfile.isotropic(1.0, n)
        c = single_photon_concurrence(profile, _HALF_PI, PairIndex(1, n))
        assert math.isclose(c, 2.0 / n, rel_tol=1e-14)


def test_law_is_pi_periodic():
    profile = CouplingProfile.isotropic(1.0, 3)
    rng = np.random.default_rng(17)
    for gt in _seeded_gts(rng, 30):
        a = single_photon_concurrence(profile, gt, PairIndex(1, 2))
        b = single_photon_concurrence(profile, gt + math.pi, PairIndex(1, 2))
        assert math.isclose(a, b, abs_tol=1e-12)


def test_wootters_consistency_single_photon_isotropic():
    # kernel concurrence of the exact density vs the closed form, 1e-10
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        profile = CouplingProfile.isotropic(float(rng.uniform(0.3, 2.0)), n)
        gt = float(rng.uniform(0.05, 2.0 * math.pi))
        rho = single_photon_pair_density(profile, gt, PairIndex(1, 2))
        law = single_photon_concurrence(profile, gt, PairIndex(1, 2))
        assert abs(concurrence(rho) - law) <= 1e-10


def test_wootters_consistency_single_photon_anisotropic():
    # anisotropy breaks the clean kernel structure; sqrt noise caps at ~1e-8
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        profile = CouplingProfile(couplings=tuple(rng.uniform(0.3, 3.0, size=n)))
        gt = float(rng.uniform(0.05, 2.0 * math.pi))
        pair = PairIndex(1, n)
        rho = single_photon_pair_density(profile, gt, pair)
        law = single_photon_concurrence(profile, gt, pair)
        assert abs(concurrence(rho) - law) <= 1e-8


def test_pair_density_requires_in_range_pair():
    profile = CouplingProfile.isotropic(1.0, 3)
    with pytest.raises(InvalidParameter):
        single_photon_pair_density(profile, 0.3, PairIndex(1, 4))
    with pytest.raises(InvalidParameter):
        single_photon_concurrence(profile, 0.3, PairIndex(2, 5))


# --- density-matrix hygiene -------------------------------------------------

def test_two_qubit_density_validates_input():
    good = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
    rho = TwoQubitDensity(entries=good, basis_tag=NumberBasis())
    assert not rho.entries.flags.writeable
    with pytest.raises(NotADensityMatrix):
        TwoQubitDensity(entries=np.eye(3) / 3.0, basis_tag=NumberBasis())
    skew = good.copy()
    skew[0, 1] = 0.1
    with pytest.raises(NotADensityMatrix):
        TwoQubitDensity(entries=skew, basis_tag=NumberBasis())
    with pytest.raises(NotADensityMatrix):
        TwoQubitDensity(entries=2.0 * good, basis_tag=NumberBasis())
    with pytest.raises(NotADensityMatrix):
        TwoQubitDensity(entries=np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex),
                        basis_tag=NumberBasis())


def test_two_qubit_density_owns_a_copy():
    # the caller's array stays writeable, and neither it nor a writeable
    # base it views can change the validated entries afterwards
    good = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
    rho = TwoQubitDensity(entries=good, basis_tag=NumberBasis())
    assert good.flags.writeable
    good[0, 0] = 5.5
    assert rho.entries[0, 0] == 0.5
    base = np.zeros((2, 4, 4), dtype=complex)
    base[0] = np.diag([0.5, 0.25, 0.25, 0.0])
    rho = TwoQubitDensity(entries=base[0], basis_tag=NumberBasis())
    base[0, 0, 0] = 5.5
    assert np.trace(rho.entries) == 1.0
    assert not rho.entries.flags.writeable


# --- cat-state closed forms --------------------------------------------------

def test_cavity_overlap_formula():
    params = SystemParams(n_crystallites=3, intensity=0.8)
    assert math.isclose(cavity_overlap(params, 0.0), math.exp(-1.6), rel_tol=1e-14)
    peak = cavity_overlap(params, _HALF_PI)
    assert math.isclose(peak, math.exp(-1.6 + 3.2 / 3.0), rel_tol=1e-14)
    assert peak > cavity_overlap(params, 0.3)  # grows with the transferred share


def test_coherent_pair_density_trace_and_shape():
    rng = np.random.default_rng(37)
    for _ in range(30):
        params = SystemParams(
            n_crystallites=int(rng.integers(2, 7)),
            intensity=float(rng.uniform(0.05, 3.0)),
            parity=ParityKind.EVEN if rng.integers(2) else ParityKind.ODD,
        )
        gt = float(rng.uniform(0.1, math.pi - 0.1))
        rho = coherent_pair_density(params, gt)
        assert math.isclose(float(np.trace(rho.entries).real), 1.0, abs_tol=1e-14)
        assert isinstance(rho.basis_tag, TildeBasis)
        mat = rho.entries
        # X shape: the only nonzeros are the diagonal, the middle block, and
        # the outer corners
        assert abs(mat[0, 1]) == 0.0 and abs(mat[0, 2]) == 0.0
        assert abs(mat[1, 3]) == 0.0 and abs(mat[2, 3]) == 0.0


def test_coherent_density_tag_carries_transfer_amplitude():
    params = SystemParams(n_crystallites=3, intensity=1.0)
    gt = 0.9
    rho = coherent_pair_density(params, gt)
    mu = isotropic_amplitudes(params, gt).v * params.alpha
    assert abs(rho.basis_tag.mu - mu) < 1e-15


def _words(basis: TildeBasis) -> list[int]:
    return np.array([basis.mu]).view(np.int64).tolist()


def test_coherent_density_is_read_in_cat_qubit_basis():
    # cat_qubit_basis is mu = v(t) alpha, operand for operand, and the
    # closed density's tag is it, word for word; at Gt = pi the basis
    # degenerates and the density refuses
    grid = [0.3, 1.0, _HALF_PI, 2.5, math.pi, 4.0, 2.0 * math.pi - 0.1]
    degenerate = 0
    for n, x in [(2, 0.25), (3, 1.0), (5, 2.0)]:
        for parity in (ParityKind.EVEN, ParityKind.ODD):
            params = SystemParams(n_crystallites=n, intensity=x, parity=parity)
            for gt in grid:
                basis = cat_qubit_basis(params, gt)
                assert _words(basis) == _words(TildeBasis(
                    isotropic_amplitudes(params, gt).v * params.alpha))
                try:
                    rho = coherent_pair_density(params, gt)
                except DegenerateBasis:
                    assert gt == math.pi and abs(basis.mu) ** 2 < 1e-12
                    degenerate += 1
                    continue
                assert _words(rho.basis_tag) == _words(basis)
    assert degenerate == 6


def test_coherent_density_degenerates_at_nodes():
    params = SystemParams(n_crystallites=3, intensity=1.0)
    with pytest.raises(DegenerateBasis):
        coherent_pair_density(params, 0.0)
    with pytest.raises(DegenerateBasis):
        coherent_pair_density(params, math.pi)
    tiny = SystemParams(n_crystallites=3, intensity=1e-13)
    with pytest.raises(DegenerateBasis):
        coherent_pair_density(tiny, _HALF_PI)


def test_coherent_concurrence_zero_intensity_limits():
    rng = np.random.default_rng(41)
    for gt in _seeded_gts(rng, 10):
        odd = SystemParams(n_crystallites=4, intensity=0.0, parity=ParityKind.ODD)
        even = SystemParams(n_crystallites=4, intensity=0.0, parity=ParityKind.EVEN)
        assert math.isclose(coherent_concurrence(odd, gt),
                            0.5 * math.sin(gt) ** 2, abs_tol=1e-14)
        assert coherent_concurrence(even, gt) == 0.0


def test_odd_beats_even_and_respects_sharing_bound():
    rng = np.random.default_rng(43)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        x = float(rng.uniform(1e-3, 4.0))
        gt = float(rng.uniform(0.1, math.pi - 0.1))
        odd = coherent_concurrence(
            SystemParams(n_crystallites=n, intensity=x, parity=ParityKind.ODD), gt
        )
        even = coherent_concurrence(
            SystemParams(n_crystallites=n, intensity=x, parity=ParityKind.EVEN), gt
        )
        assert even < odd
        bound = 2.0 * math.sin(gt) ** 2 / n
        assert odd <= bound + 1e-12


def test_wootters_consistency_coherent():
    # square roots of the degenerate X-state eigenvalues carry O(sqrt(eps))
    # kernel noise, so 1e-8 is the honest bound here
    rng = np.random.default_rng(47)
    for _ in range(40):
        params = SystemParams(
            n_crystallites=int(rng.integers(2, 7)),
            intensity=float(rng.uniform(0.05, 3.0)),
            parity=ParityKind.EVEN if rng.integers(2) else ParityKind.ODD,
        )
        gt = float(rng.uniform(0.1, math.pi - 0.1))
        rho = coherent_pair_density(params, gt)
        closed = coherent_concurrence(params, gt)
        assert abs(concurrence(rho) - closed) <= 1e-8


def test_n2_odd_is_maximal_at_peak_for_any_intensity():
    for x in (0.1, 1.0, 3.0, 5.0):
        params = SystemParams(n_crystallites=2, intensity=x, parity=ParityKind.ODD)
        assert math.isclose(coherent_concurrence(params, _HALF_PI), 1.0,
                            abs_tol=1e-12)


# --- photon number -----------------------------------------------------------

def test_mean_photon_single_photon_is_cos_squared():
    params = SystemParams(n_crystallites=3)
    rng = np.random.default_rng(53)
    for gt in _seeded_gts(rng, 10):
        assert math.isclose(mean_photon_number(params, gt, SinglePhoton()),
                            math.cos(gt) ** 2, abs_tol=1e-14)


def test_mean_photon_cat_tanh_coth_pair():
    x = 0.7
    params = SystemParams(n_crystallites=3, intensity=x)
    gt = 0.4
    c2 = math.cos(gt) ** 2
    even = mean_photon_number(params, gt, Cat(ParityKind.EVEN))
    odd = mean_photon_number(params, gt, Cat(ParityKind.ODD))
    assert math.isclose(even, x * c2 * math.tanh(x), rel_tol=1e-13)
    assert math.isclose(odd, x * c2 / math.tanh(x), rel_tol=1e-13)
    # parity is read from the preparation, not from params
    flipped = SystemParams(n_crystallites=3, intensity=x, parity=ParityKind.EVEN)
    assert mean_photon_number(flipped, gt, Cat(ParityKind.ODD)) == odd


def test_mean_photon_odd_vacuum_limit_is_single_photon():
    params = SystemParams(n_crystallites=3, intensity=0.0)
    assert math.isclose(mean_photon_number(params, 0.8, Cat(ParityKind.ODD)),
                        math.cos(0.8) ** 2, abs_tol=1e-14)
    assert mean_photon_number(params, 0.8, Cat(ParityKind.EVEN)) == 0.0


def test_mean_photon_refuses_a_coherent_preparation():
    # only the single photon and the two cats have a closed form here
    params = SystemParams(n_crystallites=3, intensity=0.5)
    with pytest.raises(TypeError, match="unsupported initial state Coherent"):
        mean_photon_number(params, 0.8, Coherent(params.alpha))


def test_single_photon_duality_identity():
    # C = (2/N)(1 - <n>) pointwise
    params = SystemParams(n_crystallites=5)
    profile = CouplingProfile.from_params(params)
    rng = np.random.default_rng(59)
    for gt in _seeded_gts(rng, 20):
        law = single_photon_concurrence(profile, gt, PairIndex(2, 4))
        n_bar = mean_photon_number(params, gt, SinglePhoton())
        assert math.isclose(law, (2.0 / 5.0) * (1.0 - n_bar), abs_tol=1e-14)
