"""Truncated number-basis machinery: basis enumeration, Hamiltonian blocks,
state preparation, unitary and lossy propagation, pair reduction."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cavshare import (
    CapacityExceeded,
    Cat,
    Coherent,
    CouplingProfile,
    DegenerateBasis,
    DimensionMismatch,
    InvalidParameter,
    LeakageError,
    NotADensityMatrix,
    NumberBasis,
    PairIndex,
    ParityKind,
    SinglePhoton,
    StepSizeUnstable,
    SystemParams,
    TildeBasis,
    TruncationTooSmall,
    coherent_concurrence,
    concurrence,
    isotropic_amplitudes,
    single_photon_pair_density,
)
from cavshare import fockspace
from cavshare.verify import cat_suite
from cavshare.fockspace import (
    FockBasis,
    MixedState,
    PureState,
    SparseHermitian,
    build_basis,
    build_hamiltonian,
    evolve_lindblad,
    evolve_unitary,
    lindblad_trajectory,
    minimum_truncation,
    observable_mean_photon,
    prepare_initial,
    reduce_to_qubit_pair,
    total_excitation,
    unitary_trajectory,
    w_state_fidelity,
)


def _cat_state(params: SystemParams, basis: FockBasis) -> PureState:
    return prepare_initial(Cat(params.parity, alpha=params.alpha), basis)


def _as_mixed(psi: PureState) -> MixedState:
    return MixedState(
        matrix=np.outer(psi.amplitudes, psi.amplitudes.conj()), basis=psi.basis
    )


def _index(basis: FockBasis) -> dict[tuple[int, ...], int]:
    """Occupation tuple -> basis index, read off the stored occupations so a
    wrong FockBasis.rank cannot agree with itself."""
    return {tuple(s): i for i, s in enumerate(basis.occupations.tolist())}


# --- basis -------------------------------------------------------------------

def test_basis_enumeration_small():
    basis = build_basis(2, 1)
    assert basis.dimension == 3
    assert basis.occupations.tolist() == [[0, 0], [1, 0], [0, 1]]
    assert basis.sector_offsets == (0, 1, 3)
    assert basis.rank([[0, 1], [1, 0]]).tolist() == [2, 1]


@pytest.mark.parametrize("n_modes", [2, 3, 4, 5])
@pytest.mark.parametrize("max_total", [1, 2, 3, 4, 5, 6])
def test_basis_order_and_rank(n_modes, max_total):
    # brute force: every tuple with total <= M, by ascending total and then
    # descending lexicographic order within a total
    expected = sorted(
        (s for s in itertools.product(range(max_total + 1), repeat=n_modes)
         if sum(s) <= max_total),
        key=lambda s: (sum(s), tuple(-v for v in s)),
    )
    basis = build_basis(n_modes, max_total)
    assert basis.dimension == len(expected)
    assert basis.occupations.tolist() == [list(s) for s in expected]
    np.testing.assert_array_equal(basis.rank(basis.occupations),
                                  np.arange(basis.dimension))


def test_rank_refuses_vectors_outside_the_basis():
    basis = build_basis(3, 2)
    for occ in ([1, 1, 1], [0, -1, 1], [0, 1]):
        with pytest.raises(InvalidParameter):
            basis.rank(occ)


def test_basis_dimension_is_binomial():
    assert build_basis(3, 11).dimension == math.comb(14, 3)
    assert build_basis(4, 5).dimension == math.comb(9, 4)


def test_basis_sectors_group_total_excitation():
    basis = build_basis(3, 4)
    totals = basis.occupations.sum(axis=1)
    for k in range(basis.max_total + 1):
        lo, hi = basis.sector_offsets[k], basis.sector_offsets[k + 1]
        assert (totals[lo:hi] == k).all()


def test_basis_capacity_guard():
    # 13 modes up to 22 quanta: C(35, 13) states against the 200 000 limit
    with pytest.raises(CapacityExceeded) as info:
        build_basis(13, 22)
    assert (info.value.dimension, info.value.limit) == (math.comb(35, 13), 200_000)


def test_sector_guard_refuses_from_sizes_alone(monkeypatch):
    # The size guard reads the basis dimension from the sector sizes and
    # refuses before enumerating a single state
    def no_enumeration(*_args):
        raise AssertionError("basis states enumerated before the guard")

    monkeypatch.setattr(fockspace, "_occupations", no_enumeration)
    with pytest.raises(CapacityExceeded) as info:
        build_basis(13, 22)
    assert info.value.dimension == math.comb(35, 13)
    monkeypatch.undo()
    # N=10 at |alpha|^2=0.25 fits the 200 000-state total, and the total is
    # the only limit: its top sector has 92 378 states
    basis = build_basis(11, minimum_truncation(0.25))
    assert basis.dimension == 167_960
    assert max(s.stop - s.start for s in basis.sectors) == math.comb(19, 10)


def test_minimum_truncation_values():
    assert minimum_truncation(0.25) == 9
    assert minimum_truncation(1.0) == 14
    assert minimum_truncation(1.0, margin=3) == 17
    assert minimum_truncation(0.0) >= 1
    # x*(3), criterion 4's oracle basis: the odd cat's tail needs one level
    # more than the coherent state's and the even cat's
    assert minimum_truncation(1.5 * math.log(2.0)) == 15
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(InvalidParameter):
            minimum_truncation(bad)


def test_minimum_truncation_admits_every_cat():
    # |alpha|^2 = 0.05, 0.10, ..., 5.00 at N = 2, 3, both parities: 400 cat
    # preparations, each at the cutoff minimum_truncation returns. The
    # largest basis, N=3 at cutoff 28, has 35 960 states, well within the
    # capacity
    refused = []
    for i in range(1, 101):
        x = i / 20
        cutoff = minimum_truncation(x)
        for n in (2, 3):
            try:
                basis = build_basis(n + 1, cutoff)
            except CapacityExceeded:
                refused.append((n, x))
                continue
            for parity in ParityKind:
                params = SystemParams(n_crystallites=n, intensity=x, parity=parity)
                prepare_initial(Cat(parity, params.alpha), basis)
        # the cutoff is the smallest: one level less drops a preparation
        below = build_basis(3, cutoff - 1)
        kinds = [Coherent(math.sqrt(x))] + [Cat(p, math.sqrt(x)) for p in ParityKind]
        rejected = 0
        for kind in kinds:
            try:
                prepare_initial(kind, below)
            except TruncationTooSmall:
                rejected += 1
        assert rejected > 0, x
    assert refused == []


# --- Hamiltonian -------------------------------------------------------------

def test_single_excitation_spectrum_isotropic():
    basis = build_basis(4, 1)
    ham = build_hamiltonian(CouplingProfile.isotropic(1.0, 3), basis)
    evals = ham.sector_eigensystems()[1][0]
    np.testing.assert_allclose(
        np.sort(evals), [-math.sqrt(3.0), 0.0, 0.0, math.sqrt(3.0)], atol=1e-12
    )


def test_single_excitation_spectrum_anisotropic():
    basis = build_basis(3, 1)
    ham = build_hamiltonian(CouplingProfile(couplings=(3.0, 4.0)), basis)
    np.testing.assert_allclose(
        np.sort(ham.sector_eigensystems()[1][0]), [-5.0, 0.0, 5.0], atol=1e-12
    )


def test_hamiltonian_rejects_mismatched_basis():
    with pytest.raises(DimensionMismatch):
        build_hamiltonian(CouplingProfile.isotropic(1.0, 3), build_basis(3, 2))


def test_hamiltonian_rejects_unsupported_coupling():
    # construction validates profiles and parameters; anything else is a
    # type error, as for an unsupported preparation
    with pytest.raises(TypeError):
        build_hamiltonian((1.0, 1.0), build_basis(3, 1))


def test_sparse_operator_refuses_complex_values():
    # a float cast would drop the imaginary part silently
    basis = build_basis(2, 1)
    with pytest.raises(InvalidParameter):
        SparseHermitian(basis, [1], [2], [1.0 + 0.5j])
    real = SparseHermitian(basis, [1], [2], [1.0 + 0.0j])
    assert real.values.dtype == np.float64 and real.values.tolist() == [1.0]


def test_hamiltonian_csr_is_hermitian():
    basis = build_basis(3, 3)
    mat = build_hamiltonian(CouplingProfile(couplings=(1.0, 2.0)), basis).to_csr()
    dense = mat.toarray()
    np.testing.assert_allclose(dense, dense.conj().T, atol=1e-15)


# --- preparation -------------------------------------------------------------

def test_prepare_single_photon_puts_quantum_in_cavity():
    basis = build_basis(4, 2)
    psi = prepare_initial(SinglePhoton(), basis)
    expected = _index(basis)[(1, 0, 0, 0)]
    assert psi.amplitudes[expected] == 1.0
    assert np.count_nonzero(psi.amplitudes) == 1


def test_prepare_coherent_renormalizes_tiny_tail():
    basis = build_basis(2, minimum_truncation(0.25))
    psi = prepare_initial(Coherent(alpha=0.5), basis)
    assert math.isclose(float(np.vdot(psi.amplitudes, psi.amplitudes).real), 1.0,
                        abs_tol=1e-13)
    weight0 = abs(psi.amplitudes[_index(basis)[(0, 0)]]) ** 2
    assert math.isclose(weight0, math.exp(-0.25), rel_tol=1e-10)


def test_prepare_rejects_heavy_truncation():
    with pytest.raises(TruncationTooSmall):
        prepare_initial(Coherent(alpha=3.0), build_basis(2, 2))


def test_prepare_cat_requires_amplitude():
    basis = build_basis(2, 4)
    with pytest.raises(InvalidParameter):
        prepare_initial(Cat(ParityKind.ODD), basis)
    with pytest.raises(InvalidParameter):
        prepare_initial(Cat(ParityKind.ODD, alpha=0.0), basis)
    # even vacuum is a fine state
    psi = prepare_initial(Cat(ParityKind.EVEN, alpha=0.0), basis)
    assert abs(psi.amplitudes[0]) == 1.0


def test_cat_parity_selects_photon_sectors():
    basis = build_basis(2, minimum_truncation(1.0))
    odd = prepare_initial(Cat(ParityKind.ODD, alpha=1.0), basis)
    occ = basis.occupations[:, 0]
    assert np.allclose(odd.amplitudes[occ % 2 == 0], 0.0)
    even = prepare_initial(Cat(ParityKind.EVEN, alpha=1.0), basis)
    assert np.allclose(even.amplitudes[occ % 2 == 1], 0.0)


# --- state containers ---------------------------------------------------------

def test_pure_state_validation():
    basis = build_basis(2, 1)
    with pytest.raises(InvalidParameter):
        PureState(amplitudes=np.array([1.0, 1.0, 0.0], dtype=complex), basis=basis)
    with pytest.raises(DimensionMismatch):
        PureState(amplitudes=np.array([1.0, 0.0], dtype=complex), basis=basis)


def test_pure_state_refuses_nan():
    with pytest.raises(InvalidParameter):
        PureState(np.array([np.nan, 0, 0], dtype=complex), build_basis(2, 1))


def test_mixed_state_validation():
    basis = build_basis(2, 1)
    eye = np.eye(3, dtype=complex) / 3.0
    MixedState(matrix=eye, basis=basis)
    skew = eye.copy()
    skew[0, 1] = 0.2
    with pytest.raises(InvalidParameter):
        MixedState(matrix=skew, basis=basis)
    with pytest.raises(InvalidParameter):
        MixedState(matrix=2.0 * eye, basis=basis)
    with pytest.raises(InvalidParameter):
        MixedState(matrix=np.diag([1.1, -0.1, 0.0]).astype(complex), basis=basis)


@pytest.mark.parametrize("diagonal, accepts", [
    ([0.5, 0.3, 0.2], True), ([1.1, -0.1, 0.0], False)])
def test_mixed_state_leaves_the_callers_matrix_unchanged(diagonal, accepts):
    # off-diagonal coherences make the lower and upper triangles differ
    mat = np.diag(diagonal).astype(complex)
    mat[0, 1], mat[1, 0] = 0.1 + 0.05j, 0.1 - 0.05j
    before = mat.copy()
    if accepts:
        state = MixedState(mat, build_basis(2, 1))
        assert not state.matrix.flags.writeable
        assert not np.shares_memory(state.matrix, mat)
    else:
        with pytest.raises(InvalidParameter, match="negative eigenvalue"):
            MixedState(mat, build_basis(2, 1))
    assert mat.tobytes() == before.tobytes()
    assert mat.flags.writeable


def test_pure_state_leaves_the_callers_amplitudes_unchanged():
    amp = np.array([0.6, 0.8j, 0.0, 0.0])
    state = PureState(amp, build_basis(3, 1))
    assert not state.amplitudes.flags.writeable
    assert not np.shares_memory(state.amplitudes, amp)
    assert amp.flags.writeable
    # the oracle's own rows are read-only already, and taken uncopied
    ham = build_hamiltonian(CouplingProfile.isotropic(1.0, 2), state.basis)
    first, second = unitary_trajectory(ham, state, [0.1, 0.2])
    assert first.amplitudes.base is second.amplitudes.base is not None


@pytest.mark.parametrize("skew, accepts", [
    (0.9e-10, True), (1.1e-10, False), (0.9e-10j, True), (1.1e-10j, False),
    # |0.8e-10 (1 + i)| = 1.13e-10: the deviation is each entry's modulus
    (0.6e-10 * (1 + 1j), True), (0.8e-10 * (1 + 1j), False), (np.nan, False),
])
def test_mixed_state_hermitian_check_is_sharp(skew, accepts):
    basis = build_basis(2, 1)
    mat = np.eye(3, dtype=complex) / 3.0
    mat[0, 1] = skew
    if accepts:
        MixedState(mat, basis)
    else:
        with pytest.raises(InvalidParameter, match="not Hermitian"):
            MixedState(mat, basis)


def _with_lowest_eigenvalue(dim: int, lowest: float, seed: int) -> np.ndarray:
    """A random Hermitian unit-trace matrix whose smallest eigenvalue is
    lowest: the other eigenvalues share 1 - lowest and each exceeds it."""
    rng = np.random.default_rng(seed)
    rest = rng.uniform(0.1, 1.0, dim - 1)
    eigenvalues = np.concatenate([[lowest], rest * (1.0 - lowest) / rest.sum()])
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    mat = (q * eigenvalues) @ q.conj().T
    return 0.5 * (mat + mat.conj().T)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(dim=st.integers(3, 13), seed=st.integers(0, 2**32 - 1),
       lowest=st.one_of(st.floats(-0.99e-8, 0.0), st.floats(-0.5, -1.01e-8)))
def test_mixed_state_positivity_matches_eigvalsh(dim, seed, lowest):
    # the Cholesky test of rho + 1e-8 I and eigvalsh can disagree only within
    # rounding of lambda_min = -1e-8; the draws stay 1e-10 away from it
    mat = _with_lowest_eigenvalue(dim, lowest, seed)
    accepts = lowest >= -1e-8
    assert (float(np.linalg.eigvalsh(mat).min()) >= -1e-8) == accepts
    basis = build_basis(dim - 1, 1)
    if accepts:
        MixedState(mat, basis)
    else:
        with pytest.raises(InvalidParameter, match="negative eigenvalue"):
            MixedState(mat, basis)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
def test_mixed_state_refuses_nan():
    basis = build_basis(2, 1)
    for bad in (np.nan, np.inf):
        mat = np.eye(3, dtype=complex) / 3.0
        mat[1, 1] = bad
        with pytest.raises(InvalidParameter):
            MixedState(matrix=mat, basis=basis)


# --- unitary evolution ---------------------------------------------------------

def test_evolution_preserves_norm_and_sector_weights():
    params = SystemParams(n_crystallites=2, intensity=1.0, parity=ParityKind.ODD)
    basis = build_basis(3, minimum_truncation(1.0))
    ham = build_hamiltonian(CouplingProfile.from_params(params), basis)
    psi0 = _cat_state(params, basis)

    def sector_weights(psi):
        probs = np.abs(psi.amplitudes) ** 2
        return [probs[basis.sector_offsets[k]:basis.sector_offsets[k + 1]].sum()
                for k in range(basis.max_total + 1)]

    before = sector_weights(psi0)
    psi = evolve_unitary(ham, psi0, params.time_from_gt(1.3))
    assert math.isclose(float(np.vdot(psi.amplitudes, psi.amplitudes).real), 1.0,
                        abs_tol=1e-12)
    np.testing.assert_allclose(sector_weights(psi), before, atol=1e-12)


def test_unitary_trajectory_matches_dense_expm():
    profile = CouplingProfile(couplings=(1.0, 2.5))
    basis = build_basis(3, 3)
    hamiltonian = _dense_hamiltonian(profile, basis)
    ham = build_hamiltonian(profile, basis)
    rng = np.random.default_rng(5)
    amps = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
    psi0 = PureState(amps / np.linalg.norm(amps), basis)
    times = [0.0, 0.3, 1.7, 5.0]
    states = unitary_trajectory(ham, psi0, times)
    assert len(states) == len(times)
    for t, psi in zip(times, states):
        exact = scipy.linalg.expm(-1j * hamiltonian * t) @ psi0.amplitudes
        np.testing.assert_allclose(psi.amplitudes, exact, rtol=0, atol=1e-14)
        alone = evolve_unitary(ham, psi0, t)
        np.testing.assert_allclose(psi.amplitudes, alone.amplitudes, rtol=0,
                                   atol=1e-15)


@pytest.mark.parametrize("parity", list(ParityKind))
def test_unitary_trajectory_matches_sector_spectra_for_anisotropic_cat(parity):
    # a cat with a complex field phase under five unequal couplings, against
    # V exp(-i lam t) V^T psi0 from the dense spectrum of every sector
    params = SystemParams(n_crystallites=5, intensity=0.1, parity=parity,
                          field_phase=0.7)
    basis = build_basis(6, minimum_truncation(params.intensity))
    ham = build_hamiltonian(CouplingProfile(couplings=(1.0, 0.4, 2.2, 0.7, 1.5)), basis)
    psi0 = _cat_state(params, basis)
    times = [0.0, 0.4, 1.3, 2.9]
    spectra = ham.sector_eigensystems()
    for t, psi in zip(times, unitary_trajectory(ham, psi0, times)):
        exact = np.zeros(basis.dimension, dtype=complex)
        for s, (lam, vec) in zip(basis.sectors, spectra):
            exact[s] = vec @ (np.exp(-1j * lam * t) * (vec.T @ psi0.amplitudes[s]))
        np.testing.assert_allclose(psi.amplitudes, exact, rtol=0, atol=1e-13)


def _random_state(basis: FockBasis, sectors, seed: int) -> PureState:
    rng = np.random.default_rng(seed)
    amps = np.zeros(basis.dimension, dtype=complex)
    for k in sectors:
        size = basis.sectors[k].stop - basis.sectors[k].start
        amps[basis.sectors[k]] = rng.normal(size=size) + 1j * rng.normal(size=size)
    return PureState(amps / np.linalg.norm(amps), basis)


def test_unitary_trajectory_leaves_unpopulated_sectors_empty():
    profile = CouplingProfile(couplings=(1.0, 2.5))
    basis = build_basis(3, 4)
    hamiltonian = _dense_hamiltonian(profile, basis)
    psi0 = _random_state(basis, (1, 3), seed=11)
    times = [0.0, 0.8, 3.1]
    states = unitary_trajectory(build_hamiltonian(profile, basis), psi0, times)
    for t, psi in zip(times, states):
        exact = scipy.linalg.expm(-1j * hamiltonian * t) @ psi0.amplitudes
        np.testing.assert_allclose(psi.amplitudes, exact, rtol=0, atol=1e-14)
        for k in (0, 2, 4):
            assert not psi.amplitudes[basis.sectors[k]].any()


def test_unitary_trajectory_of_no_times_is_empty():
    basis = build_basis(3, 2)
    ham = build_hamiltonian(CouplingProfile.isotropic(1.0, 2), basis)
    assert unitary_trajectory(ham, prepare_initial(SinglePhoton(), basis), []) == []


def test_unitary_trajectory_steps_a_sector_whose_basis_does_not_close(monkeypatch):
    # with room for two Krylov vectors, every wider sector goes from sample
    # to sample through _expm_step; the samples come back in their order.
    # Stepping up to t = 5 agrees with expm to 1.0e-14
    monkeypatch.setattr(fockspace, "_KRYLOV_VECTORS", 2)
    profile = CouplingProfile(couplings=(1.0, 2.5))
    basis = build_basis(3, 3)
    hamiltonian = _dense_hamiltonian(profile, basis)
    psi0 = _random_state(basis, range(4), seed=5)
    times = [1.7, 0.0, 5.0, 0.3, 1.7]
    states = unitary_trajectory(build_hamiltonian(profile, basis), psi0, times)
    for t, psi in zip(times, states):
        exact = scipy.linalg.expm(-1j * hamiltonian * t) @ psi0.amplitudes
        np.testing.assert_allclose(psi.amplitudes, exact, rtol=0, atol=3e-14)


def test_unitary_trajectory_keeps_high_sectors_of_a_large_cat_exact():
    # at N=2, |alpha|^2 = 12 rounding keeps the top sectors' Krylov bases
    # from closing, so they take the _expm_step path. Relative to each
    # sector's weight both paths agree with its dense spectrum to 1.7e-14
    params = SystemParams(n_crystallites=2, intensity=12.0, parity=ParityKind.EVEN)
    basis = build_basis(3, minimum_truncation(params.intensity))
    ham = build_hamiltonian(CouplingProfile.from_params(params), basis)
    psi0 = _cat_state(params, basis)
    times = [0.6, 2.2]
    states = unitary_trajectory(ham, psi0, times)
    full = ham.to_csr()
    paths = []
    for k in range(30, basis.max_total + 1, 2):
        s = basis.sectors[k]
        weight = np.linalg.norm(psi0.amplitudes[s])
        paths.append(fockspace._krylov_basis(full[s, s], psi0.amplitudes[s] / weight))
        lam, vec = np.linalg.eigh(full[s, s].toarray())
        for t, psi in zip(times, states):
            exact = vec @ (np.exp(-1j * lam * t) * (vec.T @ psi0.amplitudes[s]))
            np.testing.assert_allclose(psi.amplitudes[s] / weight, exact / weight,
                                       rtol=0, atol=5e-14)
    assert paths[-1] is None and paths[0] is not None


def test_cat_suite_runs_without_dense_sector_eigensolves(monkeypatch):
    def refuse(*_args):
        raise AssertionError("dense eigensolve of a sector")

    eigh = np.linalg.eigh

    def two_qubits_or_lanczos(a, *args, **kwargs):
        # above 4 x 4, only a Lanczos T: real, symmetric, tridiagonal and at
        # most _KRYLOV_VECTORS rows
        a = np.asarray(a)
        rows = a.shape[-1]
        if rows > 4 and not (np.isrealobj(a) and a.ndim == 2
                             and rows <= fockspace._KRYLOV_VECTORS
                             and np.array_equal(a, a.T) and not np.triu(a, 2).any()):
            refuse()
        return eigh(a, *args, **kwargs)

    # the suite's N = 5 basis: every sector block above 4 states is refused
    basis = build_basis(6, minimum_truncation(0.25))
    full = build_hamiltonian(CouplingProfile.isotropic(1.0, 5), basis).to_csr()
    large = [s for s in basis.sectors if s.stop - s.start > 4]
    assert len(large) == 9
    for s in large:
        with pytest.raises(AssertionError, match="dense eigensolve"):
            two_qubits_or_lanczos(full[s, s].toarray())
    monkeypatch.setattr(SparseHermitian, "sector_eigensystems", refuse)
    monkeypatch.setattr(np.linalg, "eigh", two_qubits_or_lanczos)
    result = cat_suite(n=5, intensities=(0.25,), n_times=2)
    assert [case.status for case in result.cases] == ["pass"] * 4


def test_vacuum_is_stationary():
    basis = build_basis(3, 2)
    ham = build_hamiltonian(CouplingProfile.isotropic(1.0, 2), basis)
    vac = PureState(amplitudes=np.eye(basis.dimension, dtype=complex)[0], basis=basis)
    out = evolve_unitary(ham, vac, 2.7)
    np.testing.assert_allclose(out.amplitudes, vac.amplitudes, atol=1e-14)


def test_truncation_insensitivity_of_pair_concurrence():
    params = SystemParams(n_crystallites=2, intensity=1.0, parity=ParityKind.ODD)
    gt = 1.1
    results = []
    for extra in (0, 14):
        basis = build_basis(3, minimum_truncation(1.0) + extra)
        ham = build_hamiltonian(CouplingProfile.from_params(params), basis)
        psi = evolve_unitary(ham, _cat_state(params, basis), params.time_from_gt(gt))
        mu = isotropic_amplitudes(params, gt).v * params.alpha
        rho = reduce_to_qubit_pair(psi, PairIndex(1, 2), TildeBasis(mu=mu))
        results.append(concurrence(rho))
    assert abs(results[0] - results[1]) < 1e-8


# --- pair reduction -------------------------------------------------------------

def test_reduced_single_photon_pair_matches_closed_density():
    profile = CouplingProfile(couplings=(3.0, 4.0, 5.0))
    basis = build_basis(4, 1)
    ham = build_hamiltonian(profile, basis)
    psi0 = prepare_initial(SinglePhoton(), basis)
    rng = np.random.default_rng(61)
    for gt in rng.uniform(0.1, 2.0 * math.pi, size=12):
        psi = evolve_unitary(ham, psi0, float(gt) / profile.collective_rate)
        for pair in (PairIndex(1, 2), PairIndex(2, 3), PairIndex(1, 3)):
            reduced = reduce_to_qubit_pair(psi, pair, NumberBasis())
            closed = single_photon_pair_density(profile, float(gt), pair)
            np.testing.assert_allclose(reduced.entries, closed.entries, atol=1e-10)


def test_tilde_reduction_matches_closed_concurrence():
    params = SystemParams(n_crystallites=2, intensity=1.0, parity=ParityKind.ODD)
    basis = build_basis(3, minimum_truncation(1.0))
    ham = build_hamiltonian(CouplingProfile.from_params(params), basis)
    gt = 0.9
    psi = evolve_unitary(ham, _cat_state(params, basis), params.time_from_gt(gt))
    mu = isotropic_amplitudes(params, gt).v * params.alpha
    rho = reduce_to_qubit_pair(psi, PairIndex(1, 2), TildeBasis(mu=mu))
    assert abs(concurrence(rho) - coherent_concurrence(params, gt)) < 1e-9


def test_tilde_reduction_guards():
    params = SystemParams(n_crystallites=2, intensity=1.0, parity=ParityKind.ODD)
    basis = build_basis(3, minimum_truncation(1.0))
    ham = build_hamiltonian(CouplingProfile.from_params(params), basis)
    gt = 0.9
    psi = evolve_unitary(ham, _cat_state(params, basis), params.time_from_gt(gt))
    mu = isotropic_amplitudes(params, gt).v * params.alpha
    with pytest.raises(LeakageError):
        reduce_to_qubit_pair(psi, PairIndex(1, 2), TildeBasis(mu=0.5 * mu))
    with pytest.raises(DegenerateBasis):
        reduce_to_qubit_pair(psi, PairIndex(1, 2), TildeBasis(mu=1e-13))


def test_pair_reduction_refuses_negative_weight_instead_of_clamping():
    # MixedState admits eigenvalues down to -1e-8, the pair density only down
    # to -1e-10: a weight between the two is refused, not lifted to zero
    basis = build_basis(3, 1)
    diag = np.zeros(basis.dimension)
    diag[basis.rank([0, 0, 0])] = 1.0 + 5e-9
    diag[basis.rank([0, 1, 0])] = -5e-9
    rho = MixedState(np.diag(diag).astype(complex), basis)
    with pytest.raises(NotADensityMatrix):
        reduce_to_qubit_pair(rho, PairIndex(1, 2), NumberBasis())


def _reference_reduction(matrix, basis: FockBasis, pair: PairIndex, kets):
    """kets^dagger Tr_rest(rho) kets over its trace: the partial trace summed
    state pair by state pair within groups keyed by the rest occupations."""
    span = basis.max_total + 1
    groups: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for i, occ in enumerate(basis.occupations.tolist()):
        rest = tuple(v for k, v in enumerate(occ) if k not in (pair.m, pair.n))
        groups.setdefault(rest, []).append((i, occ[pair.m] * span + occ[pair.n]))
    red = np.zeros((span * span, span * span), dtype=complex)
    for members in groups.values():
        for i, p in members:
            for j, q in members:
                red[p, q] += matrix[i, j]
    mat = kets.conj().T @ red @ kets
    return mat / np.trace(mat).real


def _cat_kets(mu: complex, span: int) -> np.ndarray:
    """Even and odd cats of amplitude mu, normalised on levels 0..span-1, as
    the product basis of a pair."""
    levels = np.arange(span)
    coh = np.array([mu ** n / math.sqrt(math.factorial(n)) for n in levels])
    b = np.column_stack([np.where(levels % 2 == 0, coh, 0.0),
                         np.where(levels % 2 == 1, coh, 0.0)])
    b /= np.linalg.norm(b, axis=0)
    return np.kron(b, b)


def _mix(states: list[PureState], p: float) -> MixedState:
    first, second = (np.outer(s.amplitudes, s.amplitudes.conj()) for s in states)
    return MixedState(p * first + (1.0 - p) * second, states[0].basis)


def test_pair_reduction_matches_reference_partial_trace():
    # anisotropic profile; modes 1 and 2 share a coupling, so their cat
    # amplitudes agree and the pair stays in one tilde basis
    profile = CouplingProfile(couplings=(1.0, 1.0, 2.0))
    t = 0.7
    modes = np.zeros((4, 4))
    modes[0, 1:] = modes[1:, 0] = profile.couplings
    transfer = scipy.linalg.expm(-1j * modes * t)[:, 0]
    alpha = math.sqrt(0.05)
    basis = build_basis(4, minimum_truncation(0.05))
    span = basis.max_total + 1
    ham = build_hamiltonian(profile, basis)
    cats = [unitary_trajectory(ham, prepare_initial(Cat(p, alpha), basis), [t])[0]
            for p in (ParityKind.EVEN, ParityKind.ODD)]
    # vacuum plus one excitation, in levels {0, 1} of every pair
    low = np.zeros(basis.dimension, dtype=complex)
    low[:basis.sector_offsets[2]] = [0.6, 0.3j, -0.2, 0.5, 0.1 + 0.4j]
    low = unitary_trajectory(ham, PureState(low / np.linalg.norm(low), basis), [t])[0]
    other = unitary_trajectory(ham, prepare_initial(SinglePhoton(), basis), [t])[0]
    number = np.eye(span * span)[:, [0, 1, span, span + 1]]
    cases = [
        (cats[1], PairIndex(1, 2), TildeBasis(mu=alpha * transfer[1])),
        (_mix(cats, 0.3), PairIndex(1, 2), TildeBasis(mu=alpha * transfer[1])),
        (low, PairIndex(1, 3), NumberBasis()),
        (_mix([low, other], 0.6), PairIndex(2, 3), NumberBasis()),
    ]
    for state, pair, qubits in cases:
        if isinstance(qubits, TildeBasis):
            kets = _cat_kets(qubits.mu, span)
        else:
            kets = number
        matrix = (state.matrix if isinstance(state, MixedState)
                  else np.outer(state.amplitudes, state.amplitudes.conj()))
        expected = _reference_reduction(matrix, basis, pair, kets)
        reduced = reduce_to_qubit_pair(state, pair, qubits)
        np.testing.assert_allclose(reduced.entries, expected, rtol=0, atol=1e-13)


def _bits(a) -> np.ndarray:
    """The raw 64-bit words of a float or complex array: equal words mean
    equal values down to the sign of zero."""
    return np.ascontiguousarray(a).view(np.int64)


def test_coherent_levels_keep_the_scalar_recursion_bits():
    # the one-amplitude loop the vectorised build replaced is the reference;
    # purely real and imaginary amplitudes put signed zeros in the levels
    alphas = [0.5, 0.3 - 0.2j, -0.7j, 1e-3 + 2.1j, -1.3 + 0.0j, complex(0.0, -0.0)]
    span = 20
    expected = np.zeros((span, len(alphas)), dtype=complex)
    for k, alpha in enumerate(alphas):
        expected[0, k] = math.exp(-abs(alpha) ** 2 / 2.0)
        for n in range(1, span):
            expected[n, k] = expected[n - 1, k] * alpha / math.sqrt(n)
    levels = fockspace._coherent_levels(alphas, span)
    np.testing.assert_array_equal(_bits(levels), _bits(expected))
    for k, alpha in enumerate(alphas):
        one = fockspace._coherent_levels([alpha], span)[:, 0]
        np.testing.assert_array_equal(_bits(one), _bits(expected[:, k]))


def _chunked_trajectory(kind, times, n: int = 3, max_total: int = 14):
    """A trajectory on a basis whose dense psi takes over a third of the
    1 MiB chunk, so the stacked reduction runs it in chunks of at most two."""
    basis = build_basis(n + 1, max_total)
    _, _, n_groups = basis.pair_plan(PairIndex(1, 2))
    assert 3 * (max_total + 1) ** 2 * n_groups * 16 > 2 ** 20
    ham = build_hamiltonian(CouplingProfile.isotropic(1.0, n), basis)
    return unitary_trajectory(ham, prepare_initial(kind, basis), times)


def _cat_trajectory():
    """Seven samples of an odd N=3 cat with their tilde bases, chunked."""
    params = SystemParams(n_crystallites=3, intensity=1.0, parity=ParityKind.ODD)
    gts = np.linspace(0.3, 2.9, 7).tolist()
    states = _chunked_trajectory(Cat(ParityKind.ODD, params.alpha),
                                 [params.time_from_gt(gt) for gt in gts])
    return states, [TildeBasis(isotropic_amplitudes(params, gt).v * params.alpha)
                    for gt in gts]


@pytest.mark.parametrize("pair", [PairIndex(1, 2), PairIndex(2, 3)])
def test_stacked_number_reduction_matches_one_call_per_sample(pair):
    # a single photon never leaves levels {0, 1}, whatever the cutoff
    states = _chunked_trajectory(SinglePhoton(), np.linspace(0.1, 3.0, 7))
    bases = [NumberBasis()] * len(states)
    rho, degenerate = reduce_to_qubit_pair(states, pair, bases)
    assert not degenerate.any() and rho.entries.shape == (len(states), 4, 4)
    assert rho.basis_tag == tuple(bases)
    one = [reduce_to_qubit_pair(psi, pair, NumberBasis()).entries for psi in states]
    assert np.array_equal(_bits(rho.entries), _bits(np.array(one)))
    values = concurrence(rho)
    assert np.array_equal(values, [concurrence(m) for m in one])


@pytest.mark.parametrize("pair", [PairIndex(1, 2), PairIndex(1, 3)])
def test_stacked_tilde_reduction_matches_one_call_per_sample(pair):
    states, bases = _cat_trajectory()
    rho, degenerate = reduce_to_qubit_pair(states, pair, bases)
    assert not degenerate.any()
    one = [reduce_to_qubit_pair(psi, pair, q).entries for psi, q in zip(states, bases)]
    assert np.array_equal(_bits(rho.entries), _bits(np.array(one)))
    assert np.array_equal(concurrence(rho), [concurrence(m) for m in one])


def test_stacked_reduction_leaves_degenerate_samples_out():
    states, bases = _cat_trajectory()
    bases[3] = TildeBasis(mu=1e-13)
    rho, degenerate = reduce_to_qubit_pair(states, PairIndex(1, 2), bases)
    assert degenerate.tolist() == [False] * 3 + [True] + [False] * 3
    kept = [k for k in range(len(states)) if k != 3]
    one = [reduce_to_qubit_pair(states[k], PairIndex(1, 2), bases[k]).entries
           for k in kept]
    assert np.array_equal(_bits(rho.entries), _bits(np.array(one)))
    assert rho.basis_tag == tuple(bases[k] for k in kept)


def test_one_leaking_sample_fails_the_stack():
    states, bases = _cat_trajectory()
    reduce_to_qubit_pair(states, PairIndex(1, 2), bases)
    bases[5] = TildeBasis(mu=0.5 * bases[5].mu)
    with pytest.raises(LeakageError):
        reduce_to_qubit_pair(states, PairIndex(1, 2), bases)


def test_stacked_mixed_reduction_matches_one_call_per_sample():
    params = SystemParams(n_crystallites=2, intensity=1.0, parity=ParityKind.ODD)
    basis = build_basis(3, minimum_truncation(1.0))
    ham = build_hamiltonian(CouplingProfile.from_params(params), basis)
    gts = [0.4, 0.9, 2.0]
    states = [_as_mixed(psi) for psi in unitary_trajectory(
        ham, _cat_state(params, basis), [params.time_from_gt(gt) for gt in gts])]
    bases = [TildeBasis(isotropic_amplitudes(params, gt).v * params.alpha) for gt in gts]
    rho, _ = reduce_to_qubit_pair(states, PairIndex(1, 2), bases)
    one = [reduce_to_qubit_pair(s, PairIndex(1, 2), q).entries for s, q in zip(states, bases)]
    assert np.array_equal(_bits(rho.entries), _bits(np.array(one)))


@pytest.mark.parametrize("n_modes, max_total", [(3, 5), (4, 4), (6, 3), (7, 2)])
def test_pair_plan_groups_rank_the_other_modes_lexicographically(n_modes, max_total):
    # the groups np.unique gives the rows of the other modes' occupations
    basis = build_basis(n_modes, max_total)
    for m, n in itertools.combinations(range(1, n_modes), 2):
        _, group, n_groups = basis.pair_plan(PairIndex(m, n))
        rows, expected = np.unique(np.delete(basis.occupations, (m, n), axis=1),
                                   axis=0, return_inverse=True)
        np.testing.assert_array_equal(group, expected.ravel())
        assert n_groups == len(rows)


def test_pair_reduction_bounds_check():
    basis = build_basis(3, 1)
    psi = prepare_initial(SinglePhoton(), basis)
    with pytest.raises(InvalidParameter):
        reduce_to_qubit_pair(psi, PairIndex(1, 3), NumberBasis())


# --- observables ------------------------------------------------------------------

def test_mean_photon_tracks_cavity_population():
    params = SystemParams(n_crystallites=3)
    basis = build_basis(4, 1)
    ham = build_hamiltonian(CouplingProfile.from_params(params), basis)
    psi0 = prepare_initial(SinglePhoton(), basis)
    for gt in (0.0, 0.4, math.pi / 2.0, 2.2):
        psi = evolve_unitary(ham, psi0, params.time_from_gt(gt))
        assert math.isclose(observable_mean_photon(psi, 0),
                            math.cos(gt) ** 2, abs_tol=1e-12)
    with pytest.raises(InvalidParameter):
        observable_mean_photon(psi0, 4)
    with pytest.raises(InvalidParameter):
        observable_mean_photon(psi0, -1)


def test_w_state_fidelity_peaks_at_quarter_period():
    params = SystemParams(n_crystallites=3)
    basis = build_basis(4, 1)
    ham = build_hamiltonian(CouplingProfile.from_params(params), basis)
    psi0 = prepare_initial(SinglePhoton(), basis)
    at_peak = evolve_unitary(ham, psi0, params.time_from_gt(math.pi / 2.0))
    assert w_state_fidelity(at_peak) >= 1.0 - 1e-10
    assert w_state_fidelity(psi0) < 1e-12


def test_total_excitation_counts_all_modes():
    basis = build_basis(3, 2)
    idx = _index(basis)[(1, 1, 0)]
    amps = np.zeros(basis.dimension, dtype=complex)
    amps[idx] = 1.0
    psi = PureState(amplitudes=amps, basis=basis)
    assert math.isclose(total_excitation(psi), 2.0, abs_tol=1e-14)


# --- lossy evolution ----------------------------------------------------------------

def test_lossless_lindblad_agrees_with_unitary():
    params = SystemParams(n_crystallites=2, decay_rate=0.0)
    basis = build_basis(3, 1)
    ham = build_hamiltonian(CouplingProfile.from_params(params), basis)
    psi0 = prepare_initial(SinglePhoton(), basis)
    t = params.time_from_gt(1.0)
    rho = evolve_lindblad(params, _as_mixed(psi0), t)
    psi = evolve_unitary(ham, psi0, t)
    np.testing.assert_allclose(rho.matrix, _as_mixed(psi).matrix, atol=1e-8)


def test_decay_drains_excitons_and_preserves_trace():
    params = SystemParams(n_crystallites=2, decay_rate=0.4)
    basis = build_basis(3, 1)
    rho0 = _as_mixed(prepare_initial(SinglePhoton(), basis))
    times = [params.time_from_gt(gt) for gt in (0.0, 0.8, 1.6, 2.4, 3.2)]
    states = lindblad_trajectory(params, rho0, times)
    excitations = [total_excitation(s) for s in states]
    assert excitations[0] == pytest.approx(1.0, abs=1e-12)
    assert all(a >= b - 1e-12 for a, b in zip(excitations, excitations[1:]))
    assert excitations[-1] < excitations[0]
    for s in states:
        assert math.isclose(float(np.trace(s.matrix).real), 1.0, abs_tol=1e-8)


def _dense_lowering(basis: FockBasis, mode: int) -> np.ndarray:
    """The lowering operator of one mode, written out densely from the
    occupation tuples alone."""
    dim = basis.dimension
    index = _index(basis)
    op = np.zeros((dim, dim))
    for state, i in index.items():
        if state[mode]:
            lowered = list(state)
            lowered[mode] -= 1
            op[index[tuple(lowered)], i] = math.sqrt(state[mode])
    return op


def _dense_hamiltonian(profile: CouplingProfile, basis: FockBasis) -> np.ndarray:
    a = _dense_lowering(basis, 0)
    # a b_j^dagger as (a^dagger b_j)^dagger: b_j^dagger alone leaves the cutoff
    hops = [a.T @ _dense_lowering(basis, j) for j in range(1, basis.n_modes)]
    return sum(g * (hop + hop.T) for g, hop in zip(profile.couplings, hops))


def _dense_lindblad_generator(params: SystemParams, basis: FockBasis) -> np.ndarray:
    """The full row-major vec generator, written out densely from the
    occupation tuples alone."""
    dim = basis.dimension
    excitons = [_dense_lowering(basis, j) for j in range(1, basis.n_modes)]
    h_eff = _dense_hamiltonian(CouplingProfile.from_params(params), basis)
    h_eff = h_eff - 0.5j * params.decay_rate * sum(b.T @ b for b in excitons)
    eye = np.eye(dim)
    jumps = params.decay_rate * sum(np.kron(b, b) for b in excitons)
    return -1j * (np.kron(h_eff, eye) - np.kron(eye, h_eff.conj())) + jumps


def _cavity_state(basis: FockBasis, weights) -> MixedState:
    amps = np.zeros(basis.dimension, dtype=complex)
    zeros = (0,) * (basis.n_modes - 1)
    index = _index(basis)
    for n, w in enumerate(weights):
        amps[index[(n,) + zeros]] = w
    return _as_mixed(PureState(amps / np.linalg.norm(amps), basis))


def test_lindblad_matches_dense_expm_of_full_generator():
    params = SystemParams(n_crystallites=2, decay_rate=0.3)
    basis = build_basis(3, 2)
    generator = _dense_lindblad_generator(params, basis)
    alpha = 0.6 + 0.3j
    coherent = [alpha ** n / math.sqrt(math.factorial(n)) for n in range(3)]
    even_cat = [1.0, 0.0, 0.8 ** 2 / math.sqrt(2.0)]
    times = [0.0, 0.4, 1.3, 2.0]
    # the coherent state populates every k - l, the even cat only even ones
    for rho0 in (_cavity_state(basis, coherent), _cavity_state(basis, even_cat)):
        states = lindblad_trajectory(params, rho0, times)
        for t, state in zip(times, states):
            exact = scipy.linalg.expm(generator * t) @ rho0.matrix.ravel()
            np.testing.assert_allclose(
                state.matrix, exact.reshape(rho0.matrix.shape), rtol=0, atol=1e-12
            )


def test_lindblad_chain_cache_is_keyed_by_gamma_and_couplings():
    # a later run on the same basis must not reuse generators built for
    # another gamma or coupling
    weights = [1.0, 0.6 + 0.3j, 0.2, 0.1j]
    times = [0.0, 0.4, 1.3]
    first = SystemParams(n_crystallites=2, decay_rate=0.13)
    for other in (SystemParams(n_crystallites=2, decay_rate=0.3),
                  SystemParams(n_crystallites=2, coupling=1.7, decay_rate=0.13)):
        shared = build_basis(3, 3)
        before = lindblad_trajectory(first, _cavity_state(shared, weights), times)
        reused = lindblad_trajectory(other, _cavity_state(shared, weights), times)
        fresh_basis = build_basis(3, 3)
        fresh = lindblad_trajectory(other, _cavity_state(fresh_basis, weights), times)
        assert not np.allclose(before[-1].matrix, reused[-1].matrix, atol=1e-6)
        for a, b in zip(reused, fresh):
            assert np.array_equal(a.matrix, b.matrix)


def test_cached_chain_leading_block_is_the_chain_to_its_top():
    # a state whose chain stops below the cutoff propagates on the leading
    # principal block of the cached chain: the same matrix, entry order and
    # all, that the chain built up to that top would be
    params = SystemParams(n_crystallites=2, decay_rate=0.3)
    basis = build_basis(3, 4)
    h_blocks, jumps = fockspace._lindblad_blocks(params, basis)
    for d in range(basis.max_total + 1):
        full = fockspace._cached_chain(params, basis, d)
        for top in range(d, basis.max_total + 1):
            own = fockspace._chain_generator(h_blocks, jumps, 0.3, d, top)
            block = full[:own.shape[0], :own.shape[0]]
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(block, attr), getattr(own, attr))


@pytest.mark.parametrize("max_total", [3, 4])
def test_chain_generator_is_the_liouvillian_on_its_chain(max_total):
    # every chain to every top is the principal submatrix of the dense
    # row-major Liouvillian on the vec indices of rho[k, k-d], k = d..top.
    # Only loss rates on the diagonal, summed in another order, differ: by
    # at most 1.1e-16
    params = SystemParams(n_crystallites=2, decay_rate=0.3)
    basis = build_basis(3, max_total)
    liouvillian = _dense_lindblad_generator(params, basis)
    h_blocks, jumps = fockspace._lindblad_blocks(params, basis)
    at = np.arange(basis.dimension)
    sectors = basis.sectors
    for d in range(max_total + 1):
        for top in range(d, max_total + 1):
            idx = np.concatenate([
                (at[sectors[k], None] * basis.dimension + at[sectors[k - d]]).ravel()
                for k in range(d, top + 1)])
            own = fockspace._chain_generator(h_blocks, jumps, 0.3, d, top)
            np.testing.assert_allclose(own.toarray(), liouvillian[np.ix_(idx, idx)],
                                       rtol=0, atol=1e-15)


def test_expm_step_agrees_with_scipy_on_a_chain():
    # the default Lindblad suite's chain d = 1, stepped once over a short
    # span and once over its guard span, where ||tA||_1 is 299 and
    # expm_multiply picks its parameters from estimates of ||A^p||_1 that
    # the stepper does without. Measured: 2.0e-17 and 1.3e-16 on a unit
    # vector whose image peaks at 0.02; the bounds are ten times that
    params = SystemParams(n_crystallites=2, intensity=0.25, decay_rate=0.13)
    basis = build_basis(3, minimum_truncation(0.25, margin=2))
    generator = fockspace._cached_chain(params, basis, 1)
    norms = fockspace._shifted_norms(generator)
    rng = np.random.default_rng(7)
    v = rng.normal(size=generator.shape[0]) + 1j * rng.normal(size=generator.shape[0])
    v /= np.linalg.norm(v)
    short = params.time_from_gt(0.2)
    guard = params.time_from_gt(24.5 * 4.0 * math.pi / 25.0)
    for t, bound in ((short, 2e-16), (guard, 1.4e-15)):
        exact = scipy.sparse.linalg.expm_multiply(generator * t, v)
        step = fockspace._expm_step(generator, norms, v, t)
        np.testing.assert_allclose(step, exact, rtol=0, atol=bound)


def test_lindblad_is_independent_of_the_global_rng():
    # no path of the stepper may draw from numpy's global RNG, or change
    # its state: eight samples give the guard one long span, where scipy's
    # expm_multiply would estimate norms from random draws
    params = SystemParams(
        n_crystallites=2, intensity=0.25, decay_rate=0.13, parity=ParityKind.EVEN
    )
    basis = build_basis(3, minimum_truncation(0.25, margin=2))
    rho0 = _as_mixed(_cat_state(params, basis))
    step = 4.0 * math.pi / 25.0
    times = [params.time_from_gt((k + 0.5) * step) for k in range(8)]
    runs = []
    for seed in (1, 2):
        np.random.seed(seed)
        before = np.random.get_state()
        runs.append(lindblad_trajectory(params, rho0, times))
        after = np.random.get_state()
        assert np.array_equal(before[1], after[1]) and before[2:] == after[2:]
    for first, second in zip(*runs):
        assert np.array_equal(first.matrix, second.matrix)


def test_lindblad_guards(monkeypatch):
    params = SystemParams(
        n_crystallites=2, intensity=0.25, decay_rate=0.13, parity=ParityKind.ODD
    )
    basis = build_basis(3, minimum_truncation(0.25, margin=2))
    rho0 = _as_mixed(_cat_state(params, basis))
    times = [params.time_from_gt(gt) for gt in (0.5, 1.0)]
    exact = fockspace._expm_step
    # the guard's limit, 1e-8, sits between the two shifts
    for shift, unstable in ((1e-6, True), (1e-9, False)):
        calls = []

        def perturbed(a, norms, v, t, shift=shift, calls=calls):
            # shift the vacuum population after the first interval; the
            # vacuum is stationary, so the last sample carries the shift
            out = exact(a, norms, v, t)
            if not calls:
                out[0] += shift
            calls.append(1)
            return out

        monkeypatch.setattr(fockspace, "_expm_step", perturbed)
        if unstable:
            with pytest.raises(StepSizeUnstable) as info:
                lindblad_trajectory(params, rho0, times)
            assert info.value.drift == pytest.approx(shift, rel=1e-6)
        else:
            lindblad_trajectory(params, rho0, times)
    monkeypatch.undo()
    with pytest.raises(InvalidParameter):
        lindblad_trajectory(params, rho0, [0.5, 0.2])
    with pytest.raises(InvalidParameter):
        lindblad_trajectory(params, rho0, [-0.1, 0.2])

    big = SystemParams(n_crystallites=3, intensity=1.0, decay_rate=0.13)
    wide = build_basis(4, 9)
    flat = MixedState(
        matrix=np.eye(wide.dimension, dtype=complex) / wide.dimension, basis=wide
    )
    with pytest.raises(CapacityExceeded):
        lindblad_trajectory(big, flat, [0.0, 0.1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_lindblad_refuses_non_finite_times(bad, monkeypatch):
    params = SystemParams(n_crystallites=2, intensity=0.25, decay_rate=0.13)
    basis = build_basis(3, minimum_truncation(0.25, margin=2))
    rho0 = _as_mixed(_cat_state(params, basis))
    # refused before any chain is built or stepped
    monkeypatch.setattr(fockspace, "_cached_chain", None)
    for times in ([bad], [0.1, bad]):
        with pytest.raises(InvalidParameter) as info:
            lindblad_trajectory(params, rho0, times)
        assert info.value.name == "times"


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("krylov_vectors", [64, 2])
def test_unitary_refuses_non_finite_times(bad, krylov_vectors, monkeypatch):
    # with room for two Krylov vectors the wider sectors would take the
    # _expm_step fallback; both paths refuse before any evolution.
    # Negative times stay legal
    monkeypatch.setattr(fockspace, "_KRYLOV_VECTORS", krylov_vectors)
    basis = build_basis(3, 3)
    ham = build_hamiltonian(CouplingProfile(couplings=(1.0, 2.5)), basis)
    psi0 = _random_state(basis, range(4), seed=5)
    assert len(unitary_trajectory(ham, psi0, [-1.0, 0.5])) == 2
    for times in ([bad], [0.5, -bad]):
        with pytest.raises(InvalidParameter) as info:
            unitary_trajectory(ham, psi0, times)
        assert info.value.name == "times"


def test_taylor_parameters_pick_the_cheapest_admissible_pair():
    # every span, short or long, takes the (m*, s) of least cost m s with
    # ||tA||_1 / s <= theta_m, the first to reach it winning; the norms run
    # across 63.36, past which condition (3.13) fails and scipy's
    # expm_multiply picks by another rule
    thetas = list(fockspace._THETA.items())
    assert fockspace._taylor_parameters(0.0, 1.0) == (0, 1)
    assert fockspace._taylor_parameters(5.0, 0.0) == (0, 1)
    norms = [1e-3, 0.5, 4.85, 9.9, 9.900001, 63.0, 63.36, 63.4, 64.0, 298.6,
             1e3, 1.2e4, *np.geomspace(1e-2, 1e4, 60)]
    for norm in norms:
        for t in (1.0, -1.0):
            m_star, s = fockspace._taylor_parameters(norm, t)
            assert s >= 1 and norm / s <= fockspace._THETA[m_star]
            costs = [m * math.ceil(norm / theta) for m, theta in thetas]
            assert m_star * s == min(costs)
            assert m_star == thetas[costs.index(min(costs))][0]
