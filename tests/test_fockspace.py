"""Truncated number-basis machinery: basis enumeration, Hamiltonian blocks,
state preparation, unitary and lossy propagation, pair reduction."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cavshare import (
    CapacityExceeded,
    Cat,
    Coherent,
    CouplingProfile,
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
    TwoQubitDensity,
    coherent_concurrence,
    concurrence,
    isotropic_amplitudes,
    single_photon_pair_density,
)
from cavshare import fockspace
from cavshare.entanglement import check_density, coupled_blocks
from cavshare.verify import cat_suite
from cavshare.fockspace import (
    FockBasis,
    MixedState,
    PureState,
    SparseHermitian,
    build_basis,
    build_hamiltonian,
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


def _dense_mixed(matrix, basis: FockBasis) -> MixedState:
    """A dense (d, d) matrix as a MixedState on its coupled blocks."""
    mat = np.asarray(matrix, dtype=complex)
    return MixedState(basis=basis,
                      blocks=[(idx, mat[np.ix_(idx, idx)]) for idx in coupled_blocks(mat)])


def _as_mixed(psi: PureState) -> MixedState:
    return _dense_mixed(np.outer(psi.amplitudes, psi.amplitudes.conj()), psi.basis)


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


def test_basis_refuses_a_lone_mode_or_no_quanta():
    with pytest.raises(InvalidParameter, match="n_modes: need at least cavity"):
        FockBasis(1, 1)
    with pytest.raises(InvalidParameter, match="max_total: cutoff must be at least 1"):
        FockBasis(2, 0)


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
    # past |alpha|^2 ~ 1490 no cutoff is accepted: "no practical truncation"
    for bad in (-0.5, math.nan, math.inf, 2000.0):
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
    real = SparseHermitian(basis, [1], [2], [1.0 + 0.0j]).to_csr()
    assert real.dtype == np.float64
    assert real.toarray().tolist() == [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]


_OPERATOR_CASES = {
    "single_photon": (CouplingProfile.isotropic(1.0, 3), 4, 1),
    "cat": (CouplingProfile.isotropic(1.0, 3), 4, minimum_truncation(1.0)),
    "anisotropic": (CouplingProfile(couplings=(1.0, 0.4, 2.2, 0.7, 1.5)), 6,
                    minimum_truncation(0.1)),
    "lindblad": (CouplingProfile.isotropic(1.0, 2), 3,
                 minimum_truncation(0.25, margin=2)),
}


@pytest.mark.parametrize("case", list(_OPERATOR_CASES))
def test_sparse_operator_is_its_sector_blocks(monkeypatch, case):
    # each block is the whole CSR, built from the same entries as before it
    # was held as blocks, sliced at its sector, word for word; each floor is
    # _BREAKDOWN |H_k|_inf; to_csr assembles the whole one back
    profile, n_modes, max_total = _OPERATOR_CASES[case]
    entries = []

    class Recorded(SparseHermitian):
        def __init__(self, basis, rows, cols, values):
            entries.append((np.asarray(rows), np.asarray(cols), np.asarray(values)))
            super().__init__(basis, rows, cols, values)

    monkeypatch.setattr(fockspace, "SparseHermitian", Recorded)
    basis = build_basis(n_modes, max_total)
    ham = build_hamiltonian(profile, basis)
    [(rows, cols, values)] = entries
    off = rows != cols
    whole = sp.coo_matrix(
        (np.concatenate([values, values[off]]),
         (np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]]))),
        shape=(basis.dimension,) * 2).tocsr()

    def same(a, b):
        return all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in
                   ((a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr)))

    assert len(ham.blocks) == len(ham.floors) == len(basis.sectors)
    for s, block, floor in zip(basis.sectors, ham.blocks, ham.floors):
        assert same(block, whole[s, s])
        assert floor == fockspace._BREAKDOWN * abs(block).sum(axis=1).max()
    assert same(ham.to_csr(), whole)
    assert not hasattr(ham, "_csr")


def test_sparse_operator_refuses_an_entry_between_sectors():
    # (0, 0) is sector 0 and (1, 0) sector 1: the blocks could not hold it
    with pytest.raises(InvalidParameter, match="couples two sectors"):
        SparseHermitian(build_basis(2, 1), [0], [1], [1.0])


def test_evolution_slices_no_whole_space_csr(monkeypatch):
    # unitary_trajectory, on both its Krylov and its stepped path, and
    # _sector_terms read the held blocks: neither assembles the whole CSR
    # nor slices any CSR
    def refuse(*_args):
        raise AssertionError("a whole-space CSR was sliced")

    profile = CouplingProfile(couplings=(1.0, 2.5))
    basis = build_basis(3, 3)
    ham = build_hamiltonian(profile, basis)
    psi0 = _random_state(basis, range(4), seed=5)
    expected = [psi.amplitudes for psi in unitary_trajectory(ham, psi0, [0.3, 1.7])]
    monkeypatch.setattr(SparseHermitian, "to_csr", refuse)
    monkeypatch.setattr(sp.csr_matrix, "__getitem__", refuse)
    with pytest.raises(AssertionError, match="sliced"):
        ham.blocks[1][0:1, 0:1]
    for vectors in (fockspace._KRYLOV_VECTORS, 2):
        monkeypatch.setattr(fockspace, "_KRYLOV_VECTORS", vectors)
        states = unitary_trajectory(ham, psi0, [0.3, 1.7])
        for psi, amplitudes in zip(states, expected):
            np.testing.assert_allclose(psi.amplitudes, amplitudes, rtol=0, atol=1e-14)
    params = SystemParams(n_crystallites=2, decay_rate=0.13, intensity=0.25)
    assert len(fockspace._sector_terms(params, basis)) == len(basis.sectors)
    assert cat_suite(n=3, intensities=(0.25,), n_times=2).counts() == (6, 0, 0)


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


def test_prepare_refuses_an_unsupported_kind():
    with pytest.raises(TypeError, match="unsupported preparation object"):
        prepare_initial(object(), build_basis(2, 4))


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
    _dense_mixed(eye, basis)
    skew = eye.copy()
    skew[0, 1] = 0.2
    with pytest.raises(InvalidParameter):
        _dense_mixed(skew, basis)
    with pytest.raises(InvalidParameter):
        _dense_mixed(2.0 * eye, basis)
    with pytest.raises(InvalidParameter):
        _dense_mixed(np.diag([1.1, -0.1, 0.0]).astype(complex), basis)


@pytest.mark.parametrize("diagonal, accepts", [
    ([0.5, 0.3, 0.2], True), ([1.1, -0.1, 0.0], False)])
def test_mixed_state_leaves_the_callers_matrix_unchanged(diagonal, accepts):
    # off-diagonal coherences make the lower and upper triangles differ
    mat = np.diag(diagonal).astype(complex)
    mat[0, 1], mat[1, 0] = 0.1 + 0.05j, 0.1 - 0.05j
    before = mat.copy()
    if accepts:
        state = _dense_mixed(mat, build_basis(2, 1))
        assert not state.matrix.flags.writeable
        assert not np.shares_memory(state.matrix, mat)
    else:
        with pytest.raises(InvalidParameter, match="negative eigenvalue"):
            _dense_mixed(mat, build_basis(2, 1))
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
        _dense_mixed(mat, basis)
    else:
        with pytest.raises(InvalidParameter, match="not Hermitian"):
            _dense_mixed(mat, basis)


def _with_lowest_eigenvalue(dim: int, lowest: float, seed: int) -> np.ndarray:
    """A random Hermitian unit-trace matrix whose smallest eigenvalue is
    lowest: the other eigenvalues share 1 - lowest and each exceeds it."""
    rng = np.random.default_rng(seed)
    rest = rng.uniform(0.1, 1.0, dim - 1)
    eigenvalues = np.concatenate([[lowest], rest * (1.0 - lowest) / rest.sum()])
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    mat = (q * eigenvalues) @ q.conj().T
    return 0.5 * (mat + mat.conj().T)


@pytest.mark.parametrize("tol, dims, build", [
    (1e-8, (3, 13), lambda mat: _dense_mixed(mat, build_basis(len(mat) - 1, 1))),
    (1e-10, (4, 4), lambda mat: TwoQubitDensity(mat, NumberBasis())),
], ids=["MixedState", "TwoQubitDensity"])
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1),
       ratio=st.one_of(st.floats(-0.99, 0.0), st.floats(-5e7, -1.01)))
def test_mixed_state_positivity_matches_eigvalsh(tol, dims, build, data, seed, ratio):
    # both users of the shared validator: the Cholesky test of rho + tol I
    # and eigvalsh can disagree only within rounding of lambda_min = -tol;
    # the draws stay 0.01 tol away from it
    dim = data.draw(st.integers(*dims), label="dim")
    lowest = ratio * tol
    mat = _with_lowest_eigenvalue(dim, lowest, seed)
    accepts = lowest >= -tol
    assert (float(np.linalg.eigvalsh(mat).min()) >= -tol) == accepts
    if accepts:
        build(mat)
    else:
        with pytest.raises(InvalidParameter, match="negative eigenvalue"):
            build(mat)


def _block_diagonal(sizes, n_empty: int, lowest: float, seed: int) -> np.ndarray:
    """A random Hermitian unit-trace matrix made of dense blocks of the given
    sizes, in order, then n_empty all-zero rows. Its smallest eigenvalue,
    lowest, sits in the first block (of 2 rows or more); every other
    eigenvalue is positive."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.0, len(sizes))
    weights /= weights.sum()
    dim = sum(sizes) + n_empty
    mat = np.zeros((dim, dim), dtype=complex)
    at = 0
    for i, (size, weight) in enumerate(zip(sizes, weights)):
        low = lowest / weight if i == 0 else 0.1 / size
        block = _with_lowest_eigenvalue(size, low, seed + i) if size > 1 else np.eye(1)
        mat[at:at + size, at:at + size] = weight * block
        at += size
    return mat


def _block_sizes(mat: np.ndarray) -> list[int]:
    return sorted(len(idx) for idx in coupled_blocks(mat))


def _verdict(build) -> str | None:
    try:
        build()
    except NotADensityMatrix as exc:
        return str(exc)
    return None


def _verdicts(mat: np.ndarray) -> tuple[str | None, str | None]:
    """The verdicts on mat as a MixedState, checked on its coupled blocks,
    and as a stack of one, checked whole."""
    return (_verdict(lambda: _dense_mixed(mat, build_basis(len(mat) - 1, 1))),
            _verdict(lambda: check_density(mat[None], 1e-8)))


@pytest.mark.parametrize("ratio", [-0.99, -1.01])
@pytest.mark.parametrize("seed", range(12))
def test_block_validation_decides_like_the_whole_matrix(seed, ratio):
    # a MixedState is checked on its coupled blocks; a stack of one takes
    # the whole-matrix path. Both must agree with
    # eigvalsh on every draw: equal-sized and single-row blocks, all-zero
    # rows, the lowest eigenvalue 0.01 tol either side of -tol in one block
    rng = np.random.default_rng(1000 + seed)
    sizes = [int(rng.integers(2, 13)),
             *rng.choice([1, 2, 3, 7], size=int(rng.integers(1, 6)))]
    mat = _block_diagonal(sizes, int(rng.integers(1, 7)), ratio * 1e-8, seed)
    order = rng.permutation(len(mat))
    mat = mat[np.ix_(order, order)]
    assert _block_sizes(mat) == sorted(sizes)
    accepts = ratio >= -1.0
    assert (float(np.linalg.eigvalsh(mat).min()) >= -1e-8) == accepts
    expected = None if accepts else "matrix: negative eigenvalue beyond -1e-08"
    assert _verdicts(mat) == (expected, expected)


@pytest.mark.parametrize("ratio", [-0.99, -1.01])
def test_block_validation_edges(ratio):
    # blocks {0, 1, 2} and {3, ..., 6}, empty rows 7 and 8, the lowest
    # eigenvalue in the first block; each edit keeps the whole-matrix verdict
    base = _block_diagonal((3, 4), 2, ratio * 1e-8, 5)
    plain = None if ratio >= -1.0 else "matrix: negative eigenvalue beyond -1e-08"
    hermitian = "matrix: not Hermitian within 1e-10"
    joined = base.copy()  # one tiny entry joins the two blocks
    joined[0, 5] = joined[5, 0] = 1e-300
    one_way = base.copy()  # present in one direction only
    one_way[5, 0] = 1e-3
    nan_row = base.copy()  # a NaN in an otherwise empty row
    nan_row[7, 2] = np.nan
    skewed = base.copy()  # checked for Hermiticity before any block is factored
    skewed[4, 5] += 2e-10
    signed = base.copy()  # -0.0 off the blocks is zero
    signed[0, 5] = signed[5, 0] = signed[7, 8] = signed[8, 7] = complex(-0.0, -0.0)
    for mat, sizes, expected in ((base, [3, 4], plain), (joined, [7], plain),
                                 (one_way, [7], hermitian), (nan_row, [4, 4], hermitian),
                                 (skewed, [3, 4], hermitian), (signed, [3, 4], plain)):
        assert _block_sizes(mat) == sizes
        assert _verdicts(mat) == (expected, expected)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
def test_mixed_state_refuses_nan():
    basis = build_basis(2, 1)
    for bad in (np.nan, np.inf):
        mat = np.eye(3, dtype=complex) / 3.0
        mat[1, 1] = bad
        with pytest.raises(InvalidParameter):
            _dense_mixed(mat, basis)


def _blocks_of(mat: np.ndarray, index_sets) -> list:
    return [(idx, mat[np.ix_(idx, idx)]) for idx in index_sets]


def test_block_form_meets_the_dense_verdict():
    # two classes {3, 0, 7, 5} and {8, 1, 4} of a 10-state basis, rows 2, 6
    # and 9 empty; each defect sits inside a class block, so the dense
    # matrix and its blocks given by hand must be refused alike
    basis = build_basis(3, 2)
    classes = [np.array([3, 0, 7, 5]), np.array([8, 1, 4])]
    base = np.zeros((10, 10), dtype=complex)
    for i, idx in enumerate(classes):
        base[np.ix_(idx, idx)] = 0.5 * _with_lowest_eigenvalue(len(idx), 0.05, 40 + i)
    state = MixedState(basis=basis, blocks=_blocks_of(base, classes))
    assert np.array_equal(_bits(state.matrix), _bits(base))
    assert [list(m) for m, _ in _dense_mixed(base, basis).blocks] == [[0, 3, 5, 7], [1, 4, 8]]
    negative = base.copy()
    negative[np.ix_(classes[1], classes[1])] = 0.5 * _with_lowest_eigenvalue(3, -2.02e-8, 7)
    trace = base.copy()
    trace[7, 7] += 2e-8
    skew = base.copy()
    skew[0, 5] += 2e-10
    nan = base.copy()
    nan[4, 8] = np.nan
    for mat, message in ((negative, "negative eigenvalue beyond -1e-08"),
                         (trace, "trace differs from 1 beyond 1e-08"),
                         (skew, "not Hermitian within 1e-10"),
                         (nan, "not Hermitian within 1e-10")):
        verdicts = []
        for build in (lambda: _dense_mixed(mat, basis),
                      lambda: MixedState(basis=basis, blocks=_blocks_of(mat, classes))):
            with pytest.raises(NotADensityMatrix) as info:
                build()
            verdicts.append(str(info.value))
        assert verdicts == [f"matrix: {message}"] * 2


def test_block_form_refuses_blocks_that_are_not_disjoint_basis_indices():
    basis = build_basis(2, 1)
    half = np.eye(2, dtype=complex) / 2.0
    for blocks in ([([0, 1], half), ([1], np.eye(1))],  # overlapping
                   [([0, 3], half)], [([-1, 0], half)],  # outside the basis
                   [([1, 1], half)], [([0.0, 1.0], half)]):
        with pytest.raises(InvalidParameter, match="distinct basis indices"):
            MixedState(basis=basis, blocks=blocks)
    with pytest.raises(DimensionMismatch):
        MixedState(basis=basis, blocks=[([0, 1, 2], half)])
    # built only by keyword, on a FockBasis, from blocks
    one = [([0], np.eye(1))]
    for args, kwargs in (((basis, one), {}), ((), {"basis": None, "blocks": one}),
                         ((), {"basis": basis}), ((), {"matrix": np.eye(3) / 3.0,
                                                       "basis": basis})):
        with pytest.raises(TypeError):
            MixedState(*args, **kwargs)
    # given blocks are copied if writeable, taken as they are if not
    members, block = np.array([0, 2]), half.copy()
    state = MixedState(basis=basis, blocks=[(members, block)])
    (kept, held), = state.blocks
    assert not np.shares_memory(kept, members) and not np.shares_memory(held, block)
    assert not kept.flags.writeable and not held.flags.writeable and block.flags.writeable
    again = MixedState(basis=basis, blocks=state.blocks)
    assert again.blocks[0][0] is kept and again.blocks[0][1] is held


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


def test_unitary_trajectory_refuses_a_state_of_another_dimension():
    ham = build_hamiltonian(CouplingProfile.isotropic(1.0, 2), build_basis(3, 2))
    psi0 = prepare_initial(SinglePhoton(), build_basis(3, 3))
    with pytest.raises(DimensionMismatch, match="state and Hamiltonian bases differ"):
        unitary_trajectory(ham, psi0, [0.5])


def test_unitary_trajectory_steps_a_sector_whose_basis_does_not_close(monkeypatch):
    # with room for two Krylov vectors, every wider sector goes from sample
    # to sample through _expm_samples; the samples come back in their order,
    # and no times give no samples. Stepping down to t = -0.8, through a
    # repeated time and up to t = 5 agrees with expm to 1.0e-14
    monkeypatch.setattr(fockspace, "_KRYLOV_VECTORS", 2)
    profile = CouplingProfile(couplings=(1.0, 2.5))
    basis = build_basis(3, 3)
    hamiltonian = _dense_hamiltonian(profile, basis)
    psi0 = _random_state(basis, range(4), seed=5)
    assert unitary_trajectory(build_hamiltonian(profile, basis), psi0, []) == []
    times = [1.7, 0.0, -0.8, 5.0, 0.3, 1.7]
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
        paths.append(fockspace._krylov_basis(ham.blocks[k], ham.floors[k],
                                             psi0.amplitudes[s] / weight))
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
    assert [case.status for case in result.cases] == ["pass"] * (4 + 2)  # 2 /pairs rows


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
        rho, _ = reduce_to_qubit_pair([psi], PairIndex(1, 2), [TildeBasis(mu=mu)])
        results.append(concurrence(rho)[0])
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
            reduced, _ = reduce_to_qubit_pair([psi], pair, [NumberBasis()])
            closed = single_photon_pair_density(profile, float(gt), pair)
            np.testing.assert_allclose(reduced.entries[0], closed.entries, atol=1e-10)


def test_tilde_reduction_matches_closed_concurrence():
    params = SystemParams(n_crystallites=2, intensity=1.0, parity=ParityKind.ODD)
    basis = build_basis(3, minimum_truncation(1.0))
    ham = build_hamiltonian(CouplingProfile.from_params(params), basis)
    gt = 0.9
    psi = evolve_unitary(ham, _cat_state(params, basis), params.time_from_gt(gt))
    mu = isotropic_amplitudes(params, gt).v * params.alpha
    rho, _ = reduce_to_qubit_pair([psi], PairIndex(1, 2), [TildeBasis(mu=mu)])
    assert abs(concurrence(rho)[0] - coherent_concurrence(params, gt)) < 1e-9


def test_tilde_reduction_guards():
    params = SystemParams(n_crystallites=2, intensity=1.0, parity=ParityKind.ODD)
    basis = build_basis(3, minimum_truncation(1.0))
    ham = build_hamiltonian(CouplingProfile.from_params(params), basis)
    gt = 0.9
    psi = evolve_unitary(ham, _cat_state(params, basis), params.time_from_gt(gt))
    mu = isotropic_amplitudes(params, gt).v * params.alpha
    with pytest.raises(LeakageError):
        reduce_to_qubit_pair([psi], PairIndex(1, 2), [TildeBasis(mu=0.5 * mu)])
    rho, degenerate = reduce_to_qubit_pair([psi], PairIndex(1, 2), [TildeBasis(mu=1e-13)])
    assert degenerate.tolist() == [True] and rho.entries.shape == (0, 4, 4)


def test_pair_reduction_refuses_negative_weight_instead_of_clamping():
    # MixedState admits eigenvalues down to -1e-8, the pair density only down
    # to -1e-10: a weight between the two is refused, not lifted to zero
    basis = build_basis(3, 1)
    diag = np.zeros(basis.dimension)
    diag[basis.rank([0, 0, 0])] = 1.0 + 5e-9
    diag[basis.rank([0, 1, 0])] = -5e-9
    rho = _dense_mixed(np.diag(diag).astype(complex), basis)
    with pytest.raises(NotADensityMatrix):
        reduce_to_qubit_pair([rho], PairIndex(1, 2), [NumberBasis()])


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
    return _dense_mixed(p * first + (1.0 - p) * second, states[0].basis)


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
        reduced, _ = reduce_to_qubit_pair([state], pair, [qubits])
        np.testing.assert_allclose(reduced.entries[0], expected, rtol=0, atol=1e-13)


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
    one = [reduce_to_qubit_pair([psi], pair, [NumberBasis()])[0].entries[0]
           for psi in states]
    assert np.array_equal(_bits(rho.entries), _bits(np.array(one)))
    values = concurrence(rho)
    assert np.array_equal(values, [concurrence(m) for m in one])


@pytest.mark.parametrize("pair", [PairIndex(1, 2), PairIndex(1, 3)])
def test_stacked_tilde_reduction_matches_one_call_per_sample(pair):
    states, bases = _cat_trajectory()
    rho, degenerate = reduce_to_qubit_pair(states, pair, bases)
    assert not degenerate.any()
    one = [reduce_to_qubit_pair([psi], pair, [q])[0].entries[0]
           for psi, q in zip(states, bases)]
    assert np.array_equal(_bits(rho.entries), _bits(np.array(one)))
    assert np.array_equal(concurrence(rho), [concurrence(m) for m in one])


def test_stacked_reduction_leaves_degenerate_samples_out():
    states, bases = _cat_trajectory()
    bases[3] = TildeBasis(mu=1e-13)
    rho, degenerate = reduce_to_qubit_pair(states, PairIndex(1, 2), bases)
    assert degenerate.tolist() == [False] * 3 + [True] + [False] * 3
    kept = [k for k in range(len(states)) if k != 3]
    one = [reduce_to_qubit_pair([states[k]], PairIndex(1, 2), [bases[k]])[0].entries[0]
           for k in kept]
    assert np.array_equal(_bits(rho.entries), _bits(np.array(one)))
    assert rho.basis_tag == tuple(bases[k] for k in kept)


def test_one_leaking_sample_fails_the_stack():
    states, bases = _cat_trajectory()
    reduce_to_qubit_pair(states, PairIndex(1, 2), bases)
    bases[5] = TildeBasis(mu=0.5 * bases[5].mu)
    with pytest.raises(LeakageError):
        reduce_to_qubit_pair(states, PairIndex(1, 2), bases)


def test_pair_reduction_refuses_an_unsupported_qubit_basis():
    photon = prepare_initial(SinglePhoton(), build_basis(3, 1))
    with pytest.raises(TypeError, match="unsupported qubit basis"):
        reduce_to_qubit_pair([photon], PairIndex(1, 2), ["number"])


@pytest.mark.parametrize("case, error, message", [
    ("one basis for two states", DimensionMismatch, "2 states vs 1 qubit bases"),
    ("two 35-state bases", DimensionMismatch, "different bases"),
    ("pure then mixed", InvalidParameter, "all PureState or all MixedState"),
    ("empty", InvalidParameter, "empty trajectory"),
])
def test_malformed_trajectory_is_refused(case, error, message):
    photon = prepare_initial(SinglePhoton(), build_basis(3, 1))
    states = {
        "one basis for two states": [photon, photon],
        # C(7, 3) = C(7, 4): the two bases have one dimension
        "two 35-state bases": [prepare_initial(SinglePhoton(), build_basis(n, m))
                               for n, m in ((3, 4), (4, 3))],
        "pure then mixed": [photon, _as_mixed(photon)],
        "empty": [],
    }[case]
    bases = [NumberBasis()] * (1 if case.startswith("one basis") else len(states))
    with pytest.raises(error, match=message):
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
    one = [reduce_to_qubit_pair([s], PairIndex(1, 2), [q])[0].entries[0]
           for s, q in zip(states, bases)]
    assert np.array_equal(_bits(rho.entries), _bits(np.array(one)))


def _assert_pairs_match_lone_calls(states, pairs, bases):
    """One call for every pair gives, pair-major, the words and tags of one
    call per pair, and the degenerate mask each of them gives."""
    rho, degenerate = reduce_to_qubit_pair(states, pairs, bases)
    alone = [reduce_to_qubit_pair(states, pair, bases) for pair in pairs]
    for _, mask in alone:
        assert np.array_equal(mask, degenerate)
    assert np.array_equal(_bits(rho.entries),
                          _bits(np.concatenate([r.entries for r, _ in alone])))
    assert rho.basis_tag == sum((r.basis_tag for r, _ in alone), ())
    return degenerate


@pytest.mark.parametrize("intensity", [0.25, 1.0])
def test_multi_pair_tilde_reduction_matches_one_call_per_pair(intensity):
    # at |alpha|^2 = 1 the psi stack takes two samples a chunk, and each
    # pair's chunks overwrite the one stack the pair before filled
    params = SystemParams(n_crystallites=3, intensity=intensity, parity=ParityKind.EVEN)
    basis = build_basis(4, minimum_truncation(intensity))
    ham = build_hamiltonian(CouplingProfile.isotropic(1.0, 3), basis)
    gts = [0.4, 1.3, math.pi, 4.4, 5.9]
    states = unitary_trajectory(ham, _cat_state(params, basis),
                                [params.time_from_gt(gt) for gt in gts])
    bases = [TildeBasis(isotropic_amplitudes(params, gt).v * params.alpha) for gt in gts]
    pairs = [PairIndex(1, 2), PairIndex(1, 3), PairIndex(2, 3)]
    degenerate = _assert_pairs_match_lone_calls(states, pairs, bases)
    assert degenerate.tolist() == [False, False, True, False, False]


def test_multi_pair_number_reduction_keeps_the_order_given():
    basis = build_basis(5, 3)
    ham = build_hamiltonian(CouplingProfile(couplings=(1.0, 2.0, 0.5, 1.5)), basis)
    states = unitary_trajectory(ham, prepare_initial(SinglePhoton(), basis),
                                np.linspace(0.2, 2.6, 4))
    pairs = [PairIndex(3, 4), PairIndex(1, 2), PairIndex(2, 4), PairIndex(1, 3)]
    degenerate = _assert_pairs_match_lone_calls(states, pairs, [NumberBasis()] * 4)
    assert not degenerate.any()


def test_multi_pair_mixed_reduction_matches_one_call_per_pair():
    basis = build_basis(4, 2)
    ham = build_hamiltonian(CouplingProfile(couplings=(1.0, 1.5, 2.0)), basis)
    low = np.zeros(basis.dimension, dtype=complex)
    low[:basis.sector_offsets[2]] = [0.6, 0.3j, -0.2, 0.5, 0.1 + 0.4j]
    times = [0.3, 0.8, 1.9]
    lows = unitary_trajectory(ham, PureState(low / np.linalg.norm(low), basis), times)
    photons = unitary_trajectory(ham, prepare_initial(SinglePhoton(), basis), times)
    states = [_mix([a, b], 0.35) for a, b in zip(lows, photons)]
    pairs = [PairIndex(2, 3), PairIndex(1, 2), PairIndex(1, 3)]
    _assert_pairs_match_lone_calls(states, pairs, [NumberBasis()] * 3)


@pytest.mark.parametrize("case", ["empty", "repeated", "out of range", "not a pair"])
def test_malformed_pairs_are_refused_before_any_work(monkeypatch, case):
    params = SystemParams(n_crystallites=2, intensity=0.25, parity=ParityKind.EVEN)
    basis = build_basis(3, minimum_truncation(0.25))
    psi = _cat_state(params, basis)
    pairs = {"empty": [],
             "repeated": [PairIndex(1, 2), PairIndex(2, 1), PairIndex(1, 2)],
             "out of range": [PairIndex(1, 2), PairIndex(1, 3)],
             "not a pair": [PairIndex(1, 2), (1, 2)]}[case]
    if case == "out of range":
        with pytest.raises(InvalidParameter) as expected:
            PairIndex(1, 3).check_bounds(2)
        message = str(expected.value)
    else:
        message = {"empty": "pairs: no pair to reduce",
                   "repeated": "pairs: a pair is repeated",
                   "not a pair": "pairs: not all PairIndex"}[case]

    def refuse(*args, **kwargs):
        raise AssertionError("work began before the pairs were checked")

    monkeypatch.setattr(fockspace, "_cat_levels", refuse)
    monkeypatch.setattr(FockBasis, "pair_plan", refuse)
    with pytest.raises(InvalidParameter) as refused:
        reduce_to_qubit_pair([psi], pairs, [TildeBasis(mu=0.5)])
    assert str(refused.value) == message


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
    # every pair, in either order, fills one set of (pair occupation, group)
    # entries: the reduction's psi stack serves every pair uncleared
    filled = set()
    for pair in itertools.permutations(range(1, n_modes), 2):
        pocc, group, _ = basis.pair_plan(PairIndex(*pair))
        filled.add(frozenset(zip(pocc.tolist(), group.tolist())))
    assert len(filled) == 1


def test_pair_reduction_bounds_check():
    basis = build_basis(3, 1)
    psi = prepare_initial(SinglePhoton(), basis)
    with pytest.raises(InvalidParameter):
        reduce_to_qubit_pair([psi], PairIndex(1, 3), [NumberBasis()])


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
    rho = lindblad_trajectory(params, _as_mixed(psi0), [t])[-1]
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


def _random_density(basis: FockBasis, rank: int, seed: int) -> MixedState:
    """A random density of this rank over the whole basis: one block that
    fills every sector block rho[k, l]."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(basis.dimension, rank)) + 1j * rng.normal(size=(basis.dimension, rank))
    mat = x @ x.conj().T
    return _dense_mixed(mat / np.trace(mat).real, basis)


def _two_block_mixture(basis: FockBasis, seed: int) -> MixedState:
    """A mixture of a random state on the even sectors and one on the odd
    sectors: two coupled blocks."""
    even = _random_state(basis, range(0, basis.max_total + 1, 2), seed)
    odd = _random_state(basis, range(1, basis.max_total + 1, 2), seed + 1)
    state = _mix([even, odd], 0.35)
    assert len(state.blocks) == 2
    return state


def test_lindblad_matches_dense_expm_of_full_generator():
    params = SystemParams(n_crystallites=2, decay_rate=0.3)
    basis = build_basis(3, 2)
    generator = _dense_lindblad_generator(params, basis)
    alpha = 0.6 + 0.3j
    coherent = [alpha ** n / math.sqrt(math.factorial(n)) for n in range(3)]
    even_cat = [1.0, 0.0, 0.8 ** 2 / math.sqrt(2.0)]
    times = [0.0, 0.4, 1.3, 2.0]
    # the coherent state populates every k - l, the even cat only even ones,
    # both only at (n, 0, 0), the first state of each sector; a rank-3
    # density and a two-block mixture fill whole sector blocks, so a chain
    # read with rows and columns swapped inside a block cannot pass
    for rho0 in (_cavity_state(basis, coherent), _cavity_state(basis, even_cat),
                 _random_density(basis, 3, seed=3), _two_block_mixture(basis, seed=4)):
        states = lindblad_trajectory(params, rho0, times)
        for t, state in zip(times, states):
            exact = scipy.linalg.expm(generator * t) @ rho0.matrix.ravel()
            np.testing.assert_allclose(
                state.matrix, exact.reshape(rho0.matrix.shape), rtol=0, atol=1e-12
            )


def test_lindblad_runs_on_one_basis_match_runs_on_a_fresh_one():
    # nothing a run builds is kept on its basis: a later run there, at
    # another gamma or coupling, equals a run on a fresh basis
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


def _coo_blocks(params: SystemParams, basis: FockBasis):
    """Per-sector COO blocks of H_eff = H - i(gamma/2) sum_j n_j, and per
    sector k the blocks of each lowering operator b_j from sector k+1 into
    k: the inputs of the COO reference below."""
    h_eff = build_hamiltonian(CouplingProfile.from_params(params), basis).to_csr()
    occ = basis.occupations
    lowerings = []
    if params.decay_rate > 0.0:
        n_excitons = occ[:, 1:].sum(axis=1).astype(float)
        h_eff = h_eff - 0.5j * params.decay_rate * sp.diags(n_excitons)
        for j in range(1, basis.n_modes):
            src = np.nonzero(occ[:, j])[0]
            dst = basis.rank(occ[src] - (np.arange(basis.n_modes) == j))
            lowerings.append(sp.csr_matrix((np.sqrt(occ[src, j]), (dst, src)),
                                           shape=h_eff.shape))
    sectors = basis.sectors
    jumps = [[b[lo, hi].tocoo() for b in lowerings]
             for lo, hi in zip(sectors, sectors[1:])]
    return [h_eff[s, s].tocoo() for s in sectors], jumps


def _kron_entries(a, b, b_shape, row0: int, col0: int):
    """Rows, columns and values of kron(A, B), offset by (row0, col0), from
    the (rows, columns, values) a of A and b of B, and the shape of B."""
    rows = (a[0][:, None] * b_shape[0] + b[0]).ravel() + row0
    cols = (a[1][:, None] * b_shape[1] + b[1]).ravel() + col0
    return rows, cols, (a[2][:, None] * b[2]).ravel()


def _coo_chain(h_blocks, jumps, gamma: float, d: int) -> sp.csr_matrix:
    """Chain d up to the cutoff as the COO assembly built it: every
    Kronecker term's entries listed at its block's offset and summed in one
    conversion to CSR. A chain that stops at an earlier top was run on its
    leading principal block."""
    ks = range(d, len(h_blocks))
    starts = np.cumsum([0] + [h_blocks[k].shape[0] * h_blocks[k - d].shape[0]
                              for k in ks])
    entries = []
    for i, k in enumerate(ks):
        hk, hl = h_blocks[k], h_blocks[k - d]
        eye_k, eye_l = ((np.arange(n), np.arange(n), np.ones(n))
                        for n in (hk.shape[0], hl.shape[0]))
        at = starts[i]
        entries.append(_kron_entries((hk.row, hk.col, -1j * hk.data), eye_l,
                                     hl.shape, at, at))
        entries.append(_kron_entries(eye_k, (hl.row, hl.col, 1j * hl.data.conj()),
                                     hl.shape, at, at))
        if k < len(jumps):  # fed from the sector above
            for bk, bl in zip(jumps[k], jumps[k - d]):
                rows, cols, vals = _kron_entries((bk.row, bk.col, bk.data),
                                                 (bl.row, bl.col, bl.data.conj()),
                                                 bl.shape, at, starts[i + 1])
                entries.append((rows, cols, gamma * vals))
    rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
    return sp.csr_matrix((vals, (rows, cols)), shape=(starts[-1], starts[-1]))


def _chain(params: SystemParams, basis: FockBasis, d: int, top: int | None = None):
    """Chain d of this basis up to top (the cutoff by default), as
    lindblad_trajectory builds it."""
    top = basis.max_total if top is None else top
    return fockspace._chain_generator(fockspace._sector_terms(params, basis),
                                      params.decay_rate, d, top)


@pytest.mark.parametrize("params,max_total,compared", [
    (SystemParams(n_crystallites=2, decay_rate=0.3), 4, 15),
    (SystemParams(n_crystallites=2, decay_rate=0.0), 4, 15),
    (SystemParams(n_crystallites=3, coupling=1.3, decay_rate=0.2), 3, 10),
    (SystemParams(n_crystallites=2, intensity=0.25, decay_rate=0.13),
     minimum_truncation(0.25, margin=2), 78),
], ids=["basis_3_4", "basis_3_4_lossless", "basis_4_3", "default_lindblad_basis"])
def test_chain_generator_is_the_coo_assembly_word_for_word(params, max_total, compared):
    # every chain d to every top, written straight into CSR, is the COO
    # assembly's chain to the cutoff cut to its leading block at that top:
    # indptr, indices and data as raw words, and the index types
    basis = build_basis(params.n_crystallites + 1, max_total)
    h_blocks, jumps = _coo_blocks(params, basis)
    sizes = np.diff(basis.sector_offsets)
    count = 0
    for d in range(max_total + 1):
        full = _coo_chain(h_blocks, jumps, params.decay_rate, d)
        for top in range(d, max_total + 1):
            own = _chain(params, basis, d, top)
            n = int(sizes[d:top + 1] @ sizes[:top + 1 - d])  # rho[k, k-d], k <= top
            ref = full[:n, :n]
            assert own.shape == (n, n)
            for attr in ("indptr", "indices"):
                mine, theirs = getattr(own, attr), getattr(ref, attr)
                assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
            assert np.array_equal(own.data.view(np.int64), ref.data.view(np.int64))
            count += 1
    assert count == compared


def test_chain_generator_build_peaks_below_twice_what_it_keeps():
    # the default suite's widest chain, d = 0 to the cutoff, keeps 3.18 MiB
    # of CSR. Its build peaked at 15.8 MiB through the COO entry lists;
    # written straight into CSR it peaks at 4.0 MiB, the result included
    params = SystemParams(n_crystallites=2, intensity=0.25, decay_rate=0.13)
    basis = build_basis(3, minimum_truncation(0.25, margin=2))
    terms = fockspace._sector_terms(params, basis)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        generator = fockspace._chain_generator(terms, 0.13, 0, basis.max_total)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in (generator.data, generator.indices, generator.indptr))
    assert kept == pytest.approx(3.18 * 2 ** 20, rel=1e-3)
    assert peak < 2 * kept


@pytest.mark.parametrize("max_total", [1, 2, 3, 4])
def test_chain_generator_is_the_liouvillian_on_its_chain(max_total):
    # every chain, d = 0..M, is the principal submatrix of the dense
    # row-major Liouvillian on the vec indices of rho[k, k-d], k = d..M.
    # Only loss rates on the diagonal, summed in another order, differ: by
    # at most 1.1e-16
    params = SystemParams(n_crystallites=2, decay_rate=0.3)
    basis = build_basis(3, max_total)
    liouvillian = _dense_lindblad_generator(params, basis)
    at = np.arange(basis.dimension)
    sectors = basis.sectors
    for d in range(max_total + 1):
        idx = np.concatenate([
            (at[sectors[k], None] * basis.dimension + at[sectors[k - d]]).ravel()
            for k in range(d, max_total + 1)])
        own = _chain(params, basis, d)
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
    generator = _chain(params, basis, 1)
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


def _allocating_expm_step(a, norms, v, t):
    """_expm_step as it was written before its buffers were reused: a fresh
    vector for every operation and the exact max|f| on every term."""
    mu, norm1 = norms
    m_star, s = fockspace._taylor_parameters(norm1, t)
    eta = np.exp(t * mu / s)
    f = b = v
    for _ in range(s):
        c1 = np.max(np.abs(b))
        for j in range(m_star):
            b = (t / (s * (j + 1))) * (a @ b - mu * b)
            c2 = np.max(np.abs(b))
            f = f + b
            if c1 + c2 <= 2.0 ** -53 * np.max(np.abs(f)):
                break
            c1 = c2
        f = eta * f
        b = f
    return f


def _default_lindblad_chains(parity: ParityKind):
    """(params, [(generator, norms, v0)]) for every chain the default
    Lindblad suite propagates at this parity, as lindblad_trajectory passes
    them to _expm_step."""
    params = SystemParams(n_crystallites=2, intensity=0.25, decay_rate=0.13,
                          parity=parity)
    basis = build_basis(3, minimum_truncation(0.25, margin=2))
    chains = {}
    exact = fockspace._expm_step

    def first_call(a, norms, v, t):
        chains.setdefault(id(a), (a, norms, v.copy()))
        return exact(a, norms, v, t)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fockspace, "_expm_step", first_call)
        lindblad_trajectory(params, _as_mixed(_cat_state(params, basis)), [1.0])
    return params, list(chains.values())


@pytest.mark.parametrize("parity", [ParityKind.ODD, ParityKind.EVEN])
def test_expm_step_keeps_the_allocating_loops_bits(parity):
    # the in-place terms and the max|f| prefilter change no bit, signed
    # zeros included: on every chain of the default suite, over no time,
    # its first sample interval, one whole interval (two steps on the wider
    # chains) and a one-span run's guard half (8-16 steps). v stays read
    # only and unchanged, and the result is the caller's to write
    params, chains = _default_lindblad_chains(parity)
    assert len(chains) == 6
    cell = 4.0 * math.pi / 25.0
    spans = [0.0, *(params.time_from_gt(gt) for gt in (0.5 * cell, cell, 12.25 * cell))]
    assert fockspace._taylor_parameters(chains[0][1][1], spans[2])[1] > 1
    # the smallest chain also runs a vector scaled into the subnormals, and
    # a complex shift of its generator: a chain's mu is real, so exp(t mu /
    # s) has no imaginary part to show the operand order of eta f
    a, _, v0 = chains[-1]
    shifted = a + (0.05 + 0.3j) * sp.identity(a.shape[0], format="csr")
    cases = [*chains, (a, chains[-1][1], v0 * 2.0 ** -1040),
             (shifted, fockspace._shifted_norms(shifted), v0)]
    for a, norms, v in cases:
        v.setflags(write=False)
        before = v.copy()
        for t in spans:
            out = fockspace._expm_step(a, norms, v, t)
            np.testing.assert_array_equal(
                _bits(out), _bits(_allocating_expm_step(a, norms, v, t)))
            assert out.flags.writeable and not np.shares_memory(out, v)
        np.testing.assert_array_equal(_bits(v), _bits(before))


def test_lindblad_takes_times_as_a_list_a_tuple_or_an_array():
    # one span (the guard halves it) and several, with a repeated time
    params = SystemParams(n_crystallites=2, decay_rate=0.3)
    basis = build_basis(3, 2)
    rho0 = _cavity_state(basis, [0.6, 0.0, 0.8])
    for times in ([1.3], [0.0, 0.4, 0.4, 2.0]):
        runs = [lindblad_trajectory(params, rho0, kind(times))
                for kind in (list, tuple, np.array)]
        assert [len(run) for run in runs] == [len(times)] * 3
        for samples in zip(*runs):
            assert all(np.array_equal(_bits(samples[0].matrix), _bits(other.matrix))
                       for other in samples[1:])


def _cat_density_blocks(psi: PureState) -> MixedState:
    """psi's density as one block on its support, as verify hands it over."""
    support = np.flatnonzero(psi.amplitudes)
    amp = psi.amplitudes[support]
    return MixedState(basis=psi.basis, blocks=[(support, np.outer(amp, amp.conj()))])


def _recorded_lindblad(params: SystemParams, rho0: MixedState, times):
    """lindblad_trajectory's samples, and per chain its d, its top, its
    start v0 and its vector at each time, as _expm_samples received and
    handed them back."""
    tops, starts, runs = [], [], []
    build, samples = fockspace._chain_generator, fockspace._expm_samples

    def recording(a, norms, v, times):
        starts.append(v.copy())
        runs.append(samples(a, norms, v, times))
        return list(runs[-1])

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fockspace, "_chain_generator", lambda terms, gamma, d, top: (
            tops.append((d, top)) or build(terms, gamma, d, top)))
        patch.setattr(fockspace, "_expm_samples", recording)
        states = lindblad_trajectory(params, rho0, times)
    return states, [(d, top, v0, run)  # not the guards
                    for (d, top), v0, run in zip(tops, starts[::2], runs[::2])]


@pytest.mark.parametrize("case", ["odd cat", "even cat", "rank 3", "two blocks"])
def test_lindblad_reads_each_chain_of_rho0_word_for_word(case):
    # every chain d that rho0 populates, to its highest populated sector,
    # starts from rho0's sector blocks rho[k, k - d], k = d..top, row-major
    # and concatenated: as raw words, signed zeros included. The cats are
    # the verify suite's rho0, one block on their support
    if case.endswith("cat"):
        parity = ParityKind.ODD if case == "odd cat" else ParityKind.EVEN
        params = SystemParams(n_crystallites=2, intensity=0.25, decay_rate=0.13,
                              parity=parity)
        basis = build_basis(3, minimum_truncation(0.25, margin=2))
        rho0 = _cat_density_blocks(_cat_state(params, basis))
    else:
        params = SystemParams(n_crystallites=2, decay_rate=0.3)
        basis = build_basis(3, 2)
        rho0 = (_random_density(basis, 3, seed=3) if case == "rank 3"
                else _two_block_mixture(basis, seed=4))
    dense = rho0.matrix
    ranges = [np.arange(s.start, s.stop) for s in basis.sectors]
    expected = []
    for d in range(len(ranges)):
        ks = [k for k in range(d, len(ranges)) if dense[ranges[k]][:, ranges[k - d]].any()]
        if ks:
            expected.append((d, max(ks)))
    _, chains = _recorded_lindblad(params, rho0, [params.time_from_gt(0.3)])
    assert [(d, top) for d, top, _, _ in chains] == expected
    for d, top, v0, _ in chains:
        dense_chain = np.concatenate([dense[ranges[k]][:, ranges[k - d]].ravel()
                                      for k in range(d, top + 1)])
        np.testing.assert_array_equal(_bits(v0), _bits(dense_chain))


def _dense_sample(basis: FockBasis, chains, i: int) -> np.ndarray:
    """Sample i assembled densely from its chain vectors: zeros, every chain
    scattered at its flat indices, plus its adjoint, d = 0 blocks halved."""
    dim, sectors, at = basis.dimension, basis.sectors, np.arange(basis.dimension)
    rho = np.zeros(dim * dim, dtype=complex)
    for d, _, _, vectors in chains:
        idx, k = [], d
        while sum(map(len, idx)) < len(vectors[i]):
            idx.append((at[sectors[k], None] * dim + at[sectors[k - d]]).ravel())
            k += 1
        rho[np.concatenate(idx)] = vectors[i]
    rho = rho.reshape(dim, dim)
    rho += rho.conj().T
    for s in sectors:
        rho[s, s] *= 0.5
    return rho


@pytest.mark.parametrize("parity", [ParityKind.ODD, ParityKind.EVEN])
def test_lindblad_samples_are_the_dense_assembly_word_for_word(parity):
    # each sample's blocks are written from its chain vectors alone; its
    # dense view must be, as raw words, the matrix assembled at dim x dim.
    # A dense rho0 and its one-block form give the same samples
    params = SystemParams(n_crystallites=2, intensity=0.25, decay_rate=0.13,
                          parity=parity)
    basis = build_basis(3, minimum_truncation(0.25, margin=2))
    psi0 = _cat_state(params, basis)
    times = [params.time_from_gt(gt) for gt in (0.1, 0.45, 0.45, 1.3)]
    states, chains = _recorded_lindblad(params, _cat_density_blocks(psi0), times)
    assert [d for d, *_ in chains] == [0, 2, 4, 6, 8, 10]
    sizes = [161, 125] if parity is ParityKind.EVEN else [161, 203]
    for i, state in enumerate(states):
        assert sorted(len(m) for m, _ in state.blocks) == sorted(sizes)
        np.testing.assert_array_equal(_bits(state.matrix),
                                      _bits(_dense_sample(basis, chains, i)))
    for a, b in zip(states, lindblad_trajectory(params, _as_mixed(psi0), times)):
        np.testing.assert_array_equal(_bits(a.matrix), _bits(b.matrix))


def test_lindblad_observables_read_the_block_diagonals(monkeypatch):
    params = SystemParams(n_crystallites=2, intensity=0.25, decay_rate=0.13,
                          parity=ParityKind.ODD)
    basis = build_basis(3, minimum_truncation(0.25, margin=2))
    (state,) = lindblad_trajectory(params, _cat_density_blocks(_cat_state(params, basis)),
                                   [params.time_from_gt(0.7)])
    diag = np.diag(state.matrix).real
    expected = [float(basis.occupations[:, j].astype(float) @ diag) for j in range(3)]

    def refused(*args):
        raise AssertionError("the dense matrix was assembled")

    monkeypatch.setattr(MixedState, "matrix", property(refused))
    assert [observable_mean_photon(state, j) for j in range(3)] == expected
    assert total_excitation(state) == sum(expected)
    assert min(expected) > 0.0


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
    flat = MixedState(basis=wide, blocks=[(np.arange(wide.dimension),
                                           np.eye(wide.dimension) / wide.dimension)])
    with pytest.raises(CapacityExceeded):
        lindblad_trajectory(big, flat, [0.0, 0.1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_lindblad_refuses_non_finite_times(bad, monkeypatch):
    params = SystemParams(n_crystallites=2, intensity=0.25, decay_rate=0.13)
    basis = build_basis(3, minimum_truncation(0.25, margin=2))
    rho0 = _as_mixed(_cat_state(params, basis))
    # refused before any sector term or chain is built, or any chain stepped
    for name in ("_sector_terms", "_chain_generator", "_expm_samples"):
        monkeypatch.setattr(fockspace, name, None)
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


@pytest.mark.parametrize("norm1, t", [(1.0, 1e300), (1e300, 1e10), (math.inf, 1.0),
                                      (math.nan, 1.0), (1.0, -1e300)])
def test_taylor_parameters_refuse_a_step_count_past_any_float(norm1, t):
    # ||tA||_1 / theta_1 overflows: no step count can be counted
    with pytest.raises(InvalidParameter) as info:
        fockspace._taylor_parameters(norm1, t)
    assert info.value.name == "times"


def test_lindblad_refuses_a_span_past_any_step_count():
    # finite times all, but the span's step count overflows: refused by
    # name, not by an OverflowError from math.ceil
    params = SystemParams(n_crystallites=2, intensity=0.25, decay_rate=0.13)
    basis = build_basis(3, minimum_truncation(0.25, margin=2))
    rho0 = _as_mixed(_cat_state(params, basis))
    with pytest.raises(InvalidParameter) as info:
        lindblad_trajectory(params, rho0, [1e300])
    assert info.value.name == "times"
