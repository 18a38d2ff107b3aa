"""Brute-force truncated Fock-space oracle.

Everything here is independent of the closed forms: states are explicit
occupation vectors (cavity = mode 0, excitons = modes 1..N), unitary
evolution is exact per total-excitation sector via a dense real symmetric
eigendecomposition (the couplings are real), and loss, one zero-temperature
channel per exciton mode, is propagated exactly under the Lindblad
generator. Times are raw t; multiply by G for Gt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .analytic import NumberBasis, TildeBasis
from .entanglement import TwoQubitDensity
from .errors import (
    CapacityExceeded,
    DegenerateBasis,
    DimensionMismatch,
    InvalidParameter,
    LeakageError,
    StepSizeUnstable,
    TruncationTooSmall,
)
from .model import (
    DEGENERACY_THRESHOLD,
    Cat,
    Coherent,
    CouplingProfile,
    PairIndex,
    ParityKind,
    SinglePhoton,
    SystemParams,
)

_TAIL_BOUND = 1e-12
_LEAK_TOL = 1e-8
_DRIFT_TOL = 1e-8
_LINDBLAD_CAPACITY = 400
_CAPACITY = 200_000
# sectors are diagonalised densely: the real float64 eigenvectors of one
# sector may take at most 128 MiB, which admits up to 4096 states
_SECTOR_BYTES = 128 * 2**20


def _occupations(n_modes: int, max_total: int) -> np.ndarray:
    """Every occupation vector with total <= max_total, in basis order: the
    ascending lexicographic order of the suffix totals s_j = occ[j] + ... +
    occ[-1], so each round appends every next total 0..s_j in turn."""
    suffix = np.arange(max_total + 1, dtype=np.int64)[:, None]
    for _ in range(n_modes - 1):
        reps = suffix[:, -1] + 1
        step = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        suffix = np.column_stack([np.repeat(suffix, reps, axis=0), step])
    return -np.diff(suffix, axis=1, append=0)


class FockBasis:
    """All occupation vectors with total excitation <= max_total.

    Sector k (total excitation k) spans sector_offsets[k]:sector_offsets[k+1],
    so Hamiltonians on this basis are block diagonal; within a sector states
    run in descending lexicographic order, so (k, 0, ..., 0) opens sector k.
    """

    def __init__(self, n_modes: int, max_total: int):
        if n_modes < 2:
            raise InvalidParameter("n_modes", "need at least cavity plus one mode")
        if max_total < 1:
            raise InvalidParameter("max_total", "cutoff must be at least 1")
        dimension = math.comb(max_total + n_modes, n_modes)
        if dimension > _CAPACITY:
            raise CapacityExceeded(dimension, _CAPACITY)
        largest = math.comb(max_total + n_modes - 1, n_modes - 1)  # k = max_total
        if 8 * largest * largest > _SECTOR_BYTES:
            raise CapacityExceeded(largest, math.isqrt(_SECTOR_BYTES // 8), "sector")
        self.n_modes = n_modes
        self.max_total = max_total
        self.dimension = dimension
        self.occupations = _occupations(n_modes, max_total)
        offsets = [math.comb(k + n_modes - 1, n_modes) for k in range(max_total + 2)]
        self.sector_offsets = tuple(offsets)
        self.sectors = tuple(slice(lo, hi) for lo, hi in zip(offsets, offsets[1:]))
        # _pascal[s, j] = C(s + n-1-j, n-j), at most dimension: int64 is exact
        self._pascal = np.array(
            [[math.comb(s + n_modes - 1 - j, n_modes - j) for j in range(n_modes)]
             for s in range(max_total + 1)], dtype=np.int64)
        self._pair_plans: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, int]] = {}
        # (couplings, gamma) -> (H_eff blocks, jump blocks, {d: chain generator})
        self._lindblad_chains: dict[tuple[tuple, float], tuple[list, list, dict]] = {}

    def rank(self, occ) -> np.ndarray:
        """Basis index of each occupation vector along the last axis: the
        states whose suffix totals precede s number sum_j C(s_j + n-1-j, n-j)
        (combinatorial number system; Knuth, TAOCP 4A, 7.2.1.3)."""
        occ = np.asarray(occ, dtype=np.int64)
        suffix = np.cumsum(occ[..., ::-1], axis=-1)[..., ::-1]
        if (occ.shape[-1] != self.n_modes or (occ < 0).any()
                or (suffix[..., 0] > self.max_total).any()):
            raise InvalidParameter("occ", "not an occupation vector of this basis")
        return self._pascal[suffix, np.arange(self.n_modes)].sum(axis=-1)

    def pair_plan(self, pair: PairIndex) -> tuple[np.ndarray, np.ndarray, int]:
        """Per basis state, its pair occupation n_m*(M+1) + n_n and its group,
        the index of its configuration of every mode outside the pair; then
        the number of groups. (pair occupation, group) identifies the state,
        and the partial trace onto the pair sums over groups."""
        key = (pair.m, pair.n)
        plan = self._pair_plans.get(key)
        if plan is None:
            rest = np.delete(self.occupations, key, axis=1)
            _, group = np.unique(rest, axis=0, return_inverse=True)
            group = group.ravel()
            span = self.max_total + 1
            pocc = self.occupations[:, pair.m] * span + self.occupations[:, pair.n]
            plan = self._pair_plans[key] = (pocc, group, int(group.max()) + 1)
        return plan


class SparseHermitian:
    """Real symmetric operator stored as its upper triangle on a FockBasis;
    complex values are refused, not truncated."""

    def __init__(self, basis: FockBasis, rows, cols, values):
        values = np.asarray(values)
        if np.iscomplexobj(values) and np.any(values.imag != 0.0):
            raise InvalidParameter("values", "must be real")
        self.basis = basis
        self.dimension = basis.dimension
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.values = np.asarray(values.real, dtype=np.float64)
        self._csr = None
        self._sector_eigs: list[tuple[np.ndarray, np.ndarray]] | None = None

    def to_csr(self) -> sp.csr_matrix:
        if self._csr is None:
            off_diag = self.rows != self.cols
            r = np.concatenate([self.rows, self.cols[off_diag]])
            c = np.concatenate([self.cols, self.rows[off_diag]])
            v = np.concatenate([self.values, self.values[off_diag]])
            self._csr = sp.coo_matrix(
                (v, (r, c)), shape=(self.dimension, self.dimension)
            ).tocsr()
        return self._csr

    def sector_eigensystems(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(eigenvalues, real orthonormal eigenvectors) per sector."""
        if self._sector_eigs is None:
            full = self.to_csr()
            self._sector_eigs = [np.linalg.eigh(full[s, s].toarray())
                                 for s in self.basis.sectors]
        return self._sector_eigs


@dataclass(frozen=True)
class PureState:
    amplitudes: np.ndarray
    basis: FockBasis

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.basis.dimension,):
            raise DimensionMismatch(
                f"state length {amp.shape} vs basis dimension {self.basis.dimension}"
            )
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-10:
            raise InvalidParameter("amplitudes", f"norm {norm!r} is not 1")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True)
class MixedState:
    matrix: np.ndarray
    basis: FockBasis

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        d = self.basis.dimension
        if mat.shape != (d, d):
            raise DimensionMismatch(f"matrix shape {mat.shape} vs basis dimension {d}")
        # `not <=` so that NaN fails here: the Cholesky below may accept it
        if not np.max(np.abs(mat - mat.conj().T)) <= 1e-10:
            raise InvalidParameter("matrix", "not Hermitian within 1e-10")
        if not abs(np.trace(mat).real - 1.0) <= 1e-8:
            raise InvalidParameter("matrix", "trace differs from 1 beyond 1e-8")
        # no eigenvalue below -1e-8 exactly when mat + 1e-8 I has a Cholesky
        # factor (up to rounding there). One copy is shifted and factored in
        # place through its Fortran-ordered transpose, whose upper triangle
        # is mat's lower one conjugated, with the same eigenvalues
        from scipy.linalg.lapack import zpotrf  # only mixed states need it
        shifted = mat.copy()
        shifted.reshape(-1)[::d + 1] += 1e-8
        if zpotrf(shifted.T, clean=0, overwrite_a=1)[1]:
            raise InvalidParameter("matrix", "negative eigenvalue beyond -1e-8")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def build_basis(n_modes: int, max_total: int) -> FockBasis:
    return FockBasis(n_modes, max_total)


def minimum_truncation(intensity: float, margin: int = 0) -> int:
    """Smallest cutoff M at which prepare_initial accepts the coherent state
    and both cats of this intensity (the odd cat's tail is the widest at
    small intensity), plus margin.

    H conserves total excitation and loss only lowers it, so levels above M
    hold just the initial tail. The margin shrinks that tail, which bounds
    the oracle's accuracy: on the default Lindblad suite margins 0, 1 and 2
    give worst errors 4.2e-12 (20 of 50 rows over its 1e-12 gate), 3.6e-13
    and 2.5e-15.
    """
    if not 0.0 <= intensity < math.inf:
        raise InvalidParameter("intensity", "must be finite and nonnegative")
    alpha = math.sqrt(intensity)
    kinds = [Coherent(alpha)] + [Cat(p, alpha) for p in ParityKind
                                 if intensity > 0.0 or p is ParityKind.EVEN]
    # weights at a cutoff are a prefix of those at a larger one; past
    # |alpha|^2 ~ 1490 exp(-|alpha|^2/2) underflows and no cutoff is accepted
    for top in (16, 256, 4096):
        weights = [_cavity_weights(kind, top) for kind in kinds]
        for m in range(1, top + 1):
            if all(1.0 - _captured(w[:m + 1]) < _TAIL_BOUND for w in weights):
                return m + margin
    raise InvalidParameter("intensity", "no practical truncation found")


def build_hamiltonian(profile: CouplingProfile, basis: FockBasis) -> SparseHermitian:
    """Beam-splitter Hamiltonian sum_j g_j (a dagger b_j + a b_j dagger)."""
    if not isinstance(profile, CouplingProfile):
        raise TypeError(f"unsupported coupling {type(profile).__name__}")
    if basis.n_modes != len(profile) + 1:
        raise DimensionMismatch(
            f"basis has {basis.n_modes} modes, profile wants {len(profile) + 1}"
        )
    occ = basis.occupations
    src = np.nonzero(occ[:, 0])[0]
    # a b_j† moves one quantum from the cavity into mode j: one matrix
    # element per undirected pair (the conjugate side is implied), ordered
    # by source state and then by j
    moves = np.eye(basis.n_modes, dtype=np.int64)[1:]
    moves[:, 0] = -1
    dst = basis.rank(occ[src, None, :] + moves)
    vals = np.asarray(profile.couplings) * np.sqrt(occ[src, :1] * (occ[src, 1:] + 1))
    return SparseHermitian(basis, np.minimum(src[:, None], dst).ravel(),
                           np.maximum(src[:, None], dst).ravel(), vals.ravel())


def _cavity_weights(kind: SinglePhoton | Coherent | Cat, max_total: int) -> np.ndarray:
    """Cavity Fock amplitudes on levels 0..max_total, tail not yet removed."""
    if isinstance(kind, SinglePhoton):
        return np.eye(1, max_total + 1, 1, dtype=complex)[0]
    if isinstance(kind, Coherent):
        return _coherent_amplitudes(complex(kind.alpha), max_total)
    if not isinstance(kind, Cat):
        raise TypeError(f"unsupported preparation {type(kind).__name__}")
    if kind.alpha is None:
        raise InvalidParameter("alpha", "Cat preparation needs an amplitude")
    alpha = complex(kind.alpha)
    x = abs(alpha) ** 2
    sign = kind.parity.sign
    if sign < 0 and x == 0.0:
        raise InvalidParameter("alpha", "odd superposition of vacuum is void")
    norm = 1.0 / math.sqrt(2.0 + 2.0 * math.exp(-2.0 * x) if sign > 0
                           else -2.0 * math.expm1(-2.0 * x))
    return norm * (_coherent_amplitudes(alpha, max_total)
                   + sign * _coherent_amplitudes(-alpha, max_total))


def _captured(weights: np.ndarray) -> float:
    return float(np.sum(np.abs(weights) ** 2))


def prepare_initial(kind: SinglePhoton | Coherent | Cat, basis: FockBasis) -> PureState:
    """Cavity-mode preparation with all exciton modes in vacuum."""
    weights = _cavity_weights(kind, basis.max_total)
    captured = _captured(weights)
    tail = max(0.0, 1.0 - captured)
    if tail >= _TAIL_BOUND:
        raise TruncationTooSmall(tail, _TAIL_BOUND)
    amp = np.zeros(basis.dimension, dtype=complex)
    # (n, 0, ..., 0) is the first state of sector n
    amp[list(basis.sector_offsets[:-1])] = weights / math.sqrt(captured)
    return PureState(amp, basis)


def _coherent_amplitudes(alpha: complex, max_total: int) -> np.ndarray:
    out = np.zeros(max_total + 1, dtype=complex)
    out[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, max_total + 1):
        out[n] = out[n - 1] * alpha / math.sqrt(n)
    return out


def unitary_trajectory(hamiltonian: SparseHermitian, psi0: PureState,
                       times) -> list[PureState]:
    """psi(t) = exp(-iHt) psi0 at each time, exact per total-excitation sector.

    With the sector block H_k = V diag(lam) V^T, c = V^T psi0 is formed once
    and every time at once as V [exp(-i lam t) c]. V is real: it multiplies
    the real and imaginary parts, never a complex copy of itself.
    """
    if hamiltonian.basis is not psi0.basis and (
        hamiltonian.dimension != psi0.basis.dimension
        or hamiltonian.basis.n_modes != psi0.basis.n_modes
    ):
        raise DimensionMismatch("state and Hamiltonian bases differ")
    times = np.asarray(times, dtype=float)
    out = np.empty((len(times), hamiltonian.dimension), dtype=complex)
    for s, (lam, vec) in zip(hamiltonian.basis.sectors,
                             hamiltonian.sector_eigensystems()):
        psi = psi0.amplitudes[s]
        coeff = np.exp(-1j * np.outer(lam, times)) * (
            vec.T @ psi.real + 1j * (vec.T @ psi.imag))[:, None]
        # one real GEMM on the coefficients viewed as interleaved float64
        out[:, s] = (vec @ coeff.view(np.float64)).view(complex).T
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    return [PureState(amp, psi0.basis) for amp in out]


def evolve_unitary(hamiltonian: SparseHermitian, psi0: PureState, t: float) -> PureState:
    return unitary_trajectory(hamiltonian, psi0, [t])[-1]


def _lindblad_blocks(params: SystemParams, basis: FockBasis):
    """Per-sector blocks of H_eff = H - i(gamma/2) sum_j n_j, and per sector
    k the blocks of each lowering operator b_j from sector k+1 into k."""
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
    jumps = [[b[lo, hi] for b in lowerings] for lo, hi in zip(sectors, sectors[1:])]
    return [h_eff[s, s] for s in sectors], jumps


def _chain_generator(h_blocks, jumps, gamma: float, d: int, top: int):
    """Generator on the stacked row-major vecs of rho[k, k-d], k = d..top.
    As vec(A X B) = (A kron B^T) vec(X), block (k, l) evolves by
    -i(H_k kron I - I kron conj(H_l)) and is fed from (k+1, l+1) by
    gamma sum_j b_j kron conj(b_j): the chain is block upper bidiagonal."""
    n = top - d + 1
    grid = [[None] * n for _ in range(n)]
    for i, k in enumerate(range(d, top + 1)):
        grid[i][i] = sp.kronsum(1j * h_blocks[k - d].conj(), -1j * h_blocks[k])
        if i + 1 < n and jumps[k]:
            grid[i][i + 1] = gamma * sum(
                sp.kron(bk, bl.conj()) for bk, bl in zip(jumps[k], jumps[k - d]))
    return sp.bmat(grid, format="csr")


def _cached_chain(params: SystemParams, basis: FockBasis, d: int):
    """The generator of chain d from k = d up to the cutoff, built on first
    use and kept on the basis per (couplings, gamma), the only parameters it
    depends on. A chain that stops at an earlier top is its leading
    principal block."""
    key = (CouplingProfile.from_params(params).couplings, params.decay_rate)
    entry = basis._lindblad_chains.get(key)
    if entry is None:
        entry = basis._lindblad_chains[key] = (*_lindblad_blocks(params, basis), {})
    h_blocks, jumps, chains = entry
    if d not in chains:
        chains[d] = _chain_generator(h_blocks, jumps, params.decay_rate,
                                     d, basis.max_total)
    return chains[d]


def _expm_action(generator, v: np.ndarray, span: float) -> np.ndarray:
    """exp(span * generator) v (Al-Mohy and Higham, SIAM J. Sci. Comput. 33,
    2011). Its norm estimator may draw from numpy's global RNG: a fixed draw,
    restored afterwards, keeps the result and the caller's stream apart."""
    from scipy.sparse.linalg import expm_multiply  # 75 ms; only the oracle needs it
    state = np.random.get_state()
    np.random.seed(0)
    try:
        return expm_multiply(generator * span, v)
    finally:
        np.random.set_state(state)


def lindblad_trajectory(params: SystemParams, rho0: MixedState,
                        times: list[float]) -> list[MixedState]:
    """Density matrices at the given times (ascending, from t=0) under
    drho/dt = -i[H,rho] + gamma sum_j D[b_j] rho.

    The generator conserves d = k - l, the row minus column sector excitation
    (loss moves block (k+1, l+1) into (k, l)). Each chain rho[k, k-d], d >= 0,
    that rho0 populates is propagated exactly between samples, one chain at
    a time, and checked by its guard: its last sample, recomputed from rho0
    in one span (two halves after a one-span run), must agree within 1e-8.
    Only the chain vectors are kept until every chain has passed; the dense
    samples are assembled at the end, the d < 0 blocks as adjoints. The
    chain generators are built once per basis, couplings and gamma, and
    reused by every later call on that basis (both cat parities, say).
    """
    basis = rho0.basis
    dim = basis.dimension
    if dim > _LINDBLAD_CAPACITY:
        raise CapacityExceeded(dim, _LINDBLAD_CAPACITY)
    if any(t < 0.0 for t in times) or any(b < a for a, b in zip(times, times[1:])):
        raise InvalidParameter("times", "must be nonnegative and ascending")
    sectors = basis.sectors
    end = times[-1] if times else 0.0
    n_spans = sum(b > a for a, b in zip([0.0, *times], times))
    guard = [end] if n_spans > 1 else [0.5 * end] * 2
    at = np.arange(dim)
    chains = []  # (flat indices into rho, vector at each time) per populated chain
    drift = 0.0
    for d in range(len(sectors)):
        top = max((k for k in range(d, len(sectors))
                   if np.any(rho0.matrix[sectors[k], sectors[k - d]])), default=-1)
        if top < d:  # nothing ever flows into an empty chain
            continue
        idx = np.concatenate([(at[sectors[k], None] * dim + at[sectors[k - d]]).ravel()
                              for k in range(d, top + 1)])
        generator = _cached_chain(params, basis, d)[:len(idx), :len(idx)]
        v = v0 = rho0.matrix.ravel()[idx]
        vectors, prev = [], 0.0
        for t in times:
            if t > prev:
                v = _expm_action(generator, v, t - prev)
            prev = t
            vectors.append(v)
        for span in guard:
            v0 = _expm_action(generator, v0, span)
        drift = max(drift, float(np.max(np.abs(v0 - v))))
        chains.append((idx, vectors))
    if drift > _DRIFT_TOL:
        raise StepSizeUnstable(drift, _DRIFT_TOL)
    samples = []
    for i in range(len(times)):
        rho = np.zeros(dim * dim, dtype=complex)
        for idx, vectors in chains:
            rho[idx] = vectors[i]
        rho = rho.reshape(dim, dim)
        rho += rho.conj().T  # the d < 0 blocks are the adjoints
        for s in sectors:
            rho[s, s] *= 0.5  # d = 0: the Hermitian part, scrubbing roundoff
        samples.append(MixedState(rho, basis))
    return samples


def evolve_lindblad(params: SystemParams, rho0: MixedState, t: float) -> MixedState:
    return lindblad_trajectory(params, rho0, [t])[-1]


def _cat_pair_projector(mu: complex, span: int) -> np.ndarray:
    """Columns: even and odd cat states of amplitude mu on Fock levels 0..span-1."""
    x = abs(mu) ** 2
    if x < DEGENERACY_THRESHOLD:
        raise DegenerateBasis(f"|mu|^2 = {x:.3e} below 1e-12")
    return np.column_stack([_cavity_weights(Cat(parity, mu), span - 1)
                            for parity in (ParityKind.EVEN, ParityKind.ODD)])


def reduce_to_qubit_pair(state: PureState | MixedState, pair: PairIndex,
                         qubit_basis: NumberBasis | TildeBasis) -> TwoQubitDensity:
    """Two-qubit density of the pair in the requested basis.

    NumberBasis keeps Fock levels {0,1} of each mode; TildeBasis(mu)
    projects onto the orthonormal even/odd superpositions of |+-mu>. Weight
    outside the qubit plane beyond 1e-8 raises LeakageError; smaller
    deficits are renormalized away. Nothing is clamped: an eigenvalue of the
    pair density below -1e-10 raises NotADensityMatrix.
    """
    basis = state.basis
    pair.check_bounds(basis.n_modes - 1)
    pocc, group, n_groups = basis.pair_plan(pair)
    span = basis.max_total + 1
    # columns: the four qubit kets in the pair space, indexed by pair occupation
    if isinstance(qubit_basis, NumberBasis):
        kets = np.eye(span * span)[:, [0, 1, span, span + 1]]
    elif isinstance(qubit_basis, TildeBasis):
        b = _cat_pair_projector(qubit_basis.mu, span)
        kets = np.kron(b, b)
    else:
        raise TypeError(f"unsupported qubit basis {type(qubit_basis).__name__}")
    if isinstance(state, PureState):
        # psi[pair occupation, group]: the partial trace is psi psi^dagger
        psi = np.zeros((span * span, n_groups), dtype=complex)
        psi[pocc, group] = state.amplitudes
        phi = kets.conj().T @ psi
        mat = phi @ phi.conj().T
    else:
        # only entries between states of one group survive the partial trace
        q = kets[pocc]
        mat = q.conj().T @ np.where(group[:, None] == group, state.matrix, 0.0) @ q
    captured = float(np.trace(mat).real)
    leak = 1.0 - captured
    if leak > _LEAK_TOL:
        raise LeakageError(leak, _LEAK_TOL)
    mat = mat / captured
    mat = 0.5 * (mat + mat.conj().T)
    return TwoQubitDensity(entries=mat, basis_tag=qubit_basis)


def w_state_fidelity(psi: PureState) -> float:
    """Overlap squared with the equal single-excitation sharing state."""
    # sector 1 runs (1, 0, ..., 0) and then one exciton in mode 1, 2, ...
    excitons = psi.amplitudes[psi.basis.sectors[1]][1:]
    return abs(excitons.sum()) ** 2 / len(excitons)


def observable_mean_photon(state: PureState | MixedState, mode: int) -> float:
    basis = state.basis
    if not 0 <= mode < basis.n_modes:
        raise InvalidParameter("mode", f"must be in [0, {basis.n_modes})")
    occ = basis.occupations[:, mode].astype(float)
    if isinstance(state, PureState):
        return float(occ @ (np.abs(state.amplitudes) ** 2))
    return float(occ @ np.diag(state.matrix).real)


def total_excitation(state: PureState | MixedState) -> float:
    return sum(observable_mean_photon(state, j) for j in range(state.basis.n_modes))
