"""Brute-force truncated Fock-space oracle.

Everything here is independent of the closed forms: states are explicit
occupation vectors (cavity = mode 0, excitons = modes 1..N), unitary
evolution is exact per total-excitation sector on the Krylov space the
state spans there (Lanczos on the real symmetric sector block; the couplings
are real), and loss, one zero-temperature channel per exciton mode, is
propagated exactly under the Lindblad generator. Times are raw t; multiply
by G for Gt.
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
# Lanczos breakdown, relative to |H_k|_inf. A cat's basis closes after k + 1
# vectors: the next off-diagonal there reads 1.4e-16 at N=5, k=9 and
# 2.3e-14 at N=3, k=27, while every one kept is at least 0.18. Rounding
# lifts it with k (N=2: 2.4e-12 at k=44, 1.2e-5 at k=89), and a basis that
# does not close runs on into the whole sector: it is given up after 64
# vectors
_BREAKDOWN = 1e-13
_KRYLOV_VECTORS = 64
# theta_m of Al-Mohy and Higham (SIAM J. Sci. Comput. 33, 488, 2011): the
# largest ||tA||_1 at which the degree-m Taylor series of exp(tA) keeps its
# backward error within 2^-53. Up to m = 30 from Higham and Al-Mohy, Acta
# Numer. 19, 159, 2010, Table A.3; beyond, from Table 3.1 of the former
_THETA = {1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
          6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
          11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
          16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44, 21: 1.62,
          22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43, 26: 2.64, 27: 2.86,
          28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5,
          55: 9.9}


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
            # the rest runs over every configuration of c modes with total
            # <= M, so its group is its index in ascending lexicographic
            # order. Appending the slack M - total makes it a state of
            # sector M of a (c+1)-mode basis, where states run in descending
            # order, and rank() counts them from C(M - p_j + c-j, c+1-j),
            # p_j being the prefix totals. Every term is at most C(M+c, c)
            # <= dimension <= _CAPACITY: int64 is exact
            rest = np.delete(self.occupations, key, axis=1)
            c, m = rest.shape[1], self.max_total
            table = np.array([[math.comb(m - p + c - j, c + 1 - j)
                               for j in range(1, c + 1)] for p in range(m + 1)],
                             dtype=np.int64).reshape(m + 1, c)
            n_groups = math.comb(m + c, c)
            before = table[np.cumsum(rest, axis=1), np.arange(c)].sum(axis=1)
            group = n_groups - 1 - before
            span = self.max_total + 1
            pocc = self.occupations[:, pair.m] * span + self.occupations[:, pair.n]
            plan = self._pair_plans[key] = (pocc, group, n_groups)
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
        """(eigenvalues, real orthonormal eigenvectors) per sector, by dense
        eigh: a reference for tests; evolution does not use it."""
        full = self.to_csr()
        return [np.linalg.eigh(full[s, s].toarray()) for s in self.basis.sectors]


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
        if not abs(norm - 1.0) <= 1e-10:  # `not <=` so that NaN fails
            raise InvalidParameter("amplitudes", f"norm {norm!r} is not 1")
        amp = amp.copy() if amp.flags.writeable else amp  # the caller's stays its own
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
        # max |mat - mat^H|^2 over two real temporaries, its real and
        # imaginary parts squared in place; `not <=` so that NaN fails here:
        # the Cholesky below may accept it
        skew, imag = mat.real - mat.real.T, mat.imag + mat.imag.T
        skew *= skew
        imag *= imag
        skew += imag
        if not np.max(skew) <= 1e-20:
            raise InvalidParameter("matrix", "not Hermitian within 1e-10")
        if not abs(np.trace(mat).real - 1.0) <= 1e-8:
            raise InvalidParameter("matrix", "trace differs from 1 beyond 1e-8")
        # no eigenvalue below -1e-8 exactly when mat + 1e-8 I has a Cholesky
        # factor (up to rounding there). The shift goes on a copy, so the
        # caller's array is never written
        shifted = mat.copy()
        shifted.reshape(-1)[::d + 1] += 1e-8
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            raise InvalidParameter("matrix",
                                   "negative eigenvalue beyond -1e-8") from None
        mat = mat.copy() if mat.flags.writeable else mat  # the caller's stays its own
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
        return _coherent_levels([complex(kind.alpha)], max_total + 1)[:, 0]
    if not isinstance(kind, Cat):
        raise TypeError(f"unsupported preparation {type(kind).__name__}")
    if kind.alpha is None:
        raise InvalidParameter("alpha", "Cat preparation needs an amplitude")
    alpha = complex(kind.alpha)
    if abs(alpha) ** 2 == 0.0:  # the even cat is the vacuum; there is no odd one
        if kind.parity.sign < 0:
            raise InvalidParameter("alpha", "odd superposition of vacuum is void")
        return np.eye(1, max_total + 1, dtype=complex)[0]
    return _cat_levels([alpha], max_total + 1)[0, :, 0 if kind.parity.sign > 0 else 1]


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


def _coherent_levels(alphas: list[complex], span: int) -> np.ndarray:
    """Columns: each amplitude's coherent state on Fock levels 0..span-1,
    tail not yet removed, as c_n = c_{n-1} alpha / sqrt(n) for all at once.
    The complex product is taken in real arithmetic, as numpy's scalar loop
    takes it (its vector loop fuses it): each column has one-amplitude bits."""
    amp = np.array(alphas, dtype=complex)
    out = np.empty((span, len(alphas)), dtype=complex)
    out[0] = [math.exp(-abs(alpha) ** 2 / 2.0) for alpha in alphas]
    re, im = out.real, out.imag
    for n in range(1, span):
        re[n] = re[n - 1] * amp.real - im[n - 1] * amp.imag
        im[n] = re[n - 1] * amp.imag + im[n - 1] * amp.real
        out[n] /= math.sqrt(n)
    return out


def _cat_levels(alphas: list[complex], span: int) -> np.ndarray:
    """(len(alphas), span, 2): the even and odd cats norm (|a> + sign |-a>)
    of each nonzero amplitude on Fock levels 0..span-1, tail not removed."""
    norms = np.array([[1.0 / math.sqrt(2.0 + 2.0 * math.exp(-2.0 * x)),
                       1.0 / math.sqrt(-2.0 * math.expm1(-2.0 * x))]
                      for x in (abs(alpha) ** 2 for alpha in alphas)])
    levels = _coherent_levels(alphas + [-alpha for alpha in alphas], span)[:, :, None]
    plus, minus = levels[:, :len(alphas)], levels[:, len(alphas):]
    return (norms * (plus + np.array([1.0, -1.0]) * minus)).transpose(1, 0, 2)


def _krylov_basis(block: sp.csr_matrix, start: np.ndarray):
    """Orthonormal columns Q spanning the Krylov space of the unit vector
    start under the real symmetric block, and T = Q^H H Q as its diagonal
    and off-diagonal: Lanczos, with each new vector orthogonalised twice
    against all of Q. It stops when the next off-diagonal falls to
    _BREAKDOWN |H|_inf, where the space is invariant, or the block is full;
    None if neither happens within _KRYLOV_VECTORS vectors."""
    floor = _BREAKDOWN * float(abs(block).sum(axis=1).max())
    q = [start]
    diag, off = [], []
    while True:
        w = block @ q[-1]
        diag.append(float(np.vdot(q[-1], w).real))
        rows = np.array(q)
        for _ in range(2):  # w -= Q Q^H w, without a conjugated copy of Q
            w -= (rows @ w.conj()).conj() @ rows
        beta = float(np.linalg.norm(w))
        if beta <= floor or len(q) == len(start):
            return rows.T, np.array(diag), np.array(off)
        if len(q) == _KRYLOV_VECTORS:
            return None
        off.append(beta)
        q.append(w / beta)


def unitary_trajectory(hamiltonian: SparseHermitian, psi0: PureState,
                       times) -> list[PureState]:
    """psi(t) = exp(-iHt) psi0 at each time, exact per total-excitation sector.

    Only the sectors psi0 populates are evolved; the rest stay zero. Sector
    k evolves on the Krylov space of its component psi_k under the block
    H_k, which exp(-iH_k t) psi_k never leaves (Saad, SIAM J. Numer. Anal.
    29, 209, 1992): with its basis Q and T = Q^H H_k Q = S diag(theta) S^T,
    every time at once is |psi_k| (QS) [exp(-i theta t) S[0]]. A cat or a
    single photon spans k + 1 vectors of the sector, however large it is.
    A sector whose basis has not closed within _KRYLOV_VECTORS vectors (a
    cat at N=2 past k of about 35, a random state in a large sector) is
    stepped through the samples in ascending time by _expm_step instead.
    The only dense eigensolve is numpy's eigh of T, at most _KRYLOV_VECTORS
    rows; none of a sector block runs. Nothing is renormalised: PureState's
    norm check guards the result.
    """
    if hamiltonian.basis is not psi0.basis and (
        hamiltonian.dimension != psi0.basis.dimension
        or hamiltonian.basis.n_modes != psi0.basis.n_modes
    ):
        raise DimensionMismatch("state and Hamiltonian bases differ")
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise InvalidParameter("times", "must be finite")
    out = np.zeros((len(times), hamiltonian.dimension), dtype=complex)
    full = hamiltonian.to_csr()
    for s in hamiltonian.basis.sectors:
        psi = psi0.amplitudes[s]
        if not psi.any():
            continue
        norm = np.linalg.norm(psi)
        block = full[s, s]
        krylov = _krylov_basis(block, psi / norm)
        if krylov is None:  # from sample to sample instead
            generator, v, prev = -1j * block, psi, 0.0
            norms = _shifted_norms(generator)
            for i in np.argsort(times):
                v = out[i, s] = _expm_step(generator, norms, v, times[i] - prev)
                prev = times[i]
            continue
        q, diag, off = krylov
        tri = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        theta, vec = np.linalg.eigh(tri)
        coeff = np.exp(-1j * np.outer(theta, times)) * (norm * vec[0])[:, None]
        out[:, s] = ((q @ vec) @ coeff).T
    out.setflags(write=False)  # so the states take its rows uncopied
    return [PureState(amp, psi0.basis) for amp in out]


def evolve_unitary(hamiltonian: SparseHermitian, psi0: PureState, t: float) -> PureState:
    return unitary_trajectory(hamiltonian, psi0, [t])[-1]


def _lindblad_blocks(params: SystemParams, basis: FockBasis):
    """Per-sector blocks of H_eff = H - i(gamma/2) sum_j n_j, and per sector
    k the blocks of each lowering operator b_j from sector k+1 into k, all
    in COO form."""
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


def _chain_generator(h_blocks, jumps, gamma: float, d: int, top: int):
    """Generator on the stacked row-major vecs of rho[k, k-d], k = d..top.
    As vec(A X B) = (A kron B^T) vec(X), block (k, l) evolves by
    -i(H_k kron I - I kron conj(H_l)) and is fed from (k+1, l+1) by
    gamma sum_j b_j kron conj(b_j): the chain is block upper bidiagonal.
    Every term's entries are listed at their block's offset and summed in
    one conversion to CSR."""
    ks = range(d, top + 1)
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
        if k < top:
            for bk, bl in zip(jumps[k], jumps[k - d]):
                rows, cols, vals = _kron_entries((bk.row, bk.col, bk.data),
                                                 (bl.row, bl.col, bl.data.conj()),
                                                 bl.shape, at, starts[i + 1])
                entries.append((rows, cols, gamma * vals))
    rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
    return sp.csr_matrix((vals, (rows, cols)), shape=(starts[-1], starts[-1]))


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


def _shifted_norms(a: sp.csr_matrix) -> tuple[complex, float]:
    """What fixes the Taylor degree and step count of _expm_step for a CSR
    generator A at every span: the trace shift mu = tr(A)/n and the exact
    ||A - mu I||_1."""
    n = a.shape[0]
    diag = a.diagonal()
    mu = diag.sum() / n
    # the column abs-sums of A - mu I without forming it: only each
    # column's diagonal entry changes, from |a_jj| to |a_jj - mu|
    cols = np.bincount(a.indices, weights=np.abs(a.data), minlength=n)
    return mu, float(np.max(cols - np.abs(diag) + np.abs(diag - mu)))


def _taylor_parameters(norm1: float, t: float) -> tuple[int, int]:
    """(m*, s) for exp(tA) on one vector, given ||A - mu I||_1: the Taylor
    degree m and step count s of least cost m s for which |t| ||A - mu I||_1
    / s is within theta_m; the first that reaches the least cost wins.

    This is Al-Mohy and Higham's code fragment 3.1 below their condition
    (3.13), applied to every span. Past (3.13) it departs from scipy's
    expm_multiply, which picks from d_p = ||(A - mu I)^p||_1^(1/p),
    estimated from random draws. As d_p <= ||A - mu I||_1, the norm alone
    keeps the same backward-error bound, on its conservative side. On the
    Lindblad chains the d_p come within 6 % of the norm (32.2-33.5 against
    34.3 on the default suite's chain d = 1), so they would save about 6 %
    of the products of a long span, while estimating them took about a
    fifth of the run."""
    norm = abs(t) * norm1
    if norm == 0.0:
        return 0, 1
    return min(((m, math.ceil(norm / theta)) for m, theta in _THETA.items()),
               key=lambda ms: ms[0] * ms[1])


def _expm_step(a: sp.csr_matrix, norms: tuple[complex, float], v: np.ndarray,
               t: float) -> np.ndarray:
    """exp(tA) v by Al-Mohy and Higham's Algorithm 3.2 (SIAM J. Sci. Comput.
    33, 488, 2011): s steps, each the degree-m* Taylor series of
    exp(t(A - mu I)/s), cut short once two successive terms fall below
    2^-53 of the sum, times exp(t mu / s). norms = (mu, ||A - mu I||_1) of
    a, from _shifted_norms; the shift is applied inside each product, so no
    shifted copy of a is formed."""
    mu, norm1 = norms
    m_star, s = _taylor_parameters(norm1, t)
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
    if not all(0.0 <= t < math.inf for t in times) or any(
            b < a for a, b in zip(times, times[1:])):
        raise InvalidParameter("times", "must be finite, nonnegative and ascending")
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
        norms = _shifted_norms(generator)
        v = v0 = rho0.matrix.ravel()[idx]
        vectors, prev = [], 0.0
        for t in times:
            if t > prev:
                v = _expm_step(generator, norms, v, t - prev)
            prev = t
            vectors.append(v)
        for span in guard:
            v0 = _expm_step(generator, norms, v0, span)
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
        rho.setflags(write=False)  # so the sample takes it uncopied
        samples.append(MixedState(rho, basis))
    return samples


def evolve_lindblad(params: SystemParams, rho0: MixedState, t: float) -> MixedState:
    return lindblad_trajectory(params, rho0, [t])[-1]


def reduce_to_qubit_pair(states, pair: PairIndex, qubit_bases):
    """Two-qubit density of the pair in the requested basis, for one state
    and its qubit basis (DegenerateBasis if that has none) or a trajectory:
    states on one basis, one qubit basis each, giving the TwoQubitDensity
    stack of the samples that are not degenerate and the degenerate mask.

    NumberBasis keeps Fock levels {0,1} of each mode; TildeBasis(mu)
    projects onto the orthonormal even/odd superpositions of |+-mu>, none
    for |mu|^2 < 1e-12. Weight outside the qubit plane beyond 1e-8 in any
    sample raises LeakageError; smaller deficits are renormalized away.
    Nothing is clamped: an eigenvalue below -1e-10 raises NotADensityMatrix.
    """
    single = isinstance(states, (PureState, MixedState))
    if single:
        states, qubit_bases = [states], [qubit_bases]
    if not all(isinstance(q, (NumberBasis, TildeBasis)) for q in qubit_bases):
        raise TypeError("unsupported qubit basis")
    basis = states[0].basis
    pair.check_bounds(basis.n_modes - 1)
    pocc, group, n_groups = basis.pair_plan(pair)
    span = basis.max_total + 1
    degenerate = np.array([isinstance(q, TildeBasis) and abs(complex(q.mu)) ** 2
                           < DEGENERACY_THRESHOLD for q in qubit_bases])
    if single and degenerate[0]:
        raise DegenerateBasis(f"|mu|^2 = {abs(qubit_bases[0].mu) ** 2:.3e} below 1e-12")
    (kept,) = np.nonzero(~degenerate)
    # each sample's two qubit kets: Fock levels 0 and 1, or the cats of mu
    b = np.zeros((len(kept), span, 2), dtype=complex)
    b[:, 0, 0] = b[:, 1, 1] = 1.0
    tilde = [j for j, i in enumerate(kept) if isinstance(qubit_bases[i], TildeBasis)]
    if tilde:
        b[tilde] = _cat_levels([complex(qubit_bases[kept[j]].mu) for j in tilde], span)
    # kron(b, b), the four pair kets indexed by pair occupation, formed as
    # one broadcast product: np.kron's own overhead is about 30 us a call
    kets = (b[:, :, None, :, None] * b[:, None, :, None, :]).reshape(-1, span * span, 4)
    mats = np.zeros((len(kept), 4, 4), dtype=complex)
    if isinstance(states[0], PureState):
        # psi[pair occupation, group]: the partial trace is psi psi^dagger.
        # A chunk of samples keeps the psi stack near 1 MiB; each sample
        # fills the same entries, so one stack serves every chunk
        chunk = max(1, (1 << 20) // (span * span * n_groups * 16))
        psi = np.zeros((min(chunk, len(kept)), span * span, n_groups), dtype=complex)
        for lo in range(0, len(kept), chunk):
            members = kept[lo:lo + chunk]
            for j, i in enumerate(members):
                psi[j, pocc, group] = states[i].amplitudes
            phi = kets[lo:lo + chunk].conj().transpose(0, 2, 1) @ psi[:len(members)]
            mats[lo:lo + chunk] = phi @ phi.conj().transpose(0, 2, 1)
    else:
        # only entries between states of one group survive the partial trace
        order = np.argsort(group, kind="stable")
        bounds = np.concatenate([[0], np.cumsum(np.bincount(group, minlength=n_groups))])
        for mat, i, q in zip(mats, kept, kets[:, pocc]):
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                members = order[lo:hi]
                qg = q[members]
                mat += qg.conj().T @ states[i].matrix[np.ix_(members, members)] @ qg
    captured = mats.trace(axis1=1, axis2=2).real
    leak = 1.0 - captured
    if (leak > _LEAK_TOL).any():
        raise LeakageError(float(leak[leak > _LEAK_TOL].max()), _LEAK_TOL)
    mats /= captured[:, None, None]
    mats = 0.5 * (mats + mats.conj().transpose(0, 2, 1))
    if single:
        return TwoQubitDensity(entries=mats[0], basis_tag=qubit_bases[0])
    return TwoQubitDensity(mats, tuple(qubit_bases[i] for i in kept)), degenerate


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
