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
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .entanglement import TwoQubitDensity, check_blocks, coupled_blocks
from .errors import (
    CapacityExceeded,
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
    NumberBasis,
    PairIndex,
    ParityKind,
    SinglePhoton,
    SystemParams,
    TildeBasis,
)

_TAIL_BOUND = 1e-12
_LEAK_TOL = 1e-8
_DRIFT_TOL = 1e-8
# The Lindblad oracle's only bound, checked first in lindblad_trajectory.
# Densities are held as blocks, and one chain generator is held at a time,
# but the widest one, d = 0, grows with the basis: 3.2 MiB at 364 states
# (|alpha|^2 = 0.25), 6.7 MiB at 560 (0.4), 17.3 MiB at 969 (1.0).
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


def _rank(occ: np.ndarray, max_total: int) -> np.ndarray:
    """Index of each occupation vector along the last axis in the basis of
    its modes up to max_total: the states whose suffix totals precede s
    number sum_j C(s_j + n-1-j, n-j) (combinatorial number system; Knuth,
    TAOCP 4A, 7.2.1.3), summed mode by mode from the last. Each term is at
    most the basis dimension: int64 is exact."""
    n = occ.shape[-1]
    rank = np.zeros(occ.shape[:-1], dtype=np.int64)
    suffix = np.zeros_like(rank)
    for j in range(n - 1, -1, -1):
        suffix += occ[..., j]
        pascal = np.array([math.comb(s + n - 1 - j, n - j) for s in range(max_total + 1)])
        rank += pascal[suffix]
    return rank


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
        self._pair_plans: dict[tuple[int, int], tuple[np.ndarray, np.ndarray, int]] = {}

    def rank(self, occ) -> np.ndarray:
        """Basis index of each occupation vector along the last axis."""
        occ = np.asarray(occ, dtype=np.int64)
        if (occ.shape[-1] != self.n_modes or (occ < 0).any()
                or (occ.sum(axis=-1) > self.max_total).any()):
            raise InvalidParameter("occ", "not an occupation vector of this basis")
        return _rank(occ, self.max_total)

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
            # sector M of a (c+1)-mode basis, which opens at C(M+c, c+1) and
            # runs in descending order
            rest = np.delete(self.occupations, key, axis=1)
            c, m = rest.shape[1], self.max_total
            y = np.column_stack([rest, m - rest.sum(axis=1)])
            n_groups = math.comb(m + c, c)
            group = n_groups - 1 - (_rank(y, m) - math.comb(m + c, c + 1))
            span = self.max_total + 1
            pocc = self.occupations[:, pair.m] * span + self.occupations[:, pair.n]
            plan = self._pair_plans[key] = (pocc, group, n_groups)
        return plan


class SparseHermitian:
    """Real symmetric operator on a FockBasis that conserves total
    excitation, given by its upper triangle; complex values and entries
    between two sectors are refused, not dropped.

    It is held as its sector blocks alone: blocks[k] is the canonical CSR
    of sector k, the whole CSR sliced at basis.sectors[k], and floors[k] its
    Lanczos breakdown floor, _BREAKDOWN |H_k|_inf. Both are built once, here.
    """

    def __init__(self, basis: FockBasis, rows, cols, values):
        values = np.asarray(values)
        if np.iscomplexobj(values) and np.any(values.imag != 0.0):
            raise InvalidParameter("values", "must be real")
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        offsets = np.asarray(basis.sector_offsets)
        if not np.array_equal(np.searchsorted(offsets, rows, side="right"),
                              np.searchsorted(offsets, cols, side="right")):
            raise InvalidParameter("rows", "an entry couples two sectors")
        values = np.asarray(values.real, dtype=np.float64)
        off = rows != cols
        self.basis = basis
        self.dimension = basis.dimension
        full = sp.coo_matrix(
            (np.concatenate([values, values[off]]),
             (np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]]))),
            shape=(self.dimension, self.dimension)).tocsr()
        # each sector's rows hold only its own columns: its block is a run
        # of the whole CSR's arrays, shifted, and its |H_k|_inf the largest
        # of its rows' abs-sums, each summed as in the block alone
        row_sums = np.asarray(abs(full).sum(axis=1)).ravel()
        self.blocks, self.floors = [], []
        for s in basis.sectors:
            lo, hi = full.indptr[s.start], full.indptr[s.stop]
            n = s.stop - s.start
            self.blocks.append(sp.csr_matrix(
                (full.data[lo:hi], full.indices[lo:hi] - s.start,
                 full.indptr[s.start:s.stop + 1] - lo), shape=(n, n)))
            self.floors.append(_BREAKDOWN * float(row_sums[s].max()))

    def to_csr(self) -> sp.csr_matrix:
        """The whole CSR, assembled afresh from the blocks."""
        return sp.block_diag(self.blocks, format="csr")

    def sector_eigensystems(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(eigenvalues, real orthonormal eigenvectors) per sector, by dense
        eigh: a reference for tests; evolution does not use it."""
        return [np.linalg.eigh(block.toarray()) for block in self.blocks]


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
        norm = math.sqrt(np.vdot(amp, amp).real)
        if not abs(norm - 1.0) <= 1e-10:  # `not <=` so that NaN fails
            raise InvalidParameter("amplitudes", f"norm {norm!r} is not 1")
        amp = amp.copy() if amp.flags.writeable else amp  # the caller's stays its own
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True, eq=False, kw_only=True)
class MixedState:
    """A validated density matrix on a FockBasis, held as blocks: blocks is
    a tuple of (members, block) pairs, members distinct basis indices and
    block the dense rho[members, members], both read-only, and every entry
    between two blocks or outside them is zero.

    MixedState(basis=basis, blocks=...) takes disjoint blocks as given,
    coupled or not, so no array of d^2 entries need exist. The blocks are
    checked by check_blocks at tol = 1e-8, with the verdict and message the
    dense matrix would get, and a writeable array of the caller's is copied
    first. The dense matrix is assembled only when .matrix is read.
    """

    basis: FockBasis
    blocks: tuple

    def __post_init__(self) -> None:
        if not isinstance(self.basis, FockBasis):
            raise TypeError("MixedState takes a FockBasis")
        d = self.basis.dimension
        taken = np.zeros(d, dtype=bool)
        kept = []
        for pair in self.blocks:
            members, block = np.asarray(pair[0]), np.asarray(pair[1], dtype=complex)
            if members.ndim != 1 or block.shape != (len(members),) * 2:
                raise DimensionMismatch(f"block shape {block.shape} vs "
                                        f"{members.shape} indices")
            if (members.dtype.kind not in "iu" or not ((0 <= members) & (members < d)).all()
                    or taken[members].any() or len(np.unique(members)) < len(members)):
                raise InvalidParameter("blocks", "indices must be distinct basis indices")
            taken[members] = True
            # the caller's arrays stay their own
            members, block = (a.copy() if a.flags.writeable else a for a in (members, block))
            members.setflags(write=False)
            block.setflags(write=False)
            kept.append((members, block))
        object.__setattr__(self, "blocks", tuple(kept))
        check_blocks([block for _, block in kept], self.diagonal().sum(), 1e-8)

    def diagonal(self) -> np.ndarray:
        """The complex diagonal of rho, read off the blocks."""
        diag = np.zeros(self.basis.dimension, dtype=complex)
        for members, block in self.blocks:
            diag[members] = block.diagonal()
        return diag

    @property
    def matrix(self) -> np.ndarray:
        """The dense (d, d) matrix, assembled afresh and read-only."""
        mat = np.zeros((self.basis.dimension,) * 2, dtype=complex)
        for members, block in self.blocks:
            mat[np.ix_(members, members)] = block
        mat.setflags(write=False)
        return mat


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


def _krylov_basis(block: sp.csr_matrix, floor: float, start: np.ndarray):
    """Orthonormal columns Q spanning the Krylov space of the unit vector
    start under the real symmetric block, and T = Q^H H Q as its diagonal
    and off-diagonal: Lanczos, with each new vector orthogonalised twice
    against all of Q. It stops when the next off-diagonal falls to floor,
    the block's _BREAKDOWN |H|_inf, where the space is invariant, or the
    block is full; None if neither happens within _KRYLOV_VECTORS vectors."""
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
    stepped through the samples in ascending time by _expm_samples instead.
    The only dense eigensolve is numpy's eigh of T, at most _KRYLOV_VECTORS
    rows; none of a sector block runs. The blocks and their breakdown floors
    are the ones the operator holds. Nothing is renormalised: PureState's
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
    for s, block, floor in zip(hamiltonian.basis.sectors, hamiltonian.blocks,
                               hamiltonian.floors):
        psi = psi0.amplitudes[s]
        if not psi.any():
            continue
        norm = np.linalg.norm(psi)
        krylov = _krylov_basis(block, floor, psi / norm)
        if krylov is None:  # from sample to sample instead
            order = np.argsort(times)
            a = -1j * block
            for i, v in zip(order, _expm_samples(a, _shifted_norms(a), psi, times[order])):
                out[i, s] = v
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


class _SectorTerms(NamedTuple):
    """What a chain generator reads of sector k: each off-diagonal entry of
    H_eff's block H_k (its row, column, place in its CSR row, and 1 if it
    lies right of the diagonal, else 0) with its value in -i H_k kron I and in
    I kron i conj(H_l); per row, how many of those entries it has and how
    many lie left of the diagonal, whether a diagonal entry is stored and
    its value in either term; and per state and exciton mode j the state of
    sector k + 1 that raising j gives, where b_j holds sqrt(n_j + 1) (none
    at the cutoff)."""

    n: int
    row: np.ndarray
    col: np.ndarray
    rank: np.ndarray
    right: np.ndarray
    vk: np.ndarray
    vl: np.ndarray
    n_off: np.ndarray
    n_left: np.ndarray
    diag: np.ndarray
    dk: np.ndarray
    dl: np.ndarray
    up: np.ndarray | None
    amp: np.ndarray | None


def _sector_terms(params: SystemParams, basis: FockBasis) -> list[_SectorTerms]:
    """The terms of every sector under H_eff = H - i(gamma/2) sum_j n_j and
    the lowerings b_j, built afresh for each trajectory from the Hamiltonian's
    sector blocks (about 3 ms on the default Lindblad basis, 2 shared vCPUs)."""
    blocks = build_hamiltonian(CouplingProfile.from_params(params), basis).blocks
    occ = basis.occupations
    n_excitons = occ[:, 1:].sum(axis=1).astype(float)
    raises = np.eye(basis.n_modes, dtype=np.int64)[1:]
    terms = []
    for k, (s, h) in enumerate(zip(basis.sectors, blocks)):
        n = h.shape[0]
        if params.decay_rate > 0.0:  # a zero of the difference is not stored
            h = h - sp.csr_matrix((0.5j * params.decay_rate * n_excitons[s],
                                   np.arange(n), np.arange(n + 1)), shape=(n, n))
        row = np.repeat(np.arange(n), np.diff(h.indptr))
        rank = np.arange(h.nnz) - h.indptr[row]
        on = h.indices == row
        vk, vl = -1j * h.data, 1j * h.data.conj()
        diag = np.zeros(n, dtype=bool)
        dk, dl = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
        diag[row[on]], dk[row[on]], dl[row[on]] = True, vk[on], vl[on]
        row, col = row[~on], h.indices[~on]
        up = amp = None
        if k < basis.max_total:
            up = basis.rank(occ[s, None, :] + raises) - basis.sector_offsets[k + 1]
            amp = np.sqrt(occ[s, 1:] + 1)
        terms.append(_SectorTerms(
            n, row, col, rank[~on], (col > row).astype(np.intp), vk[~on], vl[~on],
            np.bincount(row, minlength=n), np.bincount(row[col < row], minlength=n),
            diag, dk, dl, up, amp))
    return terms


def _chain_generator(terms: list[_SectorTerms], gamma: float, d: int,
                     top: int) -> sp.csr_matrix:
    """Generator on the stacked row-major vecs of rho[k, k-d], k = d..top,
    from the sector terms. As vec(A X B) = (A kron B^T) vec(X), block
    (k, l) evolves by -i(H_k kron I - I kron conj(H_l)) and, below top, is
    fed from (k+1, l+1) by gamma sum_j b_j kron conj(b_j): the chain is
    block upper bidiagonal.

    It is written straight into canonical CSR. indptr is counted first;
    then row (a, b) of block (k, l) takes, in column order, H_k's entries
    left of a, H_l's left of b, the diagonal (both terms summed where both
    are stored), H_l's right of b, H_k's right of a, and the feed, whose
    columns rise with j (raising a lower mode gives an earlier state of
    sector k + 1). Each word is the one that listing every term's entries
    and summing them in a conversion to CSR gives, and no list of them is
    formed."""
    blocks = []  # (l, first row, diagonal stored, feed count) per block
    counts, at = [], 0
    for k in range(d, top + 1):
        tk, tl = terms[k], terms[k - d]
        both = tk.diag[:, None] | tl.diag
        fed = tk.up.shape[1] if gamma > 0.0 and k < top else 0
        blocks.append((k - d, at, both, fed))
        counts.append((tk.n_off[:, None] + tl.n_off + both + fed).ravel())
        at += tk.n * tl.n
    counts = np.concatenate(counts)
    nnz = int(counts.sum())
    index = np.int32 if max(nnz, at) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(at + 1, dtype=index)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(nnz, dtype=index)
    data = np.empty(nnz, dtype=complex)
    for l, r0, both, fed in blocks:
        tk, tl = terms[l + d], terms[l]
        nk, nl = tk.n, tl.n
        first = indptr[r0:r0 + nk * nl].reshape(nk, nl)  # each row's first slot
        # H_k's entries right of a follow H_l's and the diagonal
        slots = np.stack([first, first + tl.n_off + both - tk.diag[:, None]])
        pos = slots[tk.right, tk.row] + tk.rank[:, None]
        indices[pos] = r0 + tk.col[:, None] * nl + np.arange(nl)
        data[pos] = tk.vk[:, None]
        left = first + tk.n_left[:, None]  # H_l's entries follow H_k's left of a
        slots = np.stack([left, left + both - tl.diag])
        pos = slots[tl.right, :, tl.row] + tl.rank[:, None]
        indices[pos] = r0 + np.arange(nk) * nl + tl.col[:, None]
        data[pos] = tl.vl[:, None]
        pos = (left + tl.n_left)[both]
        indices[pos] = r0 + np.flatnonzero(both)
        data[pos] = np.where(tk.diag[:, None] & tl.diag, tk.dk[:, None] + tl.dl,
                             np.where(tk.diag[:, None], tk.dk[:, None], tl.dl))[both]
        if fed:  # each row's last slots, from block (k+1, l+1) on
            pos = indptr[r0 + 1:r0 + 1 + nk * nl].reshape(nk, nl, 1) - fed + np.arange(fed)
            indices[pos] = r0 + nk * nl + tk.up[:, None] * terms[l + 1].n + tl.up
            data[pos] = gamma * (tk.amp[:, None] * tl.amp)
    return sp.csr_matrix((data, indices, indptr), shape=(at, at))


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
    if not norm / _THETA[1] < math.inf:  # the largest candidate step count
        raise InvalidParameter("times", f"span {t:.6g} needs more Taylor steps "
                               "than a float can count")
    return min(((m, math.ceil(norm / theta)) for m, theta in _THETA.items()),
               key=lambda ms: ms[0] * ms[1])


def _expm_step(a: sp.csr_matrix, norms: tuple[complex, float], v: np.ndarray,
               t: float) -> np.ndarray:
    """exp(tA) v by Al-Mohy and Higham's Algorithm 3.2 (SIAM J. Sci. Comput.
    33, 488, 2011): s steps, each the degree-m* Taylor series of
    exp(t(A - mu I)/s), cut short once two successive terms fall below
    2^-53 of the sum, times exp(t mu / s). norms = (mu, ||A - mu I||_1) of
    a, from _shifted_norms; the shift is applied inside each product, so no
    shifted copy of a is formed. v is only read; the result is a new array.

    Each term is t/(s(j+1)) (a b - mu b) taken in place, operand for operand
    as the allocating expression, so every bit is kept; only a b is a new
    vector. The stop test c1 + c2 <= 2^-53 max|f| runs on the exact max|f|
    only once it holds on an upper bound of it: the bound starts at c1 (b is
    f there) and grows per term to (bound + c2)(1 + 2^-50). With u = 2^-53,
    each part of f + b is rounded once, and a computed modulus (hypot) is
    within a factor 1 +- 2u of the exact one, plus 2^-1074 if subnormal; so
    the new max|f| is at most (1 + u)(1 + 2u)/(1 - 2u) < 1 + 5u + 1e-30
    times bound + c2, plus 2^-1073. Rounding the sum and the product keeps
    at least (1 + 2^-50)(1 - u)^2 > 1 + 6u - 1e-30 of it. The u (bound + c2)
    left over exceeds 2^-1073 once max|f| >= 2^-1019; below that, the exact
    test can pass only if c1 + c2 <= 2^-1072, which the prefilter admits
    outright. So every step breaks on the same term as the exact test.
    """
    mu, norm1 = norms
    m_star, s = _taylor_parameters(norm1, t)
    eta = np.exp(t * mu / s)
    f = np.array(v, dtype=complex)
    scratch = np.empty_like(f)
    mag = np.empty(f.shape)
    for _ in range(s):
        b = f
        c1 = bound = np.max(np.abs(b, out=mag))
        for j in range(m_star):
            w = a @ b
            np.multiply(mu, b, out=scratch)
            np.subtract(w, scratch, out=w)
            b = np.multiply(t / (s * (j + 1)), w, out=w)
            c2 = np.max(np.abs(b, out=mag))
            np.add(f, b, out=f)
            bound = (bound + c2) * (1.0 + 2.0 ** -50)
            if c1 + c2 <= 2.0 ** -53 * bound + 2.0 ** -1072:
                bound = np.max(np.abs(f, out=mag))
                if c1 + c2 <= 2.0 ** -53 * bound:
                    break
            c1 = c2
        np.multiply(eta, f, out=f)
    return f


def _expm_samples(a: sp.csr_matrix, norms: tuple[complex, float], v: np.ndarray,
                  times) -> list:
    """exp(tA) v at each time, in the order given, each stepped by
    _expm_step from the sample before (from v at t = 0); a time equal to the
    one before takes no step. norms is _shifted_norms(a)."""
    out, prev = [], 0.0
    for t in times:
        if t != prev:
            v = _expm_step(a, norms, v, t - prev)
        prev = t
        out.append(v)
    return out


def lindblad_trajectory(params: SystemParams, rho0: MixedState,
                        times) -> list[MixedState]:
    """Density matrices at the given times (ascending, from t=0) under
    drho/dt = -i[H,rho] + gamma sum_j D[b_j] rho.

    The generator conserves d = k - l, the row minus column sector excitation
    (loss moves block (k+1, l+1) into (k, l)). Each chain rho[k, k-d], d >= 0,
    that rho0 populates is read off rho0's blocks, each entry with k >= l
    scattered into its chain, and is propagated exactly between samples,
    one chain at a time, and checked by its guard: its last sample,
    recomputed from rho0 in one span (two halves after a one-span run), must
    agree within 1e-8. Only the chain vectors are kept until every chain
    has passed. Each sample is then assembled, as one block per class of
    sectors that the populated chains join (a cat's even and odd sectors),
    from its chain vectors alone: the d < 0 entries as adjoints and the
    d = 0 ones halved, and no array of dim^2 entries is formed. Each chain's
    generator is built just before the chain is propagated, only up to that
    chain's top, and let go before the next one is built, so at most one is
    alive; the sector terms they are built from are built once per call.
    """
    basis = rho0.basis
    if basis.dimension > _LINDBLAD_CAPACITY:
        raise CapacityExceeded(basis.dimension, _LINDBLAD_CAPACITY)
    if not all(0.0 <= t < math.inf for t in times) or any(
            b < a for a, b in zip(times, times[1:])):
        raise InvalidParameter("times", "must be finite, nonnegative and ascending")
    ranges = [np.arange(s.start, s.stop) for s in basis.sectors]
    sizes = np.diff(basis.sector_offsets)
    sector_of = np.repeat(np.arange(len(sizes)), sizes)
    place = np.arange(basis.dimension) - np.asarray(basis.sector_offsets)[sector_of]
    tops = np.full(len(sizes), -1)  # chain d's highest k with rho0[k, k-d] nonzero
    entries = []  # per block, its entries with k >= l: d, k, place in rho[k, l], value
    for members, block in rho0.blocks:
        i, j = np.nonzero(sector_of[members, None] >= sector_of[members])
        k, l = sector_of[members[i]], sector_of[members[j]]
        value = block[i, j]
        np.maximum.at(tops, (k - l)[value != 0], k[value != 0])
        entries.append((k - l, k, place[members[i]] * sizes[l] + place[members[j]], value))
    end = times[-1] if len(times) else 0.0
    n_spans = sum(b > a for a, b in zip([0.0, *times], times))
    guard = [end] if n_spans > 1 else [0.5 * end, end]
    terms = _sector_terms(params, basis)
    chains = []  # (d, top, vector at each time) per populated chain
    drift = 0.0
    for d in np.flatnonzero(tops >= 0).tolist():
        top = int(tops[d])
        # where rho[k, k - d] opens in the chain vector, k = d..top
        starts = np.concatenate([[0], np.cumsum(sizes[d:top + 1] * sizes[:top + 1 - d])])
        v0 = np.zeros(starts[-1], dtype=complex)
        for chain, k, at, value in entries:
            on = (chain == d) & (k <= top)
            v0[starts[k[on] - d] + at[on]] = value[on]
        generator = _chain_generator(terms, params.decay_rate, d, top)
        norms = _shifted_norms(generator)
        vectors = _expm_samples(generator, norms, v0, times)
        check = _expm_samples(generator, norms, v0, guard)[-1]
        del generator  # before the next chain's is built
        drift = max(drift, float(np.max(np.abs(check - (vectors or [v0])[-1]))))
        chains.append((d, top, vectors))
    if drift > _DRIFT_TOL:
        raise StepSizeUnstable(drift, _DRIFT_TOL)
    # the classes: sectors 0 to the highest top, joined along each chain d > 0
    linked = np.eye(max(top for _, top, _ in chains) + 1, dtype=bool)
    for d, top, _ in chains:
        k = np.arange(d, top + 1)
        linked[k, k - d] = linked[k - d, k] = True
    classes, slot = [], {}  # each class's members; each sector's class and rows
    for c, group in enumerate(coupled_blocks(linked)):
        members = np.concatenate([ranges[k] for k in group])
        members.setflags(write=False)  # shared by every sample
        classes.append(members)
        at = 0
        for k in group:
            slot[k] = (c, slice(at, at + len(ranges[k])))
            at += len(ranges[k])
    samples = []
    for i in range(len(times)):
        blocks = [np.zeros((len(members),) * 2, dtype=complex) for members in classes]
        for d, top, vectors in chains:
            at = 0
            for k in range(d, top + 1):  # sectors k and k - d share a class
                (c, rows), (_, cols) = slot[k], slot[k - d]
                shape = (len(ranges[k]), len(ranges[k - d]))
                blocks[c][rows, cols] = vectors[i][at:at + shape[0] * shape[1]].reshape(shape)
                at += shape[0] * shape[1]
            vectors[i] = None  # let each chain vector go once it is placed
        for block in blocks:
            block += block.conj().T  # the d < 0 blocks are the adjoints
        for c, rows in slot.values():
            blocks[c][rows, rows] *= 0.5  # d = 0: the Hermitian part, scrubbing roundoff
        for block in blocks:
            block.setflags(write=False)  # so the sample takes it uncopied
        samples.append(MixedState(basis=basis, blocks=list(zip(classes, blocks))))
    return samples


def reduce_to_qubit_pair(states, pairs, qubit_bases):
    """Two-qubit densities of one pair, or of each of a sequence of distinct
    pairs, in the requested bases along a trajectory: states on one basis,
    one qubit basis each, giving the TwoQubitDensity stack of the samples
    that are not degenerate, pair-major (every kept sample of the first
    pair, then of the next), and the per-sample degenerate mask. An empty or
    repeating pair sequence, a pair outside the basis, an empty trajectory,
    pure and mixed states together, two bases or a qubit-basis count other
    than the state count are refused before any work.

    NumberBasis keeps Fock levels {0,1} of each mode; TildeBasis(mu)
    projects onto the orthonormal even/odd superpositions of |+-mu>, none
    for |mu|^2 < 1e-12. The kets are built once per call, for every pair.
    Weight outside the qubit plane beyond 1e-8 in any sample of any pair
    raises LeakageError; smaller deficits are renormalized away. Nothing is
    clamped: an eigenvalue below -1e-10 raises NotADensityMatrix.
    """
    pairs = [pairs] if isinstance(pairs, PairIndex) else list(pairs)
    if not all(isinstance(p, PairIndex) for p in pairs):
        raise InvalidParameter("pairs", "not all PairIndex")
    if not pairs:
        raise InvalidParameter("pairs", "no pair to reduce")
    if len(set(pairs)) < len(pairs):
        raise InvalidParameter("pairs", "a pair is repeated")
    if len(states) != len(qubit_bases):
        raise DimensionMismatch(f"{len(states)} states vs {len(qubit_bases)} qubit bases")
    if not all(isinstance(q, (NumberBasis, TildeBasis)) for q in qubit_bases):
        raise TypeError("unsupported qubit basis")
    if not states:
        raise InvalidParameter("states", "empty trajectory")
    kind = type(states[0])
    if kind not in (PureState, MixedState) or any(type(s) is not kind for s in states):
        raise InvalidParameter("states", "not all PureState or all MixedState")
    basis = states[0].basis
    if any((s.basis.n_modes, s.basis.max_total) != (basis.n_modes, basis.max_total)
           for s in states):
        raise DimensionMismatch("states on different bases")
    for pair in pairs:
        pair.check_bounds(basis.n_modes - 1)
    plans = [basis.pair_plan(pair) for pair in pairs]
    span = basis.max_total + 1
    degenerate = np.array([isinstance(q, TildeBasis) and abs(complex(q.mu)) ** 2
                           < DEGENERACY_THRESHOLD for q in qubit_bases])
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
    mats = np.zeros((len(pairs), len(kept), 4, 4), dtype=complex)
    if kind is PureState:
        # psi[pair occupation, group]: the partial trace is psi psi^dagger.
        # A chunk of samples keeps the psi stack near 1 MiB. Every pair has
        # the same C(M+N-1, N-1) groups, ranked alike, and a state fills
        # entry (n_m (M+1) + n_n, group) with n_m + n_n + |group| <= M: each
        # sample of every pair fills the same entries, so one stack serves
        # every chunk and every pair uncleared
        n_groups = plans[0][2]
        chunk = max(1, (1 << 20) // (span * span * n_groups * 16))
        psi = np.zeros((min(chunk, len(kept)), span * span, n_groups), dtype=complex)
        for pair_mats, (pocc, group, _) in zip(mats, plans):
            for lo in range(0, len(kept), chunk):
                members = kept[lo:lo + chunk]
                for j, i in enumerate(members):
                    psi[j, pocc, group] = states[i].amplitudes
                phi = kets[lo:lo + chunk].conj().transpose(0, 2, 1) @ psi[:len(members)]
                pair_mats[lo:lo + chunk] = phi @ phi.conj().transpose(0, 2, 1)
    else:
        # only entries between states of one group survive the partial
        # trace, and only those within one block are nonzero: one product
        # per block and group, over that block's members of the group
        for pair_mats, (pocc, group, _) in zip(mats, plans):
            for mat, i, q in zip(pair_mats, kept, kets[:, pocc]):
                for members, block in states[i].blocks:
                    g = group[members]
                    order = np.argsort(g, kind="stable")
                    for idx in np.split(order, np.flatnonzero(np.diff(g[order])) + 1):
                        qg = q[members[idx]]
                        mat += qg.conj().T @ block[np.ix_(idx, idx)] @ qg
    mats = mats.reshape(-1, 4, 4)
    captured = mats.trace(axis1=1, axis2=2).real
    leak = 1.0 - captured
    if (leak > _LEAK_TOL).any():
        raise LeakageError(float(leak[leak > _LEAK_TOL].max()), _LEAK_TOL)
    mats /= captured[:, None, None]
    mats = 0.5 * (mats + mats.conj().transpose(0, 2, 1))
    tags = tuple(qubit_bases[i] for i in kept)
    return TwoQubitDensity(mats, tags * len(pairs)), degenerate


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
    return float(occ @ state.diagonal().real)


def total_excitation(state: PureState | MixedState) -> float:
    return sum(observable_mean_photon(state, j) for j in range(state.basis.n_modes))
