"""Two-qubit entanglement kernel: the validated density, spin flip and
Wootters concurrence."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotADensityMatrix

# eigenvalues of rho up to this fraction of the largest are rounding, below
# what eigh resolves: the concurrence treats them as zero
_RANK_TOL = 8.0 * np.finfo(float).eps

# sigma_y (x) sigma_y in the product basis {|00>, |01>, |10>, |11>}
_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ],
    dtype=complex,
)


def _as_matrix(rho) -> np.ndarray:
    mat = np.asarray(getattr(rho, "entries", rho), dtype=complex)
    if mat.ndim not in (2, 3) or mat.shape[-2:] != (4, 4):
        raise NotADensityMatrix(f"expected 4x4 matrices, got shape {mat.shape}")
    return mat


def coupled_blocks(mat: np.ndarray) -> list[np.ndarray]:
    """The index sets of a (d, d) matrix's coupled blocks, each ascending,
    in the order of their lowest index. A block is an index set that no
    nonzero entry joins to the rest in either direction; -0.0 counts as
    zero, NaN and Inf do not. A row and column that are entirely zero
    belong to no block."""
    linked = mat != 0
    linked |= linked.T
    unseen = linked.any(axis=0)
    blocks = []
    while unseen.any():  # breadth first from the lowest index not yet placed
        block = np.zeros(len(mat), dtype=bool)
        frontier = block.copy()
        frontier[unseen.argmax()] = True
        while frontier.any():
            block |= frontier
            frontier = linked[frontier].any(axis=0) & ~block
        unseen &= ~block
        blocks.append(np.flatnonzero(block))
    return blocks


def check_blocks(parts, trace, tol: float) -> None:
    """The package's one density-matrix validator. parts, a sequence read
    twice, are the square blocks of one matrix, every entry between or
    outside them zero (a MixedState's), or a single matrix or (S, d, d)
    stack as one part; trace is the whole matrix's (or each matrix's)
    trace. Each part must be Hermitian within tol/100 by modulus and have
    no eigenvalue below -tol, and each trace must be real within tol of 1,
    or NotADensityMatrix is raised. The Hermitian check runs on every part,
    then the trace, then the shifted Cholesky on every part, each part as
    given. Every check is a `not (... <= ...)`, so a NaN anywhere fails it.

    A matrix is Hermitian exactly when each block is, and mat + tol I
    (tol > 0) is positive definite exactly when each block plus tol I is:
    an empty row adds the eigenvalue tol. So blocks meet the same verdict
    and message as the whole matrix, up to a pivot within rounding of -tol,
    at the cost of the blocks. A NaN or Inf entry is nonzero, so it sits in
    a coupled block and fails its Hermitian check there."""
    for part in parts:
        # max |part - part^H|^2 over two real temporaries, its real and
        # imaginary parts squared in place
        skew = part.real - part.real.swapaxes(-1, -2)
        imag = part.imag + part.imag.swapaxes(-1, -2)
        skew *= skew
        imag *= imag
        skew += imag
        if not skew.max(initial=0.0) <= (tol / 100.0) ** 2:
            raise NotADensityMatrix(f"not Hermitian within {tol / 100.0:.0e}")
    if not (np.abs(np.real(trace) - 1.0) <= tol).all():
        raise NotADensityMatrix(f"trace differs from 1 beyond {tol:.0e}")
    for part in parts:
        # no eigenvalue below -tol exactly when part + tol I has a Cholesky
        # factor (up to rounding there); the shift goes on a copy
        d = part.shape[-1]
        shifted = part.copy()
        shifted.reshape(-1, d * d)[:, ::d + 1] += tol
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            raise NotADensityMatrix(f"negative eigenvalue beyond {-tol:.0e}") from None


def check_density(mat: np.ndarray, tol: float) -> np.ndarray:
    """check_blocks on a complex (d, d) matrix or a stack of them, whole.
    Returns mat read-only, copied first if it was writeable, so the
    caller's array stays its own."""
    check_blocks([mat], mat.trace(axis1=-2, axis2=-1), tol)
    mat = mat.copy() if mat.flags.writeable else mat
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class TwoQubitDensity:
    """Validated 4x4 density matrix in basis order {|00>, |01>, |10>, |11>},
    or a (S, 4, 4) stack of them with a tuple of S tags.

    entries is a read-only copy: the caller's array stays its own.
    basis_tag is a model.NumberBasis or model.TildeBasis.
    """

    entries: np.ndarray
    basis_tag: object

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", check_density(_as_matrix(self.entries), 1e-10))


def spin_flip(rho) -> np.ndarray:
    """Return (sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y).

    Complex conjugation is taken entrywise in the standard product basis.
    Accepts a TwoQubitDensity or a bare 4x4 array, or a stack of either.
    """
    mat = _as_matrix(rho)
    return _FLIP @ mat.conj() @ _FLIP


def concurrence(rho):
    """Wootters concurrence of a two-qubit density matrix (an array for a stack).

    Computed as max(0, l1 - l2 - l3 - l4) where the l_i are the decreasingly
    sorted square roots of the eigenvalues of rho * spin_flip(rho). Those are
    the singular values of tau = X^T (sigma_y x sigma_y) X for any X with
    rho = X X^dagger (Wootters, PRL 80, 2245, 1998; Uhlmann, PRA 62, 032307,
    2000); X is taken from the eigenpairs of rho above rounding. Singular
    values carry an absolute error of about eps ||tau||, where square roots
    of the near-zero eigenvalues of rho * spin_flip(rho) would carry
    sqrt(eps). A rounding-level eigenpair of rho is dropped, not kept: its
    column, of size sqrt(eps), would otherwise pair with a large one under
    the flip and bring sqrt(eps) back. A bare array goes through check_density
    first; a TwoQubitDensity already did. A stack takes one eigh and one
    SVD per kept rank r, on r x r: each matrix meets its LAPACK calls alone.
    """
    mat = (rho.entries if isinstance(rho, TwoQubitDensity)
           else check_density(_as_matrix(rho), 1e-10))
    w, u = np.linalg.eigh(mat.reshape(-1, 4, 4))
    rank = (w > _RANK_TOL * w[:, -1:]).sum(axis=1)  # the kept are the top r
    lam = np.zeros((len(w), 4))
    for r in set(rank.tolist()):
        members = np.flatnonzero(rank == r)
        x = u[members, :, 4 - r:] * np.sqrt(w[members, 4 - r:])[:, None, :]
        tau = x.transpose(0, 2, 1) @ _FLIP @ x
        lam[members, :r] = np.linalg.svd(tau, compute_uv=False)
    value = lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]
    value[value < 0.0] = 0.0  # min(max(value, 0), 1), down to the sign of zero
    value[value > 1.0] = 1.0
    return float(value[0]) if mat.ndim == 2 else value
