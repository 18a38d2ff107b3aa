"""Two-qubit entanglement kernel: the validated density, spin flip and
Wootters concurrence."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotADensityMatrix

# Tolerances for density-matrix hygiene.
_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-10
_EIGENVALUE_FLOOR = -1e-10
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


def _density(entries) -> np.ndarray:
    """A private read-only copy of a 4x4 density matrix or (S, 4, 4) stack,
    once each one's hygiene (Hermiticity, unit trace, positivity) is checked."""
    mat = _as_matrix(entries).copy()
    # `not (... <= ...).all()` so that a NaN entry of any matrix fails each check
    if not (np.abs(mat - mat.conj().swapaxes(-1, -2)) <= _HERMITICITY_TOL).all():
        raise NotADensityMatrix("not Hermitian within 1e-12")
    if not (np.abs(mat.trace(axis1=-2, axis2=-1) - 1.0) <= _TRACE_TOL).all():
        raise NotADensityMatrix("trace differs from 1 beyond 1e-10")
    if not (np.linalg.eigvalsh(mat) >= _EIGENVALUE_FLOOR).all():
        raise NotADensityMatrix("negative eigenvalue beyond -1e-10")
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class TwoQubitDensity:
    """Validated 4x4 density matrix in basis order {|00>, |01>, |10>, |11>},
    or a (S, 4, 4) stack of them with a tuple of S tags.

    entries is a read-only copy: the caller's array stays its own.
    basis_tag is an analytic.NumberBasis or analytic.TildeBasis.
    """

    entries: np.ndarray
    basis_tag: object

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _density(self.entries))


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
    the flip and bring sqrt(eps) back. A bare array is checked for hygiene
    first; a TwoQubitDensity already was. A stack takes one eigh and one
    SVD per kept rank r, on r x r: each matrix meets its LAPACK calls alone.
    """
    mat = rho.entries if isinstance(rho, TwoQubitDensity) else _density(rho)
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
