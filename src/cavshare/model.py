"""Domain types, validated on construction.

Conventions used throughout the package: hbar = 1, all couplings are real
and positive, and dynamics is expressed in the frame rotating at the common
mode frequency, so no frequency appears.
Public time arguments of the closed-form modules are dimensionless (Gt with
G = g sqrt(N), or G't for anisotropic profiles). The Fock-space oracle takes
raw time t: ``SystemParams.time_from_gt`` converts.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .errors import InvalidParameter

# Below this squared mode amplitude the even/odd cat qubit basis is treated
# as degenerate and closed forms return their limiting values instead.
DEGENERACY_THRESHOLD = 1e-12


class ParityKind(Enum):
    """Parity of a coherent-state superposition: even is +, odd is -."""

    EVEN = "even"
    ODD = "odd"

    @property
    def sign(self) -> float:
        return 1.0 if self is ParityKind.EVEN else -1.0


def _require(condition: bool, name: str, reason: str) -> None:
    if not condition:
        raise InvalidParameter(name, reason)


def _finite(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


@dataclass(frozen=True)
class SystemParams:
    """Isotropic system configuration: N modes, one cavity, uniform coupling.

    intensity is |alpha|^2 of the cavity field preparation; field_phase is
    arg(alpha). decay_rate is the per-mode population loss rate gamma.
    """

    n_crystallites: int
    coupling: float = 1.0
    decay_rate: float = 0.0
    intensity: float = 0.0
    field_phase: float = 0.0
    parity: ParityKind = ParityKind.ODD

    def __post_init__(self) -> None:
        _require(isinstance(self.n_crystallites, int)
                 and not isinstance(self.n_crystallites, bool),
                 "n_crystallites", "must be an integer")
        _require(self.n_crystallites >= 2, "n_crystallites",
                 "pairwise entanglement needs at least two modes")
        _require(_finite(self.coupling) and self.coupling > 0, "coupling",
                 "must be finite and > 0")
        for name in ("decay_rate", "intensity"):
            value = getattr(self, name)
            _require(_finite(value) and value >= 0, name, "must be finite and >= 0")
        _require(_finite(self.field_phase), "field_phase", "must be finite")
        _require(isinstance(self.parity, ParityKind), "parity", "must be a ParityKind")

    @property
    def collective_rate(self) -> float:
        """Collective coupling G = g sqrt(N)."""
        return self.coupling * math.sqrt(self.n_crystallites)

    @property
    def alpha(self) -> complex:
        """Cavity coherent amplitude sqrt(intensity) * exp(i field_phase)."""
        return math.sqrt(self.intensity) * cmath.exp(1j * self.field_phase)

    def time_from_gt(self, gt: float) -> float:
        return gt / self.collective_rate


@dataclass(frozen=True)
class CouplingProfile:
    """Per-mode coupling strengths (g_1 .. g_N), possibly anisotropic."""

    couplings: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "couplings", tuple(float(g) for g in self.couplings))
        _require(len(self.couplings) >= 2, "couplings", "need at least two modes")
        for j, g in enumerate(self.couplings, start=1):
            _require(_finite(g) and g > 0, f"couplings[{j}]", "must be finite and > 0")

    def __len__(self) -> int:
        return len(self.couplings)

    @property
    def collective_rate(self) -> float:
        """G' = sqrt(sum g_j^2)."""
        return math.sqrt(sum(g * g for g in self.couplings))

    @classmethod
    def isotropic(cls, coupling: float, n: int) -> "CouplingProfile":
        return cls(couplings=(float(coupling),) * n)

    @classmethod
    def from_params(cls, params: SystemParams) -> "CouplingProfile":
        return cls.isotropic(params.coupling, params.n_crystallites)


@dataclass(frozen=True)
class PairIndex:
    """One-based indices of the two modes whose joint state is reduced."""

    m: int
    n: int

    def __post_init__(self) -> None:
        _require(isinstance(self.m, int) and isinstance(self.n, int), "pair",
                 "indices must be integers")
        _require(self.m >= 1 and self.n >= 1, "pair", "indices are one-based")
        _require(self.m != self.n, "pair", "indices must differ")

    def check_bounds(self, n_modes: int) -> "PairIndex":
        _require(self.m <= n_modes and self.n <= n_modes, "pair",
                 f"indices must be <= {n_modes}")
        return self


@dataclass(frozen=True)
class SinglePhoton:
    """One cavity photon, all modes in vacuum."""


@dataclass(frozen=True)
class Coherent:
    """Cavity coherent state |alpha>, all modes in vacuum."""

    alpha: complex


@dataclass(frozen=True)
class Cat:
    """Even or odd cavity cat state; alpha may be deferred to SystemParams."""

    parity: ParityKind
    alpha: complex | None = None


@dataclass(frozen=True)
class NumberBasis:
    """Qubit basis: mode occupation restricted to {0, 1}."""


@dataclass(frozen=True)
class TildeBasis:
    """Qubit basis spanned by the even/odd cat states of amplitude mu."""

    mu: complex
