"""Pairwise entanglement of N bosonic modes sharing one cavity photon field.

Closed-form dynamics (lossless and damped), a truncated-Fock brute-force
oracle, the Wootters concurrence kernel, intensity optimization, and a CSV
command-line driver.
"""

from .analytic import (
    NumberBasis,
    TildeBasis,
    cavity_overlap,
    coherent_concurrence,
    coherent_pair_density,
    isotropic_amplitudes,
    mean_photon_number,
    single_photon_concurrence,
    single_photon_pair_density,
    transfer_coefficients,
)
from .dissipative import (
    DampedAmplitudes,
    damped_amplitudes,
    damped_concurrence,
    damped_concurrence_weak_coupling,
    damped_overlap,
    damped_pair_density,
)
from .entanglement import TwoQubitDensity, concurrence, spin_flip
from .errors import (
    CapacityExceeded,
    DegenerateBasis,
    DimensionMismatch,
    DomainError,
    InvalidParameter,
    LeakageError,
    NoRoot,
    NotADensityMatrix,
    OverdampedRegime,
    ParseError,
    StepSizeUnstable,
    TruncationTooSmall,
    UnknownKey,
)
from .model import (
    Cat,
    Coherent,
    CouplingProfile,
    PairIndex,
    ParityKind,
    SinglePhoton,
    SystemParams,
)
from .optimize import OptimumReport, lambert_w0, optimal_intensity, threshold_intensity

__version__ = "0.1.0"

# The Fock oracle's names load fockspace, and scipy.sparse with it, on first
# use (PEP 562), so the closed-form commands never import either
_FOCKSPACE_NAMES = frozenset({
    "FockBasis",
    "MixedState",
    "PureState",
    "SparseHermitian",
    "build_basis",
    "build_hamiltonian",
    "evolve_unitary",
    "lindblad_trajectory",
    "minimum_truncation",
    "observable_mean_photon",
    "prepare_initial",
    "reduce_to_qubit_pair",
    "total_excitation",
    "unitary_trajectory",
    "w_state_fidelity",
})


def __getattr__(name: str):
    if name in _FOCKSPACE_NAMES:
        from . import fockspace
        return getattr(fockspace, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Cat",
    "CapacityExceeded",
    "Coherent",
    "CouplingProfile",
    "DampedAmplitudes",
    "DegenerateBasis",
    "DimensionMismatch",
    "DomainError",
    "FockBasis",
    "InvalidParameter",
    "LeakageError",
    "MixedState",
    "NoRoot",
    "NotADensityMatrix",
    "NumberBasis",
    "OptimumReport",
    "OverdampedRegime",
    "PairIndex",
    "ParityKind",
    "ParseError",
    "PureState",
    "SinglePhoton",
    "SparseHermitian",
    "StepSizeUnstable",
    "SystemParams",
    "TildeBasis",
    "TruncationTooSmall",
    "TwoQubitDensity",
    "UnknownKey",
    "build_basis",
    "build_hamiltonian",
    "cavity_overlap",
    "coherent_concurrence",
    "coherent_pair_density",
    "concurrence",
    "damped_amplitudes",
    "damped_concurrence",
    "damped_concurrence_weak_coupling",
    "damped_overlap",
    "damped_pair_density",
    "evolve_unitary",
    "isotropic_amplitudes",
    "lambert_w0",
    "lindblad_trajectory",
    "mean_photon_number",
    "minimum_truncation",
    "observable_mean_photon",
    "optimal_intensity",
    "prepare_initial",
    "reduce_to_qubit_pair",
    "single_photon_concurrence",
    "single_photon_pair_density",
    "spin_flip",
    "threshold_intensity",
    "total_excitation",
    "transfer_coefficients",
    "unitary_trajectory",
    "w_state_fidelity",
]
