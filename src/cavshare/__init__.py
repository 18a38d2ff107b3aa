"""Pairwise entanglement of N bosonic modes sharing one cavity photon field.

Closed-form dynamics (lossless and damped), a truncated-Fock brute-force
oracle, the Wootters concurrence kernel, intensity optimization, and a CSV
command-line driver.
"""

from types import ModuleType as _ModuleType

from .analytic import (
    cat_qubit_basis,
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
    damped_qubit_basis,
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
    NumberBasis,
    PairIndex,
    ParityKind,
    SinglePhoton,
    SystemParams,
    TildeBasis,
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


# the public names bound above, submodules aside, and the oracle's
__all__ = sorted({name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _ModuleType)}
                 | _FOCKSPACE_NAMES)
