"""Two-qubit entanglement dynamics in a central-spin exchange model.

Builds spin-star and direct-exchange Hamiltonians, prepares the Bell-based
initial states whose switch parameter toggles entanglement on and off,
evolves them exactly, and measures negativity/concurrence trajectories,
including detection of sudden death, sudden birth and finite-duration
transitions.
"""

from .densemat import hermitian_eig
from .dynamics import (
    EvolutionSpec,
    SpectralPropagator,
    Trajectory,
    evolve_exact,
    evolve_series,
    integrate_vonneumann,
    sample_trajectories,
    sample_trajectory,
    time_reversed_state,
)
from .hilbert import (
    DensityOperator,
    Ket,
    SpinMagnitude,
    SystemDims,
    partial_trace_c,
    partial_transpose_b,
    spin_operators,
)
from .model import (
    ExchangeCoupling,
    ProductSpinSpec,
    direct_hamiltonian,
    direct_immediate_concurrence,
    direct_immediate_concurrence_free,
    spin_star_hamiltonian,
)
from .monotones import cne, concurrence, negativity
from .states import (
    BellKind,
    EspWeighting,
    bell_ket,
    bell_mixture,
    esp_weighting,
    mixed_initial,
    product_basis_initial,
    product_initial,
    pure_initial,
)

__version__ = "0.1.0"

__all__ = [
    "hermitian_eig",
    "EvolutionSpec",
    "SpectralPropagator",
    "Trajectory",
    "evolve_exact",
    "evolve_series",
    "integrate_vonneumann",
    "sample_trajectories",
    "sample_trajectory",
    "time_reversed_state",
    "DensityOperator",
    "Ket",
    "SpinMagnitude",
    "SystemDims",
    "partial_trace_c",
    "partial_transpose_b",
    "spin_operators",
    "ExchangeCoupling",
    "ProductSpinSpec",
    "direct_hamiltonian",
    "direct_immediate_concurrence",
    "direct_immediate_concurrence_free",
    "spin_star_hamiltonian",
    "cne",
    "concurrence",
    "negativity",
    "BellKind",
    "EspWeighting",
    "bell_ket",
    "bell_mixture",
    "esp_weighting",
    "mixed_initial",
    "product_basis_initial",
    "product_initial",
    "pure_initial",
    "__version__",
]
