"""Initial-state constructors: Bell family, switch-parameter weightings,
classical mixtures, purifications and separable product states.

The four fully entangled Bell states are, in (up-up, up-down, down-up,
down-down) order with A as the left qubit,

    alpha(+/-) = (|uu> +/- |dd>)/sqrt(2)
    beta(+/-)  = (|ud> +/- |du>)/sqrt(2)

and the partially entangled members interpolate with sqrt((1+p)/2) on the
first component and sqrt((1-p)/2) on the second, so the +/- pair overlap
equals p.  Global phases are fixed by making the largest amplitude real
positive.

Every constructor builds the ensemble factor B0; ``DensityOperator.from_factor`` forms the matrix B0 B0†.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import (
    AB_DIMS,
    DensityOperator,
    Ket,
    SpinMagnitude,
    SystemDims,
    basis_ket_c,
    qubit_ket,
)
from .model import ProductSpinSpec

WEIGHTING_IDS = tuple(f"W{i}" for i in range(1, 15))

# the qubit z basis, by the letters of the named product configurations
Z_KETS = {"u": np.array([1.0, 0.0], dtype=np.complex128), "d": np.array([0.0, 1.0], dtype=np.complex128)}


@dataclass(frozen=True)
class BellKind:
    """One member of the Bell family: alpha/beta branch, relative sign, mixing p."""

    family: str
    sign: int = +1
    p: float = 0.0

    def __post_init__(self):
        if self.family not in ("alpha", "beta"):
            raise ValueError(f"family must be 'alpha' or 'beta', got {self.family!r}")
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        if not (0.0 <= self.p < 1.0):
            raise ValueError(f"p must lie in [0, 1), got {self.p}")


@dataclass(frozen=True)
class EspWeighting:
    """Normalized 4-vector of Bell weights (alpha+, alpha-, beta+, beta-)."""

    id: str
    epsilon: float
    weights: tuple[float, float, float, float]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if np.any(w < 0):
            raise ValueError(f"weights must be nonnegative, got {self.weights}")
        if abs(w.sum() - 1.0) > 1e-14:
            raise ValueError(f"weights sum to {w.sum()!r}, not 1")

    @property
    def bell_count(self) -> int:
        return int(np.count_nonzero(np.asarray(self.weights)))

    @property
    def penetrable(self) -> bool:
        return self.bell_count > 2

    def matched_spin(self) -> SpinMagnitude:
        """Environment spin whose level count equals the number of Bell components."""
        return SpinMagnitude(self.bell_count - 1)


def bell_ket(kind: BellKind) -> Ket:
    """Bell-family state vector on the A-B pair."""
    hi = np.sqrt((1.0 + kind.p) / 2.0)
    lo = np.sqrt((1.0 - kind.p) / 2.0)
    amps = np.zeros(4, dtype=np.complex128)
    if kind.family == "alpha":
        amps[0] = hi
        amps[3] = kind.sign * lo
    else:
        amps[1] = hi
        amps[2] = kind.sign * lo
    return Ket(amps, AB_DIMS)


# the fully entangled Bell states as columns, in weight order (alpha+, alpha-, beta+, beta-)
BELL_BASIS = np.stack([bell_ket(BellKind(f, sign)).amplitudes for f in ("alpha", "beta") for sign in (1, -1)], axis=1)


def _distribute(epsilon: float, main_slot: int, share_slots: tuple[int, ...]) -> tuple[float, ...]:
    """Weights with (1+eps)/2 on one slot and the remainder split evenly.

    The last nonzero slot absorbs the rounding defect (at most one ulp) so
    the slots stay on the tabulated rational values and the total is 1.0 in
    floating point on the reference switch-parameter grid.
    """
    w = [0.0, 0.0, 0.0, 0.0]
    w[main_slot] = (1.0 + epsilon) / 2.0
    share = (1.0 - epsilon) / (2.0 * len(share_slots))
    for slot in share_slots[:-1]:
        w[slot] = share
    w[share_slots[-1]] = 1.0 - w[main_slot] - share * (len(share_slots) - 1)
    return tuple(w)


_WEIGHTING_SLOTS: dict[str, tuple[int, tuple[int, ...]]] = {
    # two Bell components
    "W1": (0, (1,)),
    "W2": (0, (2,)),
    "W3": (0, (3,)),
    "W4": (1, (2,)),
    "W5": (1, (3,)),
    "W6": (2, (3,)),
    # three Bell components
    "W7": (0, (1, 2)),
    "W8": (1, (2, 3)),
    "W9": (2, (0, 3)),
    "W10": (3, (0, 1)),
    # four Bell components
    "W11": (0, (1, 2, 3)),
    "W12": (1, (0, 2, 3)),
    "W13": (2, (0, 1, 3)),
    "W14": (3, (0, 1, 2)),
}


def esp_weighting(weighting_id: str, epsilon: float) -> EspWeighting:
    """One of the fourteen tabulated switch-parameter weightings.

    The dominant slot carries weight (1+eps)/2 and the remaining components
    share (1-eps)/2 evenly; eps must lie in (-1, 1) so all weights stay in
    [0, 1].
    """
    if weighting_id not in _WEIGHTING_SLOTS:
        raise ValueError(f"unknown weighting id {weighting_id!r} (expected W1..W14)")
    if not (-1.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (-1, 1), got {epsilon}")
    main, shares = _WEIGHTING_SLOTS[weighting_id]
    return EspWeighting(weighting_id, epsilon, _distribute(epsilon, main, shares))


def _mixture_factor(w: EspWeighting) -> np.ndarray:
    """The 4 x r factor F of sum_i w_i |i><i|: one column sqrt(w_i) |i> per nonzero weight, in weight order."""
    nonzero = np.flatnonzero(w.weights)
    return BELL_BASIS[:, nonzero] * np.sqrt(np.take(w.weights, nonzero))


def bell_mixture(w: EspWeighting) -> DensityOperator:
    """Classical Bell mixture on the A-B pair: sum_i w_i |i><i| = F F†."""
    return DensityOperator.from_factor(_mixture_factor(w), AB_DIMS)


def mixed_initial(w: EspWeighting, s: SpinMagnitude) -> DensityOperator:
    """Classically weighted initial state with the environment at its top level.

    The full matrix is |m=S><m=S| ⊗ sum_i w_i |i><i|, with factor
    |m=S> ⊗ F; tracing out the environment returns the plain Bell mixture.
    """
    return DensityOperator.from_factor(np.kron(basis_ket_c(s, s.s)[:, None], _mixture_factor(w)), SystemDims.for_spin(s))


def pure_initial(w: EspWeighting, s: SpinMagnitude) -> Ket:
    """Purification pairing each nonzero Bell weight with one environment level.

    Environment levels are consumed in descending m starting from |m=S>,
    while the Bell components are taken in the fixed (alpha+, alpha-,
    beta+, beta-) order; amplitudes are the square roots of the weights.
    The number of nonzero weights must equal the environment dimension, and
    tracing out the environment reproduces the classical mixture exactly.
    """
    if w.bell_count != s.dim:
        raise ValueError(
            f"weighting {w.id} has {w.bell_count} nonzero components but the "
            f"environment provides {s.dim} levels; use S = (count-1)/2"
        )
    # sum_k |m_k> ⊗ F[:, k] lists the columns of F one environment level after another
    return Ket(_mixture_factor(w).T.ravel(), SystemDims.for_spin(s))


def bell_initial(kind: BellKind, s: SpinMagnitude) -> Ket:
    """Bell-family pair with the environment at its top level: |m=S> ⊗ |pair>."""
    return Ket(np.kron(basis_ket_c(s, s.s), bell_ket(kind).amplitudes), SystemDims.for_spin(s))


def product_initial(spec: ProductSpinSpec, s: SpinMagnitude) -> DensityOperator:
    """Fully separable initial state rho_C ⊗ |a><a| ⊗ |b><b|.

    Its factor has one column sqrt(w_k) |k> ⊗ |a> ⊗ |b> per nonzero
    environment weight w_k.
    """
    ka = qubit_ket(spec.theta_a, spec.phi_a)
    kb = qubit_ket(spec.theta_b, spec.phi_b)
    return _product_state(spec.resolved_env(s), ka, kb, s)


def _product_state(weights: np.ndarray, ka: np.ndarray, kb: np.ndarray, s: SpinMagnitude) -> DensityOperator:
    levels = np.flatnonzero(weights)
    env = np.eye(s.dim)[:, levels] * np.sqrt(weights[levels])
    return DensityOperator.from_factor(np.kron(env, np.kron(ka, kb)[:, None]), SystemDims.for_spin(s))


def product_basis_initial(state: str, s: SpinMagnitude) -> DensityOperator:
    """Named z-basis product configurations "uuu", "uud", "udd" (C at |m=S>).

    The qubits are exact basis vectors, not spin-coherent kets at theta = pi,
    whose cos(pi/2) = 6.1e-17 would leave them off the basis; the factor
    has one column with a single nonzero entry.
    """
    if state not in ("uuu", "uud", "udd"):
        raise ValueError(f"unknown product configuration {state!r}")
    return _product_state(ProductSpinSpec().resolved_env(s), Z_KETS[state[1]], Z_KETS[state[2]], s)
