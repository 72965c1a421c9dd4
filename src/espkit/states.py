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

BELL_ORDER = ("alpha+", "alpha-", "beta+", "beta-")

WEIGHTING_IDS = tuple(f"W{i}" for i in range(1, 15))


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


def bell_ket_by_label(label: str) -> Ket:
    family, sign = label[:-1], label[-1]
    return bell_ket(BellKind(family, +1 if sign == "+" else -1))


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


def bell_mixture(w: EspWeighting) -> DensityOperator:
    """Classical Bell mixture on the A-B pair: sum_i w_i |i><i|.

    Its factor has one column sqrt(w_i) |i> per nonzero weight.
    """
    m = np.zeros((4, 4), dtype=np.complex128)
    columns = []
    for weight, label in zip(w.weights, BELL_ORDER):
        if weight == 0.0:
            continue
        amps = bell_ket_by_label(label).amplitudes
        m += weight * np.outer(amps, amps.conj())
        columns.append(np.sqrt(weight) * amps)
    return DensityOperator(m, AB_DIMS, factor=np.stack(columns, axis=1))


def mixed_initial(w: EspWeighting, s: SpinMagnitude) -> DensityOperator:
    """Classically weighted initial state with the environment at its top level.

    The full matrix is |m=S><m=S| ⊗ sum_i w_i |i><i|; tracing out the
    environment returns the plain Bell mixture.
    """
    env = basis_ket_c(s, s.s)
    env_dm = np.outer(env, env.conj())
    ab = bell_mixture(w)
    return DensityOperator(np.kron(env_dm, ab.matrix), SystemDims.for_spin(s), factor=np.kron(env[:, None], ab.factor))


def pure_initial(w: EspWeighting, s: SpinMagnitude) -> Ket:
    """Purification pairing each nonzero Bell weight with one environment level.

    Environment levels are consumed in descending m starting from |m=S>,
    while the Bell components are taken in the fixed (alpha+, alpha-,
    beta+, beta-) order; amplitudes are the square roots of the weights.
    The number of nonzero weights must equal the environment dimension, and
    tracing out the environment reproduces the classical mixture exactly.
    """
    nonzero = [(weight, label) for weight, label in zip(w.weights, BELL_ORDER) if weight != 0.0]
    if len(nonzero) != s.dim:
        raise ValueError(
            f"weighting {w.id} has {len(nonzero)} nonzero components but the "
            f"environment provides {s.dim} levels; use S = (count-1)/2"
        )
    dims = SystemDims.for_spin(s)
    amps = np.zeros(dims.total, dtype=np.complex128)
    mvals = s.m_values()
    for (weight, label), m in zip(nonzero, mvals):
        env = basis_ket_c(s, m)
        amps += np.sqrt(weight) * np.kron(env, bell_ket_by_label(label).amplitudes)
    return Ket(amps, dims)


def bell_initial(kind: BellKind, s: SpinMagnitude) -> Ket:
    """Bell-family pair with the environment at its top level: |m=S> ⊗ |pair>."""
    return Ket(np.kron(basis_ket_c(s, s.s), bell_ket(kind).amplitudes), SystemDims.for_spin(s))


def product_initial(spec: ProductSpinSpec, s: SpinMagnitude) -> DensityOperator:
    """Fully separable initial state rho_C ⊗ |a><a| ⊗ |b><b|.

    Its factor has one column sqrt(w_k) |k> ⊗ |a> ⊗ |b> per nonzero
    environment weight w_k.
    """
    weights = spec.resolved_env(s)
    ka = qubit_ket(spec.theta_a, spec.phi_a)
    kb = qubit_ket(spec.theta_b, spec.phi_b)
    m = np.kron(np.diag(weights).astype(np.complex128), np.kron(np.outer(ka, ka.conj()), np.outer(kb, kb.conj())))
    levels = np.flatnonzero(weights)
    env = np.eye(s.dim)[:, levels] * np.sqrt(weights[levels])
    return DensityOperator(m, SystemDims.for_spin(s), factor=np.kron(env, np.kron(ka, kb)[:, None]))


def product_basis_initial(state: str, s: SpinMagnitude) -> DensityOperator:
    """Named z-basis product configurations "uuu", "uud", "udd" (C at |m=S>)."""
    angles = {"uuu": (0.0, 0.0), "uud": (0.0, np.pi), "udd": (np.pi, np.pi)}
    if state not in angles:
        raise ValueError(f"unknown product configuration {state!r}")
    theta_a, theta_b = angles[state]
    return product_initial(ProductSpinSpec(theta_a=theta_a, theta_b=theta_b), s)
