"""Exchange Hamiltonians and closed-form immediate-concurrence expressions.

Couplings are dimensionless multiples of the z exchange; the matching time
unit is hbar over that energy scale (hbar = 1 throughout).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SpinMagnitude,
    SystemDims,
    spin_operators,
)

PAULI = (PAULI_X, PAULI_Y, PAULI_Z)
# sigma_a ⊗ I + I ⊗ sigma_a for a = x, y, z: the two-qubit side of every exchange term
_PAIR_SUMS = tuple(np.kron(pauli, ID2) + np.kron(ID2, pauli) for pauli in PAULI)

# Validity window of the leading-order immediate-concurrence formulas: keeps
# the quadratic residual below ~1% of the linear term for |J| <= 3.
IMMEDIATE_DT_WINDOW = 0.05


@dataclass(frozen=True)
class ExchangeCoupling:
    """Exchange vector (jx, jy, jz)."""

    jx: float
    jy: float
    jz: float

    def __post_init__(self):
        if not all(np.isfinite([self.jx, self.jy, self.jz])):
            raise ValueError("exchange components must be finite")

    @classmethod
    def from_sequence(cls, seq) -> "ExchangeCoupling":
        jx, jy, jz = (float(x) for x in seq)
        return cls(jx, jy, jz)

    def as_array(self) -> np.ndarray:
        return np.array([self.jx, self.jy, self.jz], dtype=np.float64)

    def __neg__(self) -> "ExchangeCoupling":
        return ExchangeCoupling(-self.jx, -self.jy, -self.jz)


@dataclass(frozen=True)
class ProductSpinSpec:
    """Fully separable initial configuration: two spin directions plus a diagonal environment.

    ``env_weights`` holds the diagonal environment populations in
    descending-m order; ``None`` selects the pure highest-m level.
    """

    theta_a: float = 0.0
    phi_a: float = 0.0
    theta_b: float = 0.0
    phi_b: float = 0.0
    env_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        angles = (self.theta_a, self.phi_a, self.theta_b, self.phi_b)
        if not np.isfinite([*angles, *(self.env_weights or ())]).all():
            raise ValueError("spin angles and env weights must be finite")

    def resolved_env(self, s: SpinMagnitude) -> np.ndarray:
        if self.env_weights is None:
            w = np.zeros(s.dim)
            w[0] = 1.0
            return w
        w = np.asarray(self.env_weights, dtype=np.float64)
        if w.shape != (s.dim,):
            raise ValueError(f"env weights length {w.shape} does not match environment dimension {s.dim}")
        if np.any(w < 0):
            raise ValueError("env weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"env weights sum to {float(w.sum())!r}, not 1")
        return w


def spin_star_hamiltonian(j: ExchangeCoupling, s: SpinMagnitude) -> np.ndarray:
    """Central-spin exchange Hamiltonian sum_a J_a S_a (sigma_a^A + sigma_a^B).

    Hermitian, dimension 4(2S+1), symmetric under swapping A and B, and
    real, since Sy ⊗ sigma_y is a product of two imaginary matrices.  Built
    as sum_a J_a kron(S_a, sigma_a ⊗ I + I ⊗ sigma_a), one Kronecker
    product per nonzero coupling, whose zero pattern is exact.
    """
    dims = SystemDims.for_spin(s)
    h = np.zeros((dims.total, dims.total), dtype=np.complex128)
    for coupling, s_op, pair in zip(j.as_array(), spin_operators(s), _PAIR_SUMS):
        if coupling == 0.0:
            continue
        h += coupling * np.kron(s_op, pair)
    return h


def direct_hamiltonian(jdir: ExchangeCoupling) -> np.ndarray:
    """Two-qubit direct exchange sum_a J_a sigma_a^A sigma_a^B (4x4)."""
    h = np.zeros((4, 4), dtype=np.complex128)
    for coupling, pauli in zip(jdir.as_array(), PAULI):
        if coupling == 0.0:
            continue
        h += coupling * np.kron(pauli, pauli)
    return h


def _warn_outside_window(dt: float) -> None:
    if abs(dt) > IMMEDIATE_DT_WINDOW:
        warnings.warn(
            f"|dt|={abs(dt):.3g} exceeds the {IMMEDIATE_DT_WINDOW} validity window of the "
            "leading-order immediate-concurrence formula",
            stacklevel=3,
        )


def direct_immediate_concurrence(jdir: ExchangeCoupling, theta_b: float, dt: float) -> float:
    """Leading-order concurrence 2|dt (J_y - J_x cos theta_B)| for direct exchange.

    Valid for |dt| within the documented short-time window; even in dt and
    independent of the out-of-plane J_z.  The A spin points along z
    (theta_A = 0) and theta_B is the angle between the two initial spins.
    """
    _warn_outside_window(dt)
    return 2.0 * abs(dt * (jdir.jy - jdir.jx * np.cos(theta_b)))


def direct_immediate_concurrence_free(
    jdir: ExchangeCoupling, n_a, n_b, dt: float
) -> float:
    """Coordinate-free form of the leading-order direct-exchange concurrence.

    Uses the orthonormal frame spanned by the two spin directions:

        2|dt| * | J.e1 + (J.e2)(n_a.n_b) |

    with e1 the unit vector along n_a x n_b and e2 the unit vector along
    n_a x (n_a x n_b).  Reduces to :func:`direct_immediate_concurrence` for
    n_a = z and n_b in the x-z plane, and is invariant under simultaneous
    rotations of n_a, n_b and J.  Collinear spin directions give zero (the
    cross products vanish).
    """
    n_a = np.asarray(n_a, dtype=np.float64)
    n_b = np.asarray(n_b, dtype=np.float64)
    for name, v in (("n_a", n_a), ("n_b", n_b)):
        if v.shape != (3,):
            raise ValueError(f"{name} must be a 3-vector")
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError(f"{name} must be a unit vector")
    _warn_outside_window(dt)
    jvec = jdir.as_array()
    cross = np.cross(n_a, n_b)
    sin_ab = np.linalg.norm(cross)
    if sin_ab < 1e-12:
        return 0.0
    e1 = cross / sin_ab
    second = np.cross(n_a, cross)
    e2 = second / np.linalg.norm(second)
    value = jvec @ e1 + (jvec @ e2) * (n_a @ n_b)
    return 2.0 * abs(dt) * abs(value)
