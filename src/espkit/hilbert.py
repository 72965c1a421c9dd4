"""Spin algebra and composite-space bookkeeping.

The composite Hilbert space is ordered environment ⊗ qubit A ⊗ qubit B
throughout, with the environment basis sorted by descending spin-z quantum
number (the first basis vector is |m = S⟩).  Qubit basis order is
(up-up, up-down, down-up, down-down) with A as the left factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .densemat import as_complex_matrix, kron_all, max_abs
from .errors import DimensionError

TRACE_TOL = 1e-12
HERM_TOL = 1e-12
PSD_TOL = 1e-10
NORM_TOL = 1e-12

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
ID2 = np.eye(2, dtype=np.complex128)


@dataclass(frozen=True)
class SpinMagnitude:
    """A spin quantum number S stored as the integer 2S."""

    two_s: int

    def __post_init__(self):
        if self.two_s < 0:
            raise ValueError("two_s must be nonnegative")

    @classmethod
    def from_s(cls, s: float) -> "SpinMagnitude":
        if not np.isfinite(s):
            raise ValueError(f"spin magnitude {s} is not a half-integer")
        two_s = round(2 * s)
        if abs(2 * s - two_s) > 1e-12:
            raise ValueError(f"spin magnitude {s} is not a half-integer")
        return cls(two_s)

    @property
    def s(self) -> float:
        return self.two_s / 2.0

    @property
    def dim(self) -> int:
        return self.two_s + 1

    def m_values(self) -> np.ndarray:
        """Spin-z eigenvalues in basis order (descending from +S)."""
        return self.s - np.arange(self.dim)


@dataclass(frozen=True)
class SystemDims:
    """Dimensions of the environment ⊗ A ⊗ B product space; A and B are qubits.

    A reduced A-B space is represented by ``dim_c == 1``.
    """

    dim_c: int

    def __post_init__(self):
        if self.dim_c < 1:
            raise ValueError("dim_c must be >= 1")

    @classmethod
    def for_spin(cls, s: SpinMagnitude) -> "SystemDims":
        return cls(dim_c=s.dim)

    @property
    def total(self) -> int:
        return 4 * self.dim_c


AB_DIMS = SystemDims(dim_c=1)


@dataclass(frozen=True)
class Ket:
    """Normalized state vector on a labeled product space."""

    amplitudes: np.ndarray
    dims: SystemDims

    def __post_init__(self):
        amps = np.ascontiguousarray(np.asarray(self.amplitudes, dtype=np.complex128))
        object.__setattr__(self, "amplitudes", amps)
        if amps.ndim != 1 or amps.shape[0] != self.dims.total:
            raise DimensionError(f"amplitude vector has length {amps.shape}, expected {self.dims.total}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"ket is not normalized (norm {norm!r})")

    def to_density(self) -> "DensityOperator":
        amps = self.amplitudes
        return DensityOperator(np.outer(amps, amps.conj()), self.dims, factor=amps[:, None])


@dataclass(frozen=True)
class DensityOperator:
    """Trace-one Hermitian PSD matrix on a labeled product space.

    ``factor``, when given, is an exact ensemble factor B (n x r) with
    matrix = B B†: one column per pure component, weighted by the square
    root of its probability.  Sampling propagates B instead of the matrix.
    """

    matrix: np.ndarray
    dims: SystemDims
    validate: bool = field(default=True, repr=False)
    factor: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.shape != (self.dims.total, self.dims.total):
            raise DimensionError(f"matrix shape {m.shape} does not match dims total {self.dims.total}")
        if self.factor is not None:
            b = as_complex_matrix(self.factor)
            object.__setattr__(self, "factor", b)
            if b.shape[0] != self.dims.total:
                raise DimensionError(f"factor shape {b.shape} does not match dims total {self.dims.total}")
        if self.validate:
            validate_density_matrix(m)


def validate_density_matrix(m: np.ndarray) -> None:
    """Check trace-one, Hermiticity and positivity up to roundoff."""
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"trace deviates from one by {abs(tr - 1.0):.3e}")
    defect = max_abs(m - m.conj().T)
    if defect > HERM_TOL:
        raise ValueError(f"Hermiticity defect {defect:.3e}")
    w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    if w[0] < -PSD_TOL:
        raise ValueError(f"minimum eigenvalue {w[0]:.3e} below PSD tolerance")


def spin_operators(s: SpinMagnitude) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Spin matrices (Sx, Sy, Sz) in the descending-m z eigenbasis.

    Built from the ladder operators; satisfies [Sx, Sy] = i Sz (and cyclic)
    and Sx² + Sy² + Sz² = S(S+1) I.  For S = 1/2 these are the halved Pauli
    matrices.
    """
    dim = s.dim
    mvals = s.m_values()
    sz = np.diag(mvals.astype(np.complex128))
    sp = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(1, dim):
        m = mvals[i]
        sp[i - 1, i] = np.sqrt(s.s * (s.s + 1) - m * (m + 1))
    sm = sp.conj().T
    sx = (sp + sm) / 2.0
    sy = (sp - sm) / 2.0j
    return sx, sy, sz


def basis_ket_c(s: SpinMagnitude, m: float) -> np.ndarray:
    """Environment basis vector |m⟩ in the descending-m ordering."""
    idx = round(s.s - m)
    if idx < 0 or idx >= s.dim or abs((s.s - m) - idx) > 1e-12:
        raise ValueError(f"m={m} is not a spin-z level of S={s.s}")
    e = np.zeros(s.dim, dtype=np.complex128)
    e[idx] = 1.0
    return e


def embed(op, slot: str, dims: SystemDims) -> np.ndarray:
    """Embed a single-subsystem operator into the full product space.

    ``slot`` is one of "C", "A", "B"; the other factors get identities.
    """
    op = as_complex_matrix(op)
    slot_dims = {"C": dims.dim_c, "A": 2, "B": 2}
    if slot not in slot_dims:
        raise ValueError(f"slot must be C, A or B, got {slot!r}")
    d = slot_dims[slot]
    if op.shape != (d, d):
        raise DimensionError(f"operator shape {op.shape} does not fit slot {slot} of dimension {d}")
    factors = {
        "C": np.eye(dims.dim_c, dtype=np.complex128),
        "A": ID2,
        "B": ID2,
    }
    factors[slot] = op
    return kron_all(factors["C"], factors["A"], factors["B"])


def partial_trace_c(rho: DensityOperator) -> DensityOperator:
    """Reduced A-B density matrix with the environment traced out."""
    red = partial_trace_c_matrix(rho.matrix, rho.dims.dim_c)
    return DensityOperator(red, AB_DIMS)


def partial_trace_c_matrix(m: np.ndarray, dim_c: int) -> np.ndarray:
    m = as_complex_matrix(m)
    if m.shape != (4 * dim_c, 4 * dim_c):
        raise DimensionError(f"matrix shape {m.shape} does not match dim_c={dim_c}")
    return trace_out_c(m, dim_c)


def trace_out_c(stack: np.ndarray, dim_c: int) -> np.ndarray:
    """Batched partial trace: (..., 4*dim_c, 4*dim_c) -> (..., 4, 4).

    The leading dim_c-dimensional factor is summed out by reshape; no
    shape checks, the per-matrix wrappers own those.
    """
    lead = stack.shape[:-2]
    return np.einsum("...mimj->...ij", stack.reshape(*lead, dim_c, 4, dim_c, 4))


def pair_factor(stack: np.ndarray, dim_c: int) -> np.ndarray:
    """Batched regrouping of factors: (..., 4*dim_c, r) -> (..., 4, dim_c*r).

    For rho = B B† the result L satisfies Tr_C rho = L L†: every
    (environment level, column) pair of B becomes one column of L.
    """
    lead, r = stack.shape[:-2], stack.shape[-1]
    return stack.reshape(*lead, dim_c, 4, r).swapaxes(-3, -2).reshape(*lead, 4, dim_c * r)


def transpose_b(stack: np.ndarray) -> np.ndarray:
    """Batched partial transpose on qubit B: out[ab, a'b'] = in[ab', a'b]."""
    lead = stack.shape[:-2]
    return stack.reshape(*lead, 2, 2, 2, 2).swapaxes(-3, -1).reshape(*lead, 4, 4)


def as_pair_matrix(rho) -> np.ndarray:
    """A 4x4 A-B matrix from a DensityOperator or array, shape-checked."""
    m = as_complex_matrix(rho.matrix if isinstance(rho, DensityOperator) else rho)
    if m.shape != (4, 4):
        raise DimensionError(f"expected a 4x4 A-B matrix, got {m.shape}")
    return m


def partial_transpose_b(rho) -> np.ndarray:
    """Partial transpose on qubit B of a 4x4 A-B matrix.

    A linear, trace-preserving, Hermiticity-preserving involution; its
    spectrum equals that of the A-side transpose.
    """
    return transpose_b(as_pair_matrix(rho))


def qubit_ket(theta: float, phi: float) -> np.ndarray:
    """Single-qubit spin-coherent state at polar angle theta, azimuth phi."""
    return np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], dtype=np.complex128)
