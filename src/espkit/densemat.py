"""Minimal dense complex-matrix layer for operators up to 32x32.

Provides the Hermitian eigendecomposition (LAPACK through
``np.linalg.eigh``), spectral evolution operators exp(-iHt) and Kronecker
products.  Matrices are plain contiguous ``complex128`` arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError

HERMITICITY_RTOL = 1e-12


@dataclass(frozen=True)
class HermitianSpectrum:
    """Eigendecomposition A = V diag(w) V† with ``w`` ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a contiguous complex128 2-D array."""
    m = np.ascontiguousarray(np.asarray(a, dtype=np.complex128))
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    return m


def max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def hermitian_eig(a) -> HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix via ``np.linalg.eigh``.

    The Hermiticity defect must stay below ``1e-12 * max(1, ||A||_F)``;
    the input is then symmetrized to (A + A†)/2 before diagonalization.

    Raises
    ------
    DimensionError
        If the input is not square.
    NumericalError
        If the LAPACK eigensolver fails or returns non-finite eigenvalues.
    """
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"matrix is {m.shape[0]}x{m.shape[1]}, not square")
    defect = max_abs(m - m.conj().T)
    if defect > HERMITICITY_RTOL * max(1.0, float(np.linalg.norm(m))):
        raise ValueError(f"matrix is not Hermitian within tolerance (defect {defect:.3e})")
    sym = np.ascontiguousarray((m + m.conj().T) / 2.0)
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigensolver failed: {exc}") from None
    if not np.all(np.isfinite(w)):
        raise NumericalError("Hermitian eigensolver returned non-finite eigenvalues")
    return HermitianSpectrum(eigenvalues=w, eigenvectors=v)


def propagator(spectrum: HermitianSpectrum, t: float) -> np.ndarray:
    """exp(-iHt) from a precomputed spectrum of H."""
    v = spectrum.eigenvectors
    return (v * np.exp(-1j * spectrum.eigenvalues * float(t))) @ v.conj().T


def kron_all(*ops) -> np.ndarray:
    out = as_complex_matrix(ops[0])
    for op in ops[1:]:
        out = np.kron(out, as_complex_matrix(op))
    return out
