"""Minimal dense complex-matrix layer for operators up to 32x32.

The one place espkit symmetrizes (:func:`hermitian_part`) and
diagonalizes (:func:`hermitian_eig`, one ``np.linalg.eigh`` per matrix
or stack of matrices).  Matrices are plain contiguous ``complex128``
arrays; the eigenvectors of one whose imaginary part is exactly 0, such
as every spin-star Hamiltonian, are real ``float64``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericalError

HERMITICITY_RTOL = 1e-12


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a contiguous complex128 2-D array."""
    m = np.ascontiguousarray(np.asarray(a, dtype=np.complex128))
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    return m


def max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """A/2 + A†/2 of a matrix or of each matrix of a stack.

    Halving is exact, so this rounds as (A + A†)/2 would, but it cannot
    overflow for entries near the largest double.
    """
    half = a / 2.0
    return half + half.conj().swapaxes(-1, -2)


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) with A = V diag(w) V†, as ``np.linalg.eigh`` returns, from one ``eigh`` call.

    ``a`` is a matrix or a (..., m, m) stack of them, diagonalized at once.
    V is real (float64) when the imaginary part of A is exactly 0: the call
    then takes the real part, so A = V diag(w) Vᵀ with V real.  The
    Hermiticity defect must stay below ``1e-12 * max(1, ||A||_F)``, over a
    stack as a whole; both are taken on A / max|A|, so neither overflows
    for entries near the largest double.  Eigenvalues come back ascending.

    Raises
    ------
    DimensionError
        If the input is not a square matrix or a stack of them.
    NumericalError
        If an entry is not finite, or the LAPACK eigensolver fails or
        returns non-finite eigenvalues.
    """
    m = np.ascontiguousarray(np.asarray(a, dtype=np.complex128))
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    scale = max_abs(m)
    if not np.isfinite(scale):
        raise NumericalError("matrix has non-finite entries")
    unit = m / (scale or 1.0)
    defect = scale * max_abs(unit - unit.conj().swapaxes(-1, -2))  # Python floats: inf past the largest double, without a warning
    if defect > max(HERMITICITY_RTOL, HERMITICITY_RTOL * scale * float(np.linalg.norm(unit))):
        raise ValueError(f"matrix is not Hermitian within tolerance (defect {defect:.3e})")
    try:
        w, v = np.linalg.eigh(hermitian_part(m if np.any(m.imag) else m.real))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigensolver failed: {exc}") from None
    if not np.all(np.isfinite(w)):
        raise NumericalError("Hermitian eigensolver returned non-finite eigenvalues")
    return w, v
