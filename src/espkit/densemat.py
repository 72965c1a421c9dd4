"""Minimal dense complex-matrix layer for operators up to 32x32.

The one place espkit symmetrizes (:func:`hermitian_part`) and
diagonalizes (:func:`hermitian_eig`, one ``np.linalg.eigh`` per matrix).
Matrices are plain contiguous ``complex128`` arrays; the eigenvectors of
one whose imaginary part is exactly 0, such as every spin-star
Hamiltonian, are real ``float64``.

The basis layout env ⊗ A ⊗ B fixes the parity (-1)^(S-m) σz^A σz^B of
each index (:func:`basis_parity`), which the spin-star Hamiltonian
conserves for every coupling and spin.  The eigendecomposition sorts
the indices by parity, so it keeps the exact zeros between the two
sectors in its eigenvectors, and so in every propagator and propagated
factor :class:`espkit.dynamics.SpectralPropagator` builds from them; a
parity-definite initial factor then stays parity-definite, and its
reduced states stay X-shaped with off-X entries that are exactly 0.0
(see :mod:`espkit.monotones`).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NumericalError

HERMITICITY_RTOL = 1e-12
_QUBIT_PARITY = np.array([1.0, -1.0, -1.0, 1.0])  # σz^A σz^B on 00, 01, 10, 11


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a contiguous complex128 2-D array."""
    m = np.ascontiguousarray(np.asarray(a, dtype=np.complex128))
    if m.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={m.ndim}")
    return m


def max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def basis_parity(n: int) -> np.ndarray:
    """The parity (-1)^k (1, -1, -1, 1)[q] of each index i = 4k + q of the env ⊗ A ⊗ B basis, as ±1.0.

    k counts the environment levels from m = S down, so this is the
    eigenvalue of (-1)^(S-m) σz^A σz^B that every spin-star Hamiltonian
    conserves.  Defined for any n, a multiple of 4 or not.
    """
    return (((-1.0) ** np.arange(-(-n // 4)))[:, None] * _QUBIT_PARITY).ravel()[:n]


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """A/2 + A†/2 of a matrix or of each matrix of a stack.

    Halving is exact, so this rounds as (A + A†)/2 would, but it cannot
    overflow for entries near the largest double.
    """
    half = a / 2.0
    return half + half.conj().swapaxes(-1, -2)


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """(w, V) with A = V diag(w) V†, as ``np.linalg.eigh`` returns, from one ``eigh`` call.

    V is real (float64) when the imaginary part of A is exactly 0: the call
    then takes the real part, so A = V diag(w) Vᵀ with V real.

    The Hermiticity defect must stay below ``1e-12 * max(1, ||A||_F)``;
    both are taken on A / max|A|, so neither overflows for entries near
    the largest double.  The Hermitian part of the input is permuted into
    :func:`basis_parity` order, odd sector first, diagonalized at once,
    and its rows put back in the input's order.  A fixed permutation is a
    similarity, so any Hermitian matrix of any size is diagonalized; one
    that conserves the parity, as every spin-star Hamiltonian does, is
    then two contiguous blocks.  Every Householder reflector of the
    tridiagonal reduction of a block-diagonal matrix stays inside one
    block, so the tridiagonal matrix has exact zero off-diagonals at the
    block boundary and the tridiagonal solver splits there: eigenvectors
    are exactly zero off their parity sector.  Eigenvalues come back
    ascending.

    Raises
    ------
    DimensionError
        If the input is not square.
    NumericalError
        If an entry is not finite, or the LAPACK eigensolver fails or
        returns non-finite eigenvalues.
    """
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"matrix is {m.shape[0]}x{m.shape[1]}, not square")
    scale = max_abs(m)
    if not np.isfinite(scale):
        raise NumericalError("matrix has non-finite entries")
    unit = m / (scale or 1.0)
    defect = scale * max_abs(unit - unit.conj().T)  # Python floats: inf past the largest double, without a warning
    if defect > max(HERMITICITY_RTOL, HERMITICITY_RTOL * scale * float(np.linalg.norm(unit))):
        raise ValueError(f"matrix is not Hermitian within tolerance (defect {defect:.3e})")
    sym = hermitian_part(m if np.any(m.imag) else m.real)
    perm = np.argsort(basis_parity(m.shape[0]), kind="stable")
    try:
        w, permuted = np.linalg.eigh(sym[np.ix_(perm, perm)])  # a spin-star H: two parity blocks
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hermitian eigensolver failed: {exc}") from None
    if not np.all(np.isfinite(w)):
        raise NumericalError("Hermitian eigensolver returned non-finite eigenvalues")
    v = np.empty_like(permuted)
    v[perm] = permuted  # rows back to the input's order
    return w, v
