"""Entanglement quantifiers on two-qubit reduced density matrices.

Negativity is the absolute sum of the negative eigenvalues of the partial
transpose (0 for separable states, 1/2 for maximally entangled ones);
the trace-norm variant equals 1 + 2N for trace-one inputs.  Concurrence
follows Wootters' construction on a factor of the state: with
rho = L L†, the gamma values are the singular values of L^T (σy⊗σy) L,
so no matrix square root is taken.  Both are local-unitary invariants
and, for two qubits, vanish together.

Every quantifier is computed on a (T, 4, 4) stack at once by
:func:`pair_monotones`; the per-matrix functions are thin wrappers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .hilbert import PAULI_Y, as_pair_matrix, transpose_b

ENTANGLED_THRESHOLD = 1e-9
CLIP_BUDGET = 1e-9
NEGATIVE_COUNT_TOL = 1e-12
CHUNK = 64  # matrices or sample times per batch; bounds the working set of long grids

SIGMA_YY = np.kron(PAULI_Y, PAULI_Y)


@dataclass(frozen=True)
class MonotoneSample:
    """The three quantifiers of one reduced density matrix."""

    cne: float
    negativity: float
    concurrence: float
    negative_count: int


@dataclass(frozen=True)
class PairMonotones:
    """The quantifiers of a (T, 4, 4) stack, one entry per matrix.

    ``max_clip`` is the largest negative-eigenvalue mass of any input
    matrix, the spectral dust the concurrence factor drops.
    """

    cne: np.ndarray
    negativity: np.ndarray
    concurrence: np.ndarray
    negative_count: np.ndarray
    max_clip: float


def batches(stack: np.ndarray) -> list[np.ndarray]:
    """Consecutive views of at most CHUNK entries along the first axis."""
    return np.split(stack, range(CHUNK, stack.shape[0], CHUNK))


def _lapack(fn, stack, **kwargs):
    """``fn(stack)`` with non-finite input and LAPACK failures as NumericalError."""
    if not np.all(np.isfinite(stack)):
        raise NumericalError("two-qubit matrix has non-finite entries")
    try:
        return fn(stack, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"two-qubit eigensolver failed: {exc}") from None


def _hermitian_part(stack: np.ndarray) -> np.ndarray:
    """(A + A†)/2: LAPACK reads one triangle, this averages the roundoff of both."""
    return 0.5 * (stack + stack.conj().swapaxes(-1, -2))


def _negative_mass(w: np.ndarray) -> np.ndarray:
    """sum(max(-w, 0)) along the last axis; 0.0 - x keeps a zero sum at +0.0, not -0.0."""
    return 0.0 - np.sum(np.minimum(w, 0.0), axis=-1)


def pt_stats(red: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lambda*, negativity, negative count) of each partial transpose of a stack.

    The count includes eigenvalues below -1e-12; two-qubit partial
    transposes carry at most one.
    """
    w = _lapack(np.linalg.eigvalsh, _hermitian_part(transpose_b(red)))
    return w[..., 0], _negative_mass(w), np.count_nonzero(w < -NEGATIVE_COUNT_TOL, axis=-1)


def concurrences(red: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Wootters concurrence of each matrix of a stack, and its negative mass.

    rho = V diag(w) V† gives the factor L = V sqrt(max(w, 0)); the
    singular values s1 >= ... >= s4 of L^T (σy⊗σy) L are the gamma values,
    and C = max(0, s1 - s2 - s3 - s4).  The dropped mass sum(max(-w, 0))
    is returned alongside.
    """
    w, v = _lapack(np.linalg.eigh, _hermitian_part(red))
    factor = v * np.sqrt(np.maximum(w, 0.0))[..., None, :]
    tau = np.swapaxes(factor, -1, -2) @ (SIGMA_YY @ factor)
    s = _lapack(np.linalg.svd, tau, compute_uv=False)
    conc = np.maximum(0.0, s[..., 0] - s[..., 1] - s[..., 2] - s[..., 3])
    return conc, _negative_mass(w)


def _check_clip(clip: float) -> None:
    if clip > CLIP_BUDGET:
        raise NumericalError(f"PSD repair clipped {clip:.3e} of spectral mass (budget {CLIP_BUDGET})")


def pair_monotones(red: np.ndarray) -> PairMonotones:
    """lambda*, negativity, negative count and concurrence of a (T, 4, 4) stack.

    The stack is evaluated CHUNK matrices at a time.  Raises
    :class:`NumericalError` when any matrix carries more than
    ``CLIP_BUDGET`` of negative eigenvalue mass.
    """
    parts = [(*pt_stats(c), *concurrences(c)) for c in batches(red)]
    lam, neg, count, conc, clip = (np.concatenate(column) for column in zip(*parts))
    max_clip = float(np.max(clip))
    _check_clip(max_clip)
    return PairMonotones(lam, neg, conc, count.astype(np.int64), max_clip)


def cne(rho) -> tuple[float, int]:
    """Smallest eigenvalue of the partial transpose and the negative count."""
    lam, _, count = pt_stats(as_pair_matrix(rho)[None])
    return float(lam[0]), int(count[0])


def negativity(rho) -> float:
    """Absolute sum of the negative partial-transpose eigenvalues (in [0, 1/2])."""
    return float(pt_stats(as_pair_matrix(rho)[None])[1][0])


def concurrence(rho) -> float:
    """Wootters concurrence max(0, s1 - s2 - s3 - s4), in [0, 1].

    Negative eigenvalue dust on the input is dropped from the factor; a
    dropped mass beyond 1e-9 signals a numerics problem and raises.
    """
    conc, clip = concurrences(as_pair_matrix(rho)[None])
    _check_clip(float(clip[0]))
    return float(conc[0])


def monotone_sample(rho) -> MonotoneSample:
    """Bundle cne, negativity and concurrence for one density matrix."""
    out = pair_monotones(as_pair_matrix(rho)[None])
    return MonotoneSample(
        float(out.cne[0]), float(out.negativity[0]), float(out.concurrence[0]), int(out.negative_count[0])
    )
