"""Entanglement quantifiers on two-qubit reduced density matrices.

Negativity is the absolute sum of the negative eigenvalues of the partial
transpose (0 for separable states, 1/2 for maximally entangled ones);
the trace-norm variant equals 1 + 2N for trace-one inputs.  Concurrence
follows Wootters' construction on a factor of the state: with
rho = L L†, the gamma values are the singular values of L^T (σy⊗σy) L,
so no matrix square root is taken.  Both are local-unitary invariants
and, for two qubits, vanish together.

The batched entry point :func:`pair_monotones` takes (rho_AB, L, clip)
batches: λ* and the negativity from the spectrum of rho_AB^{T_B}, the
concurrence from the factor L.  A bare matrix has no factor: the
per-matrix :func:`concurrence` makes one with :func:`psd_factor`.
:func:`cne` and :func:`negativity` wrap :func:`pt_stats`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .hilbert import as_pair_matrix, transpose_b

ENTANGLED_THRESHOLD = 1e-9
CLIP_BUDGET = 1e-9
NEGATIVE_COUNT_TOL = 1e-12
CHUNK = 64  # matrices or sample times per batch; bounds the working set of long grids

YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])[:, None]  # σy⊗σy = antidiag(-1, 1, 1, -1)


@dataclass(frozen=True)
class PairMonotones:
    """The quantifiers of a stack of states, one entry per state.

    ``max_clip`` is the largest negative-eigenvalue mass dropped to factor
    a state, the spectral dust the concurrence factor leaves out (0.0 for
    states given as factors).  ``max_trace_deviation`` and
    ``max_hermiticity_deviation`` are the worst |tr rho - 1| and
    max|rho - rho†| over the stack; for a factor, tr(L L†) is its squared
    Frobenius norm, so the first measures the norm drift of the propagated
    factor.
    """

    cne: np.ndarray
    negativity: np.ndarray
    concurrence: np.ndarray
    negative_count: np.ndarray
    max_clip: float
    max_trace_deviation: float
    max_hermiticity_deviation: float


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


def wootters(l: np.ndarray) -> np.ndarray:
    """Wootters concurrence of rho = L L† for each factor of a (T, 4, k) stack.

    The singular values s1 >= s2 >= ... of L^T (σy⊗σy) L are the gamma
    values; there are min(k, 4) of them and the missing ones are zero, so
    C = max(0, s1 - s2 - s3 - s4).  A factor wider than four columns is
    first reduced to the 4x4 factor R† of the same state, from one batched
    QR decomposition L† = Q R.
    """
    if l.shape[-1] > 4:
        l = _lapack(np.linalg.qr, l.conj().swapaxes(-1, -2), mode="r").conj().swapaxes(-1, -2)
    tau = np.swapaxes(l, -1, -2) @ (YY_SIGNS * l[..., ::-1, :])  # L^T (σy⊗σy) L
    s = _lapack(np.linalg.svd, tau, compute_uv=False)
    conc = s[..., 0]
    for k in range(1, s.shape[-1]):
        conc = conc - s[..., k]
    return np.maximum(0.0, conc)


def psd_factor(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor L = V sqrt(max(w, 0)) of each matrix of a stack, and the mass it drops.

    rho = V diag(w) V† is the eigendecomposition of the Hermitian part;
    the dropped mass is sum(max(-w, 0)).
    """
    w, v = _lapack(np.linalg.eigh, _hermitian_part(stack))
    return v * np.sqrt(np.maximum(w, 0.0))[..., None, :], _negative_mass(w)


def check_clip(clip: float) -> None:
    """Raise :class:`NumericalError` when a factor dropped more than ``CLIP_BUDGET`` of negative mass."""
    if clip > CLIP_BUDGET:
        raise NumericalError(f"PSD repair clipped {clip:.3e} of spectral mass (budget {CLIP_BUDGET})")


def _batch_columns(red: np.ndarray, l: np.ndarray, clip) -> tuple[np.ndarray, ...]:
    """Per-state columns of one batch: pt_stats, concurrence, clip, trace and Hermiticity drift."""
    conc = wootters(l)
    trace_dev = np.abs(np.trace(red, axis1=-2, axis2=-1).real - 1.0)
    herm_dev = np.max(np.abs(red - red.conj().swapaxes(-1, -2)), axis=(-2, -1))
    return (*pt_stats(red), conc, np.broadcast_to(clip, conc.shape), trace_dev, herm_dev)


def pair_monotones(parts) -> PairMonotones:
    """The quantifiers of each state of (rho_AB, L, clip) batches, rho_AB = L L† of shape (T, 4, 4).

    The concurrence is :func:`wootters` of L; ``clip`` is the negative mass
    dropped to make L, a scalar or one entry per state.  Raises
    :class:`NumericalError` when any clip exceeds ``CLIP_BUDGET``.
    """
    lam, neg, count, conc, clip, trace_dev, herm_dev = (
        np.concatenate(column) for column in zip(*(_batch_columns(*part) for part in parts))
    )
    max_clip = float(np.max(clip))
    check_clip(max_clip)
    return PairMonotones(
        lam, neg, conc, count.astype(np.int64), max_clip, float(np.max(trace_dev)), float(np.max(herm_dev))
    )


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
    factor, clip = psd_factor(as_pair_matrix(rho)[None])
    check_clip(float(clip[0]))
    return float(wootters(factor)[0])
