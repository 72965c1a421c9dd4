"""Entanglement quantifiers on two-qubit reduced density matrices.

The one decision variable is lambda*, the smallest eigenvalue of the
partial transpose rho^{T_B} (:func:`pt_min`): a state is entangled when
lambda* lies below -1e-9.  A two-qubit partial transpose has at most one
negative eigenvalue (Sanpera, Tarrach and Vidal, Phys. Rev. A 58, 826
(1998)), so the negativity N, the absolute sum of the negative
eigenvalues (0 for separable states, 1/2 for maximally entangled ones),
is max(0, -lambda*), and the negative count is [lambda* < -1e-12].
:func:`negativity_and_count` alone derives both from lambda*.  A series
truncation, which is not a state, has its negativity defined the same way.
Concurrence follows Wootters' construction on a factor of the state: with
rho = L L†, the gamma values are the singular values of L^T (σy⊗σy) L,
so no matrix square root is taken.  Both are local-unitary invariants
and, for two qubits, vanish together.

The batched entry point :func:`pair_monotones` takes (rho_AB, L, clip)
batches: lambda* from rho_AB (:func:`pt_min`), the concurrence from the
factor L (:func:`wootters`).  A bare matrix has no factor: the per-matrix
:func:`concurrence` makes one with :func:`psd_factor`.  :func:`cne` and
:func:`negativity` wrap :func:`pt_min`, so trajectories, the short-time
lambda* samplers and the per-matrix calls all share these two functions.

X-shaped states, whose entries off the diagonal and the anti-diagonal are
exactly 0.0, have closed forms (Yu and Eberly, Quantum Inf. Comput. 7,
459 (2007)): the partial transpose splits into two 2x2 blocks, and
C = 2 max(0, |rho_03| - ||L_1|| ||L_2||, |rho_12| - ||L_0|| ||L_3||) with
||L_i|| = sqrt(rho_ii) the row norms of L.  Each function decides once per
batch on its own input: :func:`pt_min` on the off-X entries of rho_AB
(the partial transpose keeps them off the X), :func:`wootters` on whether
every column of L sits on {00, 11} or on {01, 10}.  A batch with any nonzero off-X entry takes
LAPACK (``eigvalsh``, then QR and SVD for the concurrence).  Parity-definite
initial states keep the spin-star reduced states X-shaped: the z-basis
product configurations and Bell mixtures with the environment in one m
level.  The purified weightings of fig5 and ``evolve`` are not
parity-definite and take LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densemat import hermitian_part
from .errors import NumericalError
from .hilbert import as_pair_matrix, transpose_b

ENTANGLED_THRESHOLD = 1e-9
CLIP_BUDGET = 1e-9
NEGATIVE_COUNT_TOL = 1e-12
# matrices or sample times per batch; bounds the working set of long grids.  The
# X-shaped closed forms cost a fixed few dozen numpy calls per batch, so a batch
# of 256 spends about half as long per sample on them as one of 64
CHUNK = 256

YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])[:, None]  # σy⊗σy = antidiag(-1, 1, 1, -1)
# (rows, columns) of the eight entries off the diagonal and the anti-diagonal
OFF_X = (np.array([0, 0, 1, 1, 2, 2, 3, 3]), np.array([1, 2, 0, 3, 0, 3, 1, 2]))


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
    concurrence: np.ndarray
    max_clip: float
    max_trace_deviation: float
    max_hermiticity_deviation: float


def batches(stack: np.ndarray) -> list[np.ndarray]:
    """Consecutive views of at most CHUNK entries along the first axis."""
    return np.split(stack, range(CHUNK, stack.shape[0], CHUNK))


def _check_finite(stack: np.ndarray) -> np.ndarray:
    """``stack`` itself; raises :class:`NumericalError` if any entry is not finite.

    The closed forms check their output: a non-finite input entry of an
    X-shaped state reaches it.
    """
    if not np.all(np.isfinite(stack)):
        raise NumericalError("two-qubit matrix has non-finite entries")
    return stack


def _lapack(fn, stack, **kwargs):
    """``fn(stack)`` with non-finite input and LAPACK failures as NumericalError."""
    _check_finite(stack)
    try:
        return fn(stack, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"two-qubit eigensolver failed: {exc}") from None


def _x_pt_eigenvalues(red: np.ndarray) -> np.ndarray:
    """The lower eigenvalue of each 2x2 block of the Hermitian part of each partial transpose of an X-shaped stack.

    rho^{T_B} keeps the diagonal and swaps the anti-diagonal pairs: its
    blocks are [[rho_00, rho_12], [rho_21, rho_33]] on {00, 11} and
    [[rho_11, rho_03], [rho_30, rho_22]] on {01, 10}, and a block
    [[a, c], [c*, d]] has eigenvalues (a + d)/2 ± hypot((a - d)/2, |c|).
    The hypot is never negative, so the upper eigenvalues are never below
    the lower ones and are not formed.
    """
    diag = np.diagonal(red, axis1=-2, axis2=-1).real
    anti = np.diagonal(red[..., ::-1], axis1=-2, axis2=-1)  # rho_03, rho_12, rho_21, rho_30
    head, tail = diag[..., :2], diag[..., :1:-1]  # (rho_00, rho_11) and (rho_33, rho_22)
    coherence = 0.5 * np.abs(anti[..., 1::-1] + anti[..., 2:].conj())  # |rho_12| and |rho_03|, Hermitian part
    mean = 0.5 * (head + tail)
    return mean - np.hypot(0.5 * (head - tail), coherence)


def pt_min(red: np.ndarray) -> np.ndarray:
    """lambda*, the smallest eigenvalue of each partial transpose of a stack.

    A batch whose matrices are all X-shaped takes the lower eigenvalues of
    the 2x2 blocks of their partial transposes; any other batch takes
    ``eigvalsh``.
    """
    if np.any(red[..., OFF_X[0], OFF_X[1]]):
        w = _lapack(np.linalg.eigvalsh, hermitian_part(transpose_b(red)))
    else:
        w = _check_finite(_x_pt_eigenvalues(red))
    return np.min(w, axis=-1)


def negativity_and_count(lam):
    """(N, count) = (max(0, -lambda*), lambda* < -1e-12) of lambda*, a scalar or an array.

    A two-qubit partial transpose has at most one negative eigenvalue, so
    these are its negative mass and its number of eigenvalues below -1e-12.
    0.0 - x writes a separable N as +0.0, never -0.0.
    """
    return 0.0 - np.minimum(lam, 0.0), lam < -NEGATIVE_COUNT_TOL


def _x_concurrence(l: np.ndarray) -> np.ndarray:
    """2 max(0, |rho_03| - ||L_1|| ||L_2||, |rho_12| - ||L_0|| ||L_3||) for each factor of a stack.

    ||L_i|| = sqrt(rho_ii) are the row norms of L, so nothing negative is
    square-rooted even where rho is rank deficient.
    """
    norms = np.sqrt(np.sum((l * l.conj()).real, axis=-1))
    coherence = np.abs(np.sum(l[..., :2, :] * l[..., :1:-1, :].conj(), axis=-1))  # |rho_03| and |rho_12|
    gap = coherence - norms[..., 1::-1] * norms[..., 2:]
    return 2.0 * np.maximum(0.0, np.max(gap, axis=-1))


def wootters(l: np.ndarray) -> np.ndarray:
    """Wootters concurrence of rho = L L† for each factor of a (T, 4, k) stack.

    When every column of every factor sits on {00, 11} or on {01, 10},
    rho is X-shaped and the closed form of :func:`_x_concurrence` applies.
    Otherwise the singular values s1 >= s2 >= ... of L^T (σy⊗σy) L are the
    gamma values; there are min(k, 4) of them and the missing ones are
    zero, so C = max(0, s1 - s2 - s3 - s4).  A factor wider than four
    columns is first reduced to the 4x4 factor R† of the same state, from
    one batched QR decomposition L† = Q R.
    """
    nonzero = l != 0
    if not np.any((nonzero[..., 0, :] | nonzero[..., 3, :]) & (nonzero[..., 1, :] | nonzero[..., 2, :])):
        return _check_finite(_x_concurrence(l))
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
    the dropped mass is sum(max(-w, 0)), and 0.0 - x keeps a zero sum at +0.0, not -0.0.
    """
    w, v = _lapack(np.linalg.eigh, hermitian_part(stack))
    return v * np.sqrt(np.maximum(w, 0.0))[..., None, :], 0.0 - np.sum(np.minimum(w, 0.0), axis=-1)


def check_clip(clip: float) -> None:
    """Raise :class:`NumericalError` when a factor dropped more than ``CLIP_BUDGET`` of negative mass."""
    if clip > CLIP_BUDGET:
        raise NumericalError(f"PSD repair clipped {clip:.3e} of spectral mass (budget {CLIP_BUDGET})")


def _batch_columns(red: np.ndarray, l: np.ndarray, clip) -> tuple[np.ndarray, ...]:
    """Per-state columns of one batch: lambda*, concurrence, clip, trace and Hermiticity drift."""
    conc = wootters(l)
    trace_dev = np.abs(np.trace(red, axis1=-2, axis2=-1).real - 1.0)
    herm_dev = np.max(np.abs(red - red.conj().swapaxes(-1, -2)), axis=(-2, -1))
    return (pt_min(red), conc, np.broadcast_to(clip, conc.shape), trace_dev, herm_dev)


def pair_monotones(parts) -> PairMonotones:
    """The quantifiers of each state of (rho_AB, L, clip) batches, rho_AB = L L† of shape (T, 4, 4).

    The concurrence is :func:`wootters` of L; ``clip`` is the negative mass
    dropped to make L, a scalar or one entry per state.  The largest clip
    is reported as ``max_clip``, for the caller to hold against ``CLIP_BUDGET``.
    """
    lam, conc, clip, trace_dev, herm_dev = (
        np.concatenate(column) for column in zip(*(_batch_columns(*part) for part in parts))
    )
    return PairMonotones(lam, conc, float(np.max(clip)), float(np.max(trace_dev)), float(np.max(herm_dev)))


def cne(rho) -> tuple[float, int]:
    """Smallest eigenvalue of the partial transpose and the negative count."""
    lam = float(pt_min(as_pair_matrix(rho)[None])[0])
    return lam, int(negativity_and_count(lam)[1])


def negativity(rho) -> float:
    """Absolute sum of the negative partial-transpose eigenvalues (in [0, 1/2])."""
    return float(negativity_and_count(pt_min(as_pair_matrix(rho)[None])[0])[0])


def concurrence(rho) -> float:
    """Wootters concurrence max(0, s1 - s2 - s3 - s4), in [0, 1].

    Negative eigenvalue dust on the input is dropped from the factor; a
    dropped mass beyond 1e-9 signals a numerics problem and raises.
    """
    factor, clip = psd_factor(as_pair_matrix(rho)[None])
    check_clip(float(clip[0]))
    return float(wootters(factor)[0])
