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

The batched entry points take a batch of states sampled by
:class:`espkit.dynamics.SectorGroup`.  X-shaped states, whose entries
off the diagonal and the anti-diagonal are exactly 0.0, have closed
forms (Yu and Eberly, Quantum Inf. Comput. 7, 459 (2007)) in the
diagonal rho_ii and the coherences |rho_03|, |rho_12|: the partial
transpose splits into two 2x2 blocks, and
C = 2 max(0, |rho_03| - ||L_1|| ||L_2||, |rho_12| - ||L_0|| ||L_3||) with
||L_i|| = sqrt(rho_ii) the row norms of any factor L.
:func:`x_columns` takes lambda*, C and the trace drift of every X state
of a group at once from these six numbers, as states × times arrays,
and :func:`x_pt_min` lambda* alone; the group reads them from the
sector rows of its propagated factors, and neither L nor rho_AB is
formed.  Whether a state is X-shaped is decided once per initial
column, by :class:`espkit.dynamics.SectorGroup`: the z-basis product
configurations and Bell mixtures with the environment in one m level
are, and a purified weighting only when it pairs one alpha with one
beta state (fig5's W2-W5), since its Bell components pair with
successive m levels, whose parities alternate.

Every other state comes as the factor L of each batch of its states
rho_AB = L L†: :func:`batch_columns` forms rho_AB and takes lambda*,
the concurrence and the drifts from LAPACK (``eigvalsh``, then QR and
SVD for the concurrence), and :func:`batch_pt_min` lambda* alone, for
the short-time samplers.  A stack of matrices that need not be states,
such as the series truncations, goes to :func:`matrix_columns`: lambda*
of the matrices themselves, and the concurrence and clip of the factor
:func:`psd_factor` makes of them.  A bare matrix has no factor:
:func:`cne` and :func:`negativity` wrap :func:`pt_min`, one
``eigvalsh``, and the per-matrix :func:`concurrence` makes a factor with
:func:`psd_factor` and takes its QR/SVD concurrence.

numpy reduces slowly over axes of length 2 to 4, so the closed forms
unpack such axes and take their sums and extrema elementwise.
"""

from __future__ import annotations

import numpy as np

from .densemat import hermitian_part
from .errors import NumericalError
from .hilbert import as_pair_matrix, transpose_b

ENTANGLED_THRESHOLD = 1e-9
CLIP_BUDGET = 1e-9
NEGATIVE_COUNT_TOL = 1e-12
MAX_NEGATIVE_COUNT = 4  # a two-qubit partial transpose has four eigenvalues
# matrices or sample times per batch; bounds the working set of long grids to one
# group's batch, in which the group shares the phase table or the stacked RK4
# powering and its X-shaped states share every product and closed form.  Those
# cost a fixed few dozen numpy calls per batch and sector, so a batch of 256
# spends about half as long per sample on them as one of 64
CHUNK = 256

YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])[:, None]  # σy⊗σy = antidiag(-1, 1, 1, -1)


def batches(stack: np.ndarray) -> list[np.ndarray]:
    """Consecutive views of at most CHUNK entries along the first axis."""
    return np.split(stack, range(CHUNK, stack.shape[0], CHUNK))


def _check_finite(stack: np.ndarray) -> np.ndarray:
    """``stack`` itself; raises :class:`NumericalError` if any entry is not finite."""
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


def _gram(l: np.ndarray) -> np.ndarray:
    """rho = L L† for each factor of a stack."""
    return l @ l.conj().swapaxes(-1, -2)


def x_pt_min(diag: np.ndarray, coherence: np.ndarray) -> np.ndarray:
    """lambda* of each X-shaped state, from its diagonal rho_ii and its coherences |rho_03|, |rho_12|.

    ``diag`` holds the four rho_ii and ``coherence`` the two moduli along
    its first axis; the states run along the others, and so does lambda*.

    rho^{T_B} keeps the diagonal and swaps the anti-diagonal pairs: its
    blocks are [[rho_00, rho_12], [rho_21, rho_33]] on {00, 11} and
    [[rho_11, rho_03], [rho_30, rho_22]] on {01, 10}, and a block
    [[a, c], [c*, d]] has eigenvalues (a + d)/2 ± hypot((a - d)/2, |c|).
    The hypot is never negative, so lambda* is the smaller of the two
    lower eigenvalues.
    """
    d0, d1, d2, d3 = diag
    c03, c12 = coherence
    return np.minimum(0.5 * (d0 + d3) - np.hypot(0.5 * (d0 - d3), c12), 0.5 * (d1 + d2) - np.hypot(0.5 * (d1 - d2), c03))


def _x_concurrence(diag: np.ndarray, coherence: np.ndarray) -> np.ndarray:
    """2 max(0, |rho_03| - ||L_1|| ||L_2||, |rho_12| - ||L_0|| ||L_3||) of each X-shaped state, laid out as for :func:`x_pt_min`.

    ||L_i|| = sqrt(rho_ii) are the row norms of any factor L, so nothing
    negative is square-rooted even where rho is rank deficient.
    """
    n0, n1, n2, n3 = np.sqrt(diag)
    c03, c12 = coherence
    return 2.0 * np.maximum(0.0, np.maximum(c03 - n1 * n2, c12 - n0 * n3))


def pt_min(red: np.ndarray) -> np.ndarray:
    """lambda*, the smallest eigenvalue of each partial transpose of a stack: the first that ``eigvalsh`` returns."""
    return _lapack(np.linalg.eigvalsh, hermitian_part(transpose_b(red)))[..., 0]


def batch_pt_min(l: np.ndarray) -> np.ndarray:
    """lambda* alone of the states L L† of one factor batch, from LAPACK on rho_AB = L L†."""
    return pt_min(_gram(_check_finite(l)))


def negativity_and_count(lam):
    """(N, count) = (max(0, -lambda*), lambda* < -1e-12) of lambda*, a scalar or an array.

    A two-qubit partial transpose has at most one negative eigenvalue, so
    these are its negative mass and its number of eigenvalues below -1e-12.
    0.0 - x writes a separable N as +0.0, never -0.0.
    """
    return 0.0 - np.minimum(lam, 0.0), lam < -NEGATIVE_COUNT_TOL


def _lapack_concurrence(l: np.ndarray) -> np.ndarray:
    """Wootters concurrence of rho = L L† for each factor of a (T, 4, k) stack, from LAPACK.

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
    the dropped mass is sum(max(-w, 0)), and 0.0 - x keeps a zero sum at +0.0, not -0.0.
    """
    w, v = _lapack(np.linalg.eigh, hermitian_part(stack))
    return v * np.sqrt(np.maximum(w, 0.0))[..., None, :], 0.0 - np.minimum(w, 0.0) @ np.ones(w.shape[-1])


def check_clip(clip: float) -> None:
    """Raise :class:`NumericalError` when a factor dropped more than ``CLIP_BUDGET`` of negative mass."""
    if clip > CLIP_BUDGET:
        raise NumericalError(f"PSD repair clipped {clip:.3e} of spectral mass (budget {CLIP_BUDGET})")


def _trace_drift(diag: np.ndarray) -> np.ndarray:
    """The largest |tr rho - 1| over the last axis of a diagonal laid out as for :func:`x_pt_min`, summed in ``np.trace``'s order."""
    d0, d1, d2, d3 = diag
    return np.max(np.abs((d0 + d1) + (d2 + d3) - 1.0), axis=-1)


def _matrix_drift(red: np.ndarray) -> np.ndarray:
    """The largest |tr rho - 1| of a stack of matrices."""
    return _trace_drift(np.diagonal(red, axis1=-2, axis2=-1).real.T)


def batch_columns(l: np.ndarray) -> tuple:
    """(lambda*, C, trace drift) of the states L L† of one factor batch, from LAPACK.

    lambda* and C hold one entry per state; the drift is the batch's
    largest |tr rho - 1|.  tr(L L†) is the squared Frobenius norm of L,
    so it measures the norm drift of the propagated factor.
    """
    red = _gram(_check_finite(l))
    return pt_min(red), _lapack_concurrence(l), _matrix_drift(red)


def x_columns(diag: np.ndarray, coherence: np.ndarray) -> tuple:
    """(lambda*, C, trace drift) of X-shaped states from their (4, S, T) diagonals and (2, S, T) coherences |rho_03|, |rho_12|.

    lambda* and C come back as (S, T) arrays and the drift as each
    state's largest |tr rho - 1| over the T times.  A non-finite diagonal
    entry raises :class:`NumericalError`; |rho_03| <= sqrt(rho_00 rho_33)
    and |rho_12| <= sqrt(rho_11 rho_22) are then finite too.  The closed
    forms read rho_ij and rho_ji as one number, so the states they
    evaluate are exactly Hermitian.
    """
    _check_finite(diag)
    return x_pt_min(diag, coherence), _x_concurrence(diag, coherence), _trace_drift(diag)


def matrix_columns(red: np.ndarray) -> tuple:
    """The :func:`batch_columns` of a stack of matrices, positive or not, and the largest mass their factors clip.

    lambda* is that of each matrix itself (:func:`pt_min`), and C that of
    the factor :func:`psd_factor` makes of it, for the caller to hold the
    clip against ``CLIP_BUDGET``.
    """
    l, clip = psd_factor(red)
    return pt_min(red), _lapack_concurrence(l), _matrix_drift(red), np.max(clip)


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
    return float(_lapack_concurrence(factor)[0])
