"""Time evolution engines and trajectory sampling.

Exact propagation diagonalizes the Hamiltonian once and reuses the spectrum
for every sample time; the commutator-series truncation feeds the analytic
short-time validators; fourth-order Runge-Kutta on the propagator,
composed by binary powering of its one-step matrix, provides an
independent cross-check that never diagonalizes the Hamiltonian.  Every
sample time is propagated from t = 0 on its own, so no error carries from
one sample to the next.

When H and rho0 are both real (imaginary parts exactly 0), as for every
spin-star Hamiltonian and every z-basis, Bell-mixture and purified
preparation, rho(-t) = conj(rho(t)): the spectral V is real, the RK4 step
satisfies T(-dt) = conj(T(dt)) and the series terms alternate real and
imaginary.  lambda*, N and C are then even in t, and
:func:`evaluation_times` has each distinct |t| evaluated once and its
values copied to -t.  Only a complex preparation runs the propagators
backwards for its negative times.

The exact and integrator methods propagate the initial ensemble factor
B0 (rho0 = B0 B0†, one column per pure component, from
:func:`initial_factor`) and evaluate the reduced states rho_AB = L L†
of each B(t) without diagonalizing them as states.  H conserves the
parity (-1)^(S-m) σz^A σz^B that the basis layout fixes
(:func:`basis_parity`), so H is two blocks, one per parity sector
(:func:`_sector_blocks`), diagonalized as one stack: each eigenvector is
exactly 0.0 off its sector, and the two sectors are the unit of
sampling.  Their rows depend on the dimension alone and are laid out once
per dimension (:func:`_sector_layout`).  A :class:`SectorGroup` holds every initial
state that shares one H and one grid, splits their columns by sector
once, and propagates each sector's rows on their own, CHUNK sample times
per batch, with one phase table exp(-iwt) per batch for the group and
one product per sector (``exact``) or every time's RK4 increment of
both sector blocks powered at once (``integrator``).  A
column of B0 inside one sector stays there, so the X decision is made
once per initial column: a state whose every column lies inside one
sector, such as a z-basis product configuration or a Bell mixture with
the environment in one m level, has exactly X-shaped reduced states at
every time, and the closed forms of :mod:`espkit.monotones` evaluate all
such states of a group together from their sector rows, never forming L
or rho_AB.  A purified weighting is X-shaped only when it pairs one
alpha with one beta Bell state (fig5's W2-W5); every other state, and
every state under an H that couples the sectors, forms its L and
rho_AB and takes LAPACK.  Trajectories (:func:`sample_trajectories`,
and :func:`sample_trajectory` for one state) and the exact short-time
lambda* sampler of :mod:`espkit.analysis` read the groups.  The series
truncation of the equation of motion for rho is not a state and has no
positive factor: :func:`series_batches` yields each reduced truncation
rho_AB itself, and its negativity is defined as max(0, -lambda*), as for
a state.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from .densemat import as_complex_matrix, hermitian_eig, max_abs
from .errors import DimensionError, NumericalError
from .hilbert import DensityOperator, Ket, SpinMagnitude, pair_factor, trace_out_c
from .monotones import (
    CLIP_BUDGET,
    MAX_NEGATIVE_COUNT,
    batch_columns,
    batches,
    check_clip,
    matrix_columns,
    negativity_and_count,
    psd_factor,
    x_columns,
)

INTEGRATOR_STEP = 1e-4
# largest |tr rho_AB - 1| a trajectory may show: exact propagation keeps it
# near 1e-15; RK4 drifts about 4e-12 by |t| = 1e5 and 4e-10 by 1e7
DRIFT_BUDGET = 1e-9
_RK4_OVERFLOW = 'RK4 propagator over t = {:g} overflowed; use method "exact"'
_QUBIT_PARITY = np.array([1.0, -1.0, -1.0, 1.0])  # σz^A σz^B on 00, 01, 10, 11

InitialState = Union[DensityOperator, Ket]


@dataclass(frozen=True)
class EvolutionSpec:
    """Sampling plan for a trajectory.

    The grid is ``n_steps + 1`` evenly spaced times: ``np.linspace(0,
    t_max, n_steps + 1)``, or, when ``emit_negative_times`` is set (the
    near-past branch used by the time-symmetry checks), t_k = t_max ((2k -
    n) / n) on [-t_max, t_max] with n = ``n_steps``.  That grid is exactly
    symmetric, t_k = -t_{n-k} bit for bit, with both ends exactly ±t_max
    and every time within 2 ulps of t_max of ``np.linspace``.  A spacing
    that is a normal double makes a grid of fewer than 2**50 steps finite
    and strictly increasing.
    """

    t_max: float
    n_steps: int
    method: str = "exact"
    emit_negative_times: bool = False

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.method not in ("exact", "series", "integrator"):
            raise ValueError(f"unknown method {self.method!r}")
        spacing = (float(self.t_max) - float(self.start)) / self.n_steps  # Python floats overflow without a warning
        if not (np.isfinite(spacing) and spacing >= np.finfo(np.float64).tiny):  # NaN fails too
            raise ValueError(
                f"time window [{self.start}, {self.t_max}] in {self.n_steps} steps has spacing {spacing:g}, "
                "not a finite and strictly increasing grid"
            )

    @property
    def start(self) -> float:
        """First sample time: 0, or -t_max with ``emit_negative_times``."""
        return -self.t_max if self.emit_negative_times else 0.0

    def time_grid(self) -> np.ndarray:
        if not self.emit_negative_times:
            return np.linspace(0.0, self.t_max, self.n_steps + 1)
        return self.t_max * ((2 * np.arange(self.n_steps + 1) - self.n_steps) / self.n_steps)


@dataclass(frozen=True)
class Trajectory:
    """Sampled monotone time series with bookkeeping metadata."""

    times: np.ndarray
    cne: np.ndarray
    negativity: np.ndarray
    concurrence: np.ndarray
    negative_count: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        lengths = [len(c) for c in (self.times, self.cne, self.negativity, self.concurrence, self.negative_count)]
        if len(set(lengths)) > 1:
            raise ValueError(f"columns t, cne, negativity, concurrence, negative_count differ in length: {lengths}")
        if len(self.times) < 2:
            raise ValueError(f"need at least two samples, got {len(self.times)}")
        columns = (self.times, self.cne, self.negativity, self.concurrence)
        if not all(np.isfinite(c).all() for c in columns):
            raise ValueError("times and monotones must be finite")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if not np.all((self.negative_count >= 0) & (self.negative_count <= MAX_NEGATIVE_COUNT)):
            raise ValueError(f"negative_count must be in 0..{MAX_NEGATIVE_COUNT}")

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def spacing(self) -> float:
        return float(np.max(np.diff(self.times)))


class SpectralPropagator:
    """Exact evolution under a fixed Hermitian generator.

    Diagonalizes once, H = V diag(w) V†; every unitary is V diag(exp(-i w t)) V†.
    The sector blocks of H (:func:`_sector_blocks`) are diagonalized
    together, H_s = V_s diag(w_s) V_s†: ``rows`` [s] and ``v_s`` [s] hold
    sector s's rows and eigenvectors, and w and V list sector 0's
    eigenpairs, then sector 1's, each V_s on its rows and exactly 0.0 off
    them.  Times with eps max|w| |t| >= 1 raise :class:`NumericalError`.
    """

    def __init__(self, h):
        self.h = as_complex_matrix(h)
        self.rows, blocks = _sector_blocks(self.h)
        w_s, self.v_s = hermitian_eig(blocks)
        self.w = w_s.ravel()
        columns = np.arange(self.w.size).reshape(w_s.shape)  # sector s's eigenpairs are columns [s] of w and V
        self.v = np.zeros(self.h.shape, dtype=self.v_s.dtype)
        self.v[self.rows[:, :, None], columns[:, None, :]] = self.v_s

    def _check_phases(self, t_abs: float) -> None:
        """The rounding error of the largest phase w t, near eps |w t|, must stay below 1 rad."""
        w_abs = max_abs(self.w)
        if float(np.finfo(np.float64).eps) * w_abs * t_abs >= 1.0:  # Python floats: inf without a warning
            raise NumericalError(f"phases w t have no correct bit: max|w| = {w_abs:.3e} at |t| up to {t_abs:g}")

    def unitary(self, t: float) -> np.ndarray:
        if t == 0.0:
            return np.eye(self.h.shape[0], dtype=np.complex128)
        self._check_phases(abs(float(t)))
        return (self.v * np.exp(-1j * self.w * float(t))) @ self.v.conj().T

    def evolve_matrix(self, rho: np.ndarray, t: float) -> np.ndarray:
        """rho(t) = U rho U† with U = :meth:`unitary`; ``rho`` itself at t = 0."""
        u = self.unitary(float(t))
        return u @ rho @ u.conj().T

    def phases(self, times: np.ndarray) -> np.ndarray:
        """The (T, n) table exp(-i w t) for every t, sector after sector: B(t) = V (phases ∘ V† B0) for B0 B0† = rho0.

        cos and sin of -w t go straight into the real and imaginary parts:
        bit for bit ``np.exp(-1j * np.multiply.outer(times, w))``, signed
        zeros included, whose imaginary argument is -(w t) and real one +0.
        """
        self._check_phases(max_abs(times))
        angles = np.multiply.outer(times, -self.w)
        table = np.empty(angles.shape, dtype=np.complex128)
        np.cos(angles, out=table.real)
        np.sin(angles, out=table.imag)
        return table


def _checked_initial(h, rho0: InitialState) -> tuple[np.ndarray | SpectralPropagator, DensityOperator]:
    """The generator and the initial state as a density operator of its shape.

    A :class:`SpectralPropagator` comes back as it is, so that its spectrum
    is reused; any other ``h`` comes back as a complex matrix.
    """
    if isinstance(rho0, Ket):
        rho0 = rho0.to_density()
    if not isinstance(rho0, DensityOperator):
        raise TypeError("initial state must be a DensityOperator or Ket")
    if not isinstance(h, SpectralPropagator):
        h = as_complex_matrix(h)
    if _generator(h).shape != rho0.matrix.shape:
        raise DimensionError(f"Hamiltonian shape {_generator(h).shape} does not match state shape {rho0.matrix.shape}")
    return h, rho0


def _generator(h: np.ndarray | SpectralPropagator) -> np.ndarray:
    """The Hamiltonian matrix of a checked ``h``."""
    return h.h if isinstance(h, SpectralPropagator) else h


def evaluation_times(h, rho0: DensityOperator, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The times to evaluate, and the gather that maps values at them back onto ``times``.

    A real H and rho0 make lambda*, N and C even in t, so each distinct
    |t| is evaluated once, ascending; otherwise ``times`` themselves, with
    an identity gather.  ``h`` and ``rho0`` come checked by :func:`_checked_initial`.
    """
    if np.any(_generator(h).imag) or np.any(rho0.matrix.imag):
        return times, np.arange(times.shape[0])
    t_abs = np.abs(times)
    if np.all(t_abs[1:] > t_abs[:-1]):  # a [0, t_max] window: already distinct and ascending, no sort
        return t_abs, np.arange(times.shape[0])
    return np.unique(t_abs, return_inverse=True)


def evolve_exact(h, rho0: InitialState, t: float) -> DensityOperator:
    """Unitary evolution rho(t) = U rho U† with U = exp(-iHt).

    A :class:`SpectralPropagator` ``h`` lends its spectrum.  Preserves
    trace, Hermiticity and the spectrum; energy is conserved.
    """
    h, rho0 = _checked_initial(h, rho0)
    prop = h if isinstance(h, SpectralPropagator) else SpectralPropagator(h)
    return DensityOperator(prop.evolve_matrix(rho0.matrix, t), rho0.dims, validate=False)


def _series_terms(h: np.ndarray, m: np.ndarray, order: int) -> list[np.ndarray]:
    """rho0, -i[H, rho0] and -(1/2)[H, [H, rho0]]: the dt^k coefficients, k < order."""
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    terms = [m.astype(np.complex128, copy=True)]
    with np.errstate(over="ignore", invalid="ignore"):  # overflows stay non-finite, for the monotones to report
        if order >= 2:
            comm1 = h @ m - m @ h
            terms.append(-1j * comm1)
            if order >= 3:
                terms.append(-0.5 * (h @ comm1 - comm1 @ h))
    return terms


def _series_stack(terms: list[np.ndarray], times: np.ndarray) -> np.ndarray:
    """sum_k t^k term_k for every t, as a (T, n, n) stack; overflows stay non-finite, for the monotones to report."""
    t = times[:, None, None]
    out = np.repeat(terms[0][None], times.shape[0], axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, term in enumerate(terms[1:], start=1):
            out = out + t**k * term
    return out


def evolve_series(h, rho0: InitialState, dt: float, order: int = 3) -> np.ndarray:
    """Commutator-series truncation of the equation of motion.

    ``order`` counts the retained terms: 1 keeps rho0, 2 adds
    -i[H, rho0] dt, 3 adds -(1/2)[H, [H, rho0]] dt².  The result is
    Hermitian and trace-one but deliberately not positive: it feeds the
    short-time analytic validators, which are derived from exactly these
    truncations.  Its negativity in a trajectory is defined as
    max(0, -lambda*), as for a state.  A :class:`SpectralPropagator` ``h``
    lends its matrix.
    """
    h, rho0 = _checked_initial(h, rho0)
    return _series_stack(_series_terms(_generator(h), rho0.matrix, order), np.array([float(dt)]))[0]


def _rk4_increments(h: np.ndarray, times: np.ndarray, max_step: float) -> np.ndarray:
    """P = U - I for the RK4 propagator U of dU/dt = -i h U over each of ``times``: a (T, ..., m, m) stack for a (..., m, m) ``h``.

    Each time t takes its own n = ceil(|t| / max_step) steps of dt = t /
    n, which land exactly on t.  One step of the linear equation is the
    fixed matrix T = I + E with E = sum_{1<=k<=4} (-i h dt)^k / k!, so the
    n steps are U = T^n, taken by binary powering in O(log n) matrix
    products.  Only the increments E and T^n - I are formed: I + E in
    double precision would round away the low bits of E in every step.
    The one-step increments of all the times are powered together: round
    b folds every time's T^(2^b) - I into the times whose n has bit b
    set, then squares it for the times with higher bits left.  P is zero
    at t = 0.  A step count or powering that overflows raises
    :class:`NumericalError`, naming the first such time.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported as one error, not as warnings
        n_steps = np.ceil(np.abs(times) / max_step)
        finite = np.isfinite(n_steps)
        if not np.all(finite):
            raise NumericalError(_RK4_OVERFLOW.format(times[~finite][0]))
        dt = np.divide(times, n_steps, out=np.zeros_like(times), where=n_steps > 0)
        a = (-1j * dt).reshape(-1, *[1] * h.ndim) * h
        eye = np.eye(h.shape[-1])
        step = a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)  # T - I by Horner
        acc = np.zeros_like(step)  # T^k - I for the low bits k of each n consumed so far
        while True:
            odd = np.flatnonzero(n_steps % 2 == 1)
            acc_odd, step_odd = acc[odd], step[odd]
            acc[odd] = acc_odd + step_odd + acc_odd @ step_odd
            n_steps = np.floor(n_steps / 2)
            left = np.flatnonzero(n_steps)
            if not left.size:
                break
            step_left = step[left]
            step[left] = 2.0 * step_left + step_left @ step_left  # T^(2k) - I from T^k - I
    finite = np.isfinite(acc).reshape(times.shape[0], -1).all(axis=1)
    if not np.all(finite):
        raise NumericalError(_RK4_OVERFLOW.format(times[~finite][0]))
    return acc


def _rk4(h: np.ndarray, rho0: np.ndarray, t_final: float, max_step: float) -> np.ndarray:
    """U rho0 U† for the Runge-Kutta propagator U = I + P, as rho0 + P rho0 + rho0 P† + P rho0 P†."""
    p = _rk4_increments(h, np.array([t_final]), max_step)[0]
    half = rho0 + p @ rho0  # (I + P) rho0
    return half + half @ p.conj().T


def integrate_vonneumann(h, rho0: InitialState, t: float) -> DensityOperator:
    """rho(t) = U rho0 U† with U from fourth-order Runge-Kutta on dU/dt = -iHU.

    Independent of the spectral path: it never diagonalizes H.  Fixed step
    (``INTEGRATOR_STEP``) adjusted to land exactly on t; the steps are composed
    by binary powering of the one-step propagator.  Used as the test oracle
    for exact evolution.  A :class:`SpectralPropagator` ``h`` lends its matrix.
    """
    h, rho0 = _checked_initial(h, rho0)
    return DensityOperator(_rk4(_generator(h), rho0.matrix, float(t), INTEGRATOR_STEP), rho0.dims, validate=False)


def time_reversed_state(rho: DensityOperator, s: SpinMagnitude) -> DensityOperator:
    """Theta rho* Theta†: the all-spin-flipped, conjugated state.

    Theta = exp(-i pi Sy) ⊗ sigma_y ⊗ sigma_y is real: it maps basis index i
    to N-1-i with sign s_i, s = kron((-1)^(S-m) over the environment levels,
    (-1, 1, 1, -1)), which is minus :func:`basis_parity`.
    So Theta rho* Theta† = (s s^T ∘ rho*)[::-1, ::-1], exactly, and the
    overall sign cancels in s s^T; two flips return rho bit for bit.
    """
    signs = basis_parity(4 * s.dim)
    flipped = (np.outer(signs, signs) * rho.matrix.conj())[::-1, ::-1]
    return DensityOperator(flipped, rho.dims, validate=False)


def initial_factor(rho0: DensityOperator) -> tuple[np.ndarray, float]:
    """B0 with rho0 = B0 B0†, and the negative mass dropped to make it.

    The constructors give exact factors, with clip 0.0; a bare matrix is
    factored by :func:`psd_factor`, dropping its negative dust, and a clip
    beyond ``CLIP_BUDGET`` raises :class:`NumericalError`.
    """
    if rho0.factor is not None:
        return rho0.factor, 0.0
    b0, clip = psd_factor(rho0.matrix)
    check_clip(float(clip))
    return b0, float(clip)


def basis_parity(n: int) -> np.ndarray:
    """The parity (-1)^k (1, -1, -1, 1)[q] of each index i = 4k + q of the env ⊗ A ⊗ B basis, as ±1.0.

    k counts the environment levels from m = S down, so this is the
    eigenvalue of (-1)^(S-m) σz^A σz^B that every spin-star Hamiltonian
    conserves.  Defined for any n, a multiple of 4 or not.
    """
    return (((-1.0) ** np.arange(-(-n // 4)))[:, None] * _QUBIT_PARITY).ravel()[:n]


class _SectorLayout(NamedTuple):
    """The two parity sectors of dimension n, a multiple of 4, and the 0/1 selectors that sum their rows to X entries.

    ``rows`` [s] lists sector s's indices 4k and 4k + 1, then their
    partners 4k + 3 and 4k + 2 in the same order, so that its rows j and
    j + n/2 meet in rho_03 or rho_12; the odd sector of
    :func:`basis_parity` comes first.  ``q_select`` [s][q, j] is 1.0 where
    row j has qubit index q, ``pair_select`` [s][0 or 1, j] where pair j
    is (4k, 4k + 3) or (4k + 1, 4k + 2), and ``between`` marks the entries
    of an n x n matrix that join the two sectors.
    """

    rows: np.ndarray
    q_select: tuple
    pair_select: tuple
    between: np.ndarray


@functools.cache
def _sector_layout(n: int) -> _SectorLayout | None:
    """The read-only :class:`_SectorLayout` of dimension ``n``, built once per n; None when 4 does not divide n."""
    if n % 4:
        return None
    parity = basis_parity(n)
    first = np.flatnonzero(np.arange(n) % 4 < 2)  # 4k and 4k + 1
    rows = np.stack([np.concatenate([f, f + 3 - 2 * (f % 4)]) for f in (first[parity[first] < 0], first[parity[first] > 0])])
    q_select, pair_select = tuple(np.eye(4)[:, r % 4] for r in rows), tuple(np.eye(2)[:, r[: n // 4] % 4] for r in rows)
    layout = _SectorLayout(rows, q_select, pair_select, parity[:, None] != parity)
    for a in (layout.rows, layout.between, *layout.q_select, *layout.pair_select):
        a.flags.writeable = False
    return layout


def _sector_blocks(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of each sector of ``h`` and its (k, m, m) stack of sector blocks.

    The (2, n/2) rows of :func:`_sector_layout` if ``h`` is exactly 0.0
    between them, as every spin-star H is; else all (1, n) rows as one
    block, for an H that couples the sectors or an n that 4 does not divide.
    """
    layout = _sector_layout(h.shape[0])
    rows = layout.rows if layout is not None and not np.any(h[layout.between]) else np.arange(h.shape[0])[None]
    return rows, h[rows[:, :, None], rows[:, None, :]]


class _Sector(NamedTuple):
    """One sector's share of a group: the sector rows ``b0`` of the columns of B0 it propagates, and how they sum to X entries.

    The first ``n_x_columns`` columns are the X states' columns inside the
    sector, and every column of every other state follows; state k here
    holds the columns [``edges`` [k], ``edges`` [k + 1]), X states first,
    and ``x_states`` numbers the X states here among all X states.
    ``exact`` keeps the sector's eigenvectors V_s and the coefficients
    V_s† B0_s; ``integrator`` keeps None.
    """

    index: int
    rows: np.ndarray
    b0: np.ndarray
    edges: np.ndarray
    n_x_columns: int
    x_states: np.ndarray
    v: np.ndarray | None
    coefficients: np.ndarray | None


class SectorGroup:
    """A group of initial factors under one H, split by the sectors of H, and sampled batch by batch.

    Each B0 of ``b0s`` factors an initial state rho0 = B0 B0† whose
    environment has dimension ``dim_c``.  H never couples its two parity
    sectors (:func:`_sector_blocks`), so each sector's rows of B(t)
    follow from that sector's rows of B0 alone; a column of B0 inside one
    sector stays there, and keeps every column of the factor L of rho_AB
    = L L† on {00, 11} or on {01, 10}.  :attr:`x` [k] is True when every
    column of state k lies inside one sector, so that its reduced states
    are X-shaped at every time: the decision is made once per initial
    column, here, as are the coefficients V_s† B0_s (``exact``, one
    product per sector with the sector eigenvectors that
    :class:`SpectralPropagator` holds) or the sector blocks of H
    (``integrator``).  ``h`` comes checked by :func:`_checked_initial`; a
    propagator ``h`` lends ``exact`` its spectrum.
    """

    def __init__(self, h: np.ndarray | SpectralPropagator, b0s: list[np.ndarray], dim_c: int, method: str):
        if method == "exact":
            self.prop = h if isinstance(h, SpectralPropagator) else SpectralPropagator(h)
            rows, blocks = self.prop.rows, self.prop.v_s
        else:
            rows, self.blocks = _sector_blocks(_generator(h))
            blocks = [None] * len(rows)
        b0 = np.concatenate(b0s, axis=1)
        widths = np.array([b.shape[1] for b in b0s])
        state = np.repeat(np.arange(len(b0s)), widths)  # each column's state
        inside = np.any(b0[rows] != 0, axis=1)  # per sector, per column
        self.x = (len(rows) == 2) & (np.bincount(state, weights=inside[0] & inside[-1], minlength=len(b0s)) == 0)
        x_column, x_rank = self.x[state], np.cumsum(self.x) - 1
        others = np.flatnonzero(~x_column)
        self.other_spans = np.concatenate([[0], np.cumsum(widths[~self.x])])
        self.sectors = []
        for k, v in enumerate(blocks):
            x_cols = np.flatnonzero(x_column & inside[k])
            if not x_cols.size and not others.size:
                continue
            owner = state[x_cols]
            x_states = np.flatnonzero(np.bincount(owner, minlength=len(b0s)))  # the X states with columns here
            edges = np.concatenate([np.searchsorted(owner, x_states), x_cols.size + self.other_spans])
            b0_s = b0[rows[k][:, None], np.concatenate([x_cols, others])]
            c = None if v is None else _sector_product(v.conj().T, b0_s)
            self.sectors.append(_Sector(k, rows[k], b0_s, edges, x_cols.size, x_rank[x_states], v, c))
        self.method, self.n, self.dim_c, self.n_x = method, b0.shape[0], dim_c, int(np.sum(self.x))

    def batches(self, times: np.ndarray):
        """Yield ``(entries, ls)`` for each batch of at most CHUNK ``times``.

        ``entries`` = (rho_ii, (|rho_03|, |rho_12|)) of the X states, as
        (4, S, T) and (2, S, T) arrays (:func:`_add_x_entries`), or None
        without X states; ``ls`` holds the (T, 4, k) factor L of each
        other state, in the order of ``b0s``.  Per batch, ``exact`` takes
        one phase table for the group, read sector by sector, and B_s(t) =
        V_s (e^{-i w_s t} ∘ V_s† B0_s), with one product per sector for all the columns of
        the group (:func:`_sector_product`) and B(0) = B0 exactly;
        ``integrator`` takes B_s(t) = B0_s + P_s(t) B0_s with the RK4
        increments of every time and sector powered at once
        (:func:`_rk4_increments`), one product per state.  Each sector's
        amplitudes are reduced to their X entries and their share of the
        other states' L before the next sector is propagated.  Consume
        each batch before the next.
        """
        layout = _sector_layout(self.n)
        for ts in batches(times):
            if self.method == "exact":
                shared = self.prop.phases(ts).reshape(ts.shape[0], len(self.prop.rows), -1)
            else:
                shared = _rk4_increments(self.blocks, ts, INTEGRATOR_STEP)
            diag = np.zeros((4, self.n_x, ts.shape[0]))
            coherence = np.zeros((2, self.n_x, ts.shape[0]), dtype=np.complex128)
            off_x = np.empty((self.n, self.other_spans[-1], ts.shape[0]), dtype=np.complex128)
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry is reported by the monotones, as one error
                for sector in self.sectors:
                    b = self._evolved(sector, ts, shared)
                    if sector.n_x_columns:
                        _add_x_entries(sector, b[:, : sector.n_x_columns], layout, diag, coherence)
                    off_x[sector.rows] = b[:, sector.n_x_columns :]
            ls = [pair_factor(off_x[:, a:z].transpose(2, 0, 1), self.dim_c) for a, z in zip(self.other_spans[:-1], self.other_spans[1:])]
            yield ((diag, np.abs(coherence)) if self.n_x else None), ls

    def _evolved(self, sector: _Sector, ts: np.ndarray, shared: np.ndarray) -> np.ndarray:
        """The sector's (n_s, columns, T) amplitudes B_s(t) at ``ts``, from the batch's (T, sectors, ...) phases or RK4 increments ``shared``.

        A product with the complex P_s(t) rounds a column by the product's
        width, so ``integrator`` takes one per state, as the state alone does.
        """
        p = shared[:, sector.index]
        if self.method == "exact":
            b = _sector_product(sector.v, sector.coefficients[:, :, None] * p.T[:, None, :])
            b[:, :, ts == 0.0] = sector.b0[:, :, None]
            return b
        products = [p.reshape(-1, p.shape[-1]) @ sector.b0[:, a:z] for a, z in zip(sector.edges[:-1], sector.edges[1:])]
        product = np.concatenate(products, axis=1).reshape(p.shape[0], *sector.b0.shape)
        return np.add(sector.b0[:, :, None], product.transpose(1, 2, 0), order="C")


def _sector_product(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """V M for a (n, n) ``v`` and a (n, ...) complex ``m``, from real products on the float view of M alone.

    A real V takes M's real and imaginary parts in one product; a complex
    V takes two, V.real M and V.imag M, and combines their parts.  A real
    product with V of 2, 4, 6 or 8 rows, the sector blocks of every
    dimension up to the 16 that ``espkit.cli.MAX_S_C`` allows, rounds
    each column of M alike whatever its width, which a complex one
    (zgemm) does not: a state sampled in a group is then propagated bit
    for bit as it is alone.  Above that bound it is not so (with 12 rows,
    at S = 5/2, a last column can round differently), and a group and a
    lone run may differ at roundoff.
    """
    flat = np.ascontiguousarray(m).view(np.float64).reshape(m.shape[0], -1)
    if v.dtype.kind == "f":
        return (v @ flat).view(np.complex128).reshape(m.shape)
    re = (np.ascontiguousarray(v.real) @ flat).view(np.complex128)  # Vr Mr + i Vr Mi
    im = (np.ascontiguousarray(v.imag) @ flat).view(np.complex128)  # Vi Mr + i Vi Mi
    out = np.empty_like(re)
    np.subtract(re.real, im.imag, out=out.real)
    np.add(re.imag, im.real, out=out.imag)
    return out.reshape(m.shape)


def _add_x_entries(sector: _Sector, b: np.ndarray, layout: _SectorLayout, diag: np.ndarray, coherence: np.ndarray) -> None:
    """Add one sector's share of rho_ii and of (rho_03, rho_12) of each X state of a group to ``diag`` and ``coherence``.

    ``b`` holds the sector's (n_s, columns, T) amplitudes of the X
    columns.  One product with the 0/1 selector ``q_select`` sums the
    real |B|² over the rows of each qubit index q into rho_qq, and one
    with ``pair_select`` sums B_j B*_{j+n/2}, real and imaginary parts at
    once, over the pairs of each kind into rho_03 and rho_12.  The
    diagonal's products are made before the coherences' start, which
    keeps a group's peak memory per batch down.  The sums then run over
    each state's columns in the sector, in order (:func:`_column_sums`),
    and the two sectors add up in turn.  Up to S = 3/2 a row sum has at
    most two nonzero terms, which round alike in any order, so a state's
    entries do not depend on the other states of its group.
    """
    q_select, pair_select = layout.q_select[sector.index], layout.pair_select[sector.index]
    (n_rows, n_cols, n_times), half = b.shape, b.shape[0] // 2
    starts, widths = sector.edges[: sector.x_states.size], np.diff(sector.edges[: sector.x_states.size + 1])
    squares = np.square(b.real)
    squares += np.square(b.imag)
    sums = (q_select @ squares.reshape(n_rows, -1)).reshape(4, n_cols, n_times)
    diag[:, sector.x_states] += _column_sums(sums, starts, widths)
    pairs = (b[:half] * b[half:].conj()).view(np.float64).reshape(half, -1)
    sums = (pair_select @ pairs).view(np.complex128).reshape(2, n_cols, n_times)
    coherence[:, sector.x_states] += _column_sums(sums, starts, widths)


def _column_sums(x: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The runs of ``widths`` columns from ``starts`` summed in order along the second axis of ``x``; ``x`` itself for runs of one."""
    if starts.size == x.shape[1]:
        return x
    out = x[:, starts]
    for j in range(1, int(np.max(widths))):
        longer = widths > j
        out[:, longer] += x[:, starts[longer] + j]
    return out


def series_batches(h: np.ndarray | SpectralPropagator, rho0: DensityOperator, times: np.ndarray, order: int = 3):
    """Yield the (T, 4, 4) reduced commutator-series truncations to ``order`` terms, for each batch of at most CHUNK ``times``.

    A truncation is not a state and has no factor: the monotones take its
    lambda* from the matrix itself.  ``h`` and ``rho0`` come checked by
    :func:`_checked_initial`; a propagator ``h`` lends its matrix.
    """
    terms = _series_terms(_generator(h), rho0.matrix, order)
    return (trace_out_c(_series_stack(terms, ts), rho0.dims.dim_c) for ts in batches(times))


def sample_trajectories(h, initials, spec: EvolutionSpec) -> list[Trajectory]:
    """Evolve each initial state under one H, trace out the environment and record the monotones per time.

    ``h`` is the Hamiltonian, or a :class:`SpectralPropagator` of it whose
    spectrum ``exact`` then reuses; a bare ``h`` is diagonalized once for
    all the states.  The states whose :func:`evaluation_times` agree are
    sampled as one :class:`SectorGroup`, batch by batch, so each batch's
    phase table or RK4 increments serve every state in it, and the closed
    forms of :func:`espkit.monotones.x_columns` all its X-shaped states at
    once; each trajectory is that of its state sampled alone, bit for bit,
    up to dimension 16 (:func:`_sector_product`).
    The ``series`` truncation of each state is sampled from
    :func:`series_batches`.

    Each trajectory's metadata records the maximum trace deviation of its
    reduced states (for the factor methods the norm drift of B(t)) and
    the largest negative eigenvalue mass a factor dropped: that of B0 for
    the factor methods, 0.0 for a state built with its factor, and that
    of the truncations' factors for ``series``.  A trace deviation beyond ``DRIFT_BUDGET``, a
    clip beyond ``CLIP_BUDGET`` and an overflow raise
    :class:`NumericalError`.  Only the times :func:`evaluation_times`
    picks are evaluated; conjugation leaves every one of these figures
    unchanged.
    """
    rho0s = []
    for initial in initials:
        h, rho0 = _checked_initial(h, initial)
        rho0s.append(rho0)
    times = spec.time_grid()
    window = f"[{times[0]:g}, {times[-1]:g}]"
    plans, by_kind = [], {}
    for rho0 in rho0s:  # evaluation_times reads a state only for whether it is complex
        kind = bool(np.any(rho0.matrix.imag))
        if kind not in by_kind:
            by_kind[kind] = evaluation_times(h, rho0, times)
        plans.append(by_kind[kind])
    if spec.method == "series":
        try:
            columns = [[matrix_columns(red) for red in series_batches(h, rho0, ts)] for rho0, (ts, _) in zip(rho0s, plans)]
        except NumericalError as exc:
            raise NumericalError(f"the three-term series truncation overflowed on {window}: {exc}") from None
        return [_trajectory(times, cols, gather, window) for cols, (_, gather) in zip(columns, plans)]
    if spec.method == "exact" and not isinstance(h, SpectralPropagator):
        h = SpectralPropagator(h)
    factors = [initial_factor(rho0) for rho0 in rho0s]
    groups: dict[bytes, list[int]] = {}
    for k, (evaluated, _) in enumerate(plans):
        groups.setdefault(evaluated.tobytes(), []).append(k)
    columns = [[] for _ in rho0s]  # per state, the batch_columns and B0 clip of each of its batches
    for members in groups.values():
        b0s, dim_c = [factors[k][0] for k in members], rho0s[members[0]].dims.dim_c
        group = SectorGroup(h, b0s, dim_c, spec.method)
        x_members = [k for k, x in zip(members, group.x) if x]
        other_members = [k for k, x in zip(members, group.x) if not x]
        for entries, ls in group.batches(plans[members[0]][0]):
            if x_members:
                lam, conc, trace_dev = x_columns(*entries)
                for i, k in enumerate(x_members):
                    columns[k].append((lam[i], conc[i], trace_dev[i], factors[k][1]))
            for k, l in zip(other_members, ls):
                columns[k].append((*batch_columns(l), factors[k][1]))
    return [_trajectory(times, cols, gather, window) for cols, (_, gather) in zip(columns, plans)]


def sample_trajectory(h, initial: InitialState, spec: EvolutionSpec) -> Trajectory:
    """Evolve, trace out the environment and record the monotones per time: :func:`sample_trajectories` of ``initial`` alone."""
    return sample_trajectories(h, [initial], spec)[0]


def _trajectory(times: np.ndarray, columns: list, gather: np.ndarray, window: str) -> Trajectory:
    """The trajectory on ``times`` of the (lambda*, C, trace drift, clip) of each batch of its evaluated times."""
    lam, conc, trace_dev, clip = zip(*columns)
    clip, trace_dev = float(np.max(clip)), float(np.max(trace_dev))
    if clip > CLIP_BUDGET:  # initial_factor checked B0's clip: only a series truncation gets here
        raise NumericalError(
            f"the three-term series truncation is not positive on {window}: its factors clipped "
            f'{clip:.3e} of spectral mass (budget {CLIP_BUDGET:g}); use method "exact" or a smaller t_max'
        )
    if not trace_dev <= DRIFT_BUDGET:  # NaN fails too
        raise NumericalError(
            f"reduced states drift {trace_dev:.3e} from unit trace on {window}, beyond the {DRIFT_BUDGET:g} budget"
        )
    meta = {"max_trace_deviation": trace_dev, "max_psd_clip": clip}
    lam = np.concatenate(lam)[gather]
    neg, count = negativity_and_count(lam)
    return Trajectory(times, lam, neg, np.concatenate(conc)[gather], count.astype(np.int64), meta)
