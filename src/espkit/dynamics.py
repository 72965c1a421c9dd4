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
:func:`initial_factor`) and regroup each B(t) into the factor L of
rho_AB = L L†, which is positive by construction and never diagonalized.
:func:`group_batches` yields L, CHUNK sample times per batch, for every
initial state that shares one H and one grid: H is diagonalized once, and
each batch's phase table exp(-iwt) (or each time's RK4 increment) is
computed once for the group; each state then takes its own B(t), L, X
decision and monotones from it, one state at a time, so the working set
is one state's batch.  Trajectories (:func:`sample_trajectories`, and
:func:`sample_trajectory` for one state) and the exact short-time lambda*
sampler of :mod:`espkit.analysis` read it.  The series truncation of the
equation of motion for rho is not a state and has no positive factor:
:func:`series_batches` yields each reduced truncation rho_AB itself, and
its negativity is defined as max(0, -lambda*), as for a state.

H conserves the parity (-1)^(S-m) σz^A σz^B that the basis layout fixes
(:func:`espkit.densemat.basis_parity`), and its eigenvectors
(:func:`espkit.densemat.hermitian_eig`) are exactly 0.0 off one parity
sector, so B(t) keeps the exact zeros of a parity-definite B0.  Such a
B0, a z-basis product configuration or a Bell mixture with the
environment in one m level, yields factors whose every column sits on
{00, 11} or on {01, 10}, so the reduced states are exactly X-shaped;
:mod:`espkit.monotones` evaluates such a batch in closed form from L and
never forms rho_AB.  A purified weighting is parity-definite
only when it pairs one alpha with one beta Bell state (fig5's W2-W5); the
batches of any other form rho_AB = L L† and take LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .densemat import as_complex_matrix, basis_parity, hermitian_eig, max_abs
from .errors import DimensionError, NumericalError
from .hilbert import DensityOperator, Ket, SpinMagnitude, pair_factor, trace_out_c
from .monotones import CLIP_BUDGET, batch_columns, batches, check_clip, matrix_columns, negativity_and_count, psd_factor

INTEGRATOR_STEP = 1e-4
# largest |tr rho_AB - 1| a trajectory may show: exact propagation keeps it
# near 1e-15; RK4 drifts about 4e-12 by |t| = 1e5 and 4e-10 by 1e7
DRIFT_BUDGET = 1e-9
_RK4_OVERFLOW = 'RK4 propagator over t = {:g} overflowed; use method "exact"'

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

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def spacing(self) -> float:
        return float(np.max(np.diff(self.times)))


class SpectralPropagator:
    """Exact evolution under a fixed Hermitian generator.

    Diagonalizes once, H = V diag(w) V†; every unitary is V diag(exp(-i w t)) V†.
    Times with eps max|w| |t| >= 1 raise :class:`NumericalError`.
    """

    def __init__(self, h):
        self.h = as_complex_matrix(h)
        self.w, self.v = hermitian_eig(self.h)

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
        """The (T, n) table exp(-i w t) for every t: B(t) = V (phases ∘ V† B0) for B0 B0† = rho0."""
        self._check_phases(max_abs(times))
        return np.exp(-1j * np.multiply.outer(times, self.w))


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


def _rk4_increment(h: np.ndarray, t_final: float, max_step: float) -> np.ndarray:
    """P = U - I for the fourth-order Runge-Kutta propagator U of dU/dt = -i h U over ``t_final``.

    n = ceil(|t_final| / max_step) steps of dt = t_final / n land exactly on
    ``t_final``.  One step of the linear equation is the fixed matrix
    T = I + E with E = sum_{1<=k<=4} (-i h dt)^k / k!, so the n steps are
    U = T^n, taken by binary powering in O(log n) matrix products.  Only
    the increments E and T^n - I are formed: I + E in double precision
    would round away the low bits of E in every step.  P is zero at
    ``t_final`` = 0.  A step count or powering that overflows raises :class:`NumericalError`.
    """
    acc = np.zeros_like(h)  # T^m - I for the low bits m of n_steps consumed so far
    if t_final == 0.0:
        return acc
    n_steps = np.ceil(abs(t_final) / max_step)
    if not np.isfinite(n_steps):
        raise NumericalError(_RK4_OVERFLOW.format(t_final))
    n_steps = int(n_steps)
    a = (-1j * (t_final / n_steps)) * h
    eye = np.eye(h.shape[0], dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as one error, not as warnings
        step = a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)  # T - I by Horner
        while n_steps:
            if n_steps & 1:
                acc = acc + step + acc @ step
            step = 2.0 * step + step @ step  # T^(2k) - I from T^k - I
            n_steps >>= 1
    if not np.all(np.isfinite(acc)):
        raise NumericalError(_RK4_OVERFLOW.format(t_final))
    return acc


def _rk4(h: np.ndarray, rho0: np.ndarray, t_final: float, max_step: float) -> np.ndarray:
    """U rho0 U† for the Runge-Kutta propagator U = I + P, as rho0 + P rho0 + rho0 P† + P rho0 P†."""
    if t_final == 0.0:
        return rho0.copy()
    p = _rk4_increment(h, t_final, max_step)
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
    (-1, 1, 1, -1)), which is minus :func:`espkit.densemat.basis_parity`.
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


def group_batches(h: np.ndarray | SpectralPropagator, b0s: list[np.ndarray], dim_c: int, times: np.ndarray, method: str):
    """Yield, for each batch of at most CHUNK ``times``, an iterator of one (T, 4, k) factor L per initial factor of ``b0s``.

    Each B0 of ``b0s`` factors an initial state rho0 = B0 B0† whose
    environment has dimension ``dim_c``, and L factors its reduced states
    rho_AB = L L†.  ``exact`` takes B(t) = V (e^{-iwt} ∘ c) from the
    spectrum of H, with c = V† B0 formed once per state; ``integrator``
    takes B(t) = B0 + P(t) B0 with P(t) the RK4 increment of
    :func:`_rk4_increment`.  Both regroup B(t) into L.

    The states share H, its spectrum and each batch's phase table (or
    each time's RK4 increment), computed once per batch for the group;
    each state's B(t) and L are made only as the batch's iterator reaches
    it, so one state's batch is held at a time.  Consume each iterator
    before the next batch.  ``h`` comes checked by :func:`_checked_initial`;
    a propagator ``h`` lends ``exact`` its spectrum.
    """
    if method == "exact":
        prop = h if isinstance(h, SpectralPropagator) else SpectralPropagator(h)
        vh = prop.v.conj().T
        coefficients = [vh @ b0 for b0 in b0s]

        def evolved(ts):
            phases, at_zero = prop.phases(ts)[:, :, None], ts == 0.0
            for b0, c in zip(b0s, coefficients):
                b = prop.v @ (phases * c)
                b[at_zero] = b0
                yield b

    else:
        h = _generator(h)

        def evolved(ts):
            increments = np.stack([_rk4_increment(h, float(t), INTEGRATOR_STEP) for t in ts])
            return (b0 + increments @ b0 for b0 in b0s)

    for ts in batches(times):
        yield (pair_factor(b, dim_c) for b in evolved(ts))


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
    sampled as one group of :func:`group_batches`, batch by batch, so each
    batch's phase table or RK4 increments serve every state in it; each
    trajectory is that of its state sampled alone, bit for bit.  The
    ``series`` truncation of each state is sampled from
    :func:`series_batches`.

    Each trajectory's metadata records the maximum trace/Hermiticity
    deviations of its reduced states (for the factor methods the trace
    deviation is the norm drift of B(t)) and the largest negative
    eigenvalue mass a factor dropped: that of B0 for the factor methods,
    0.0 for a state built with its factor, and that of the truncations'
    factors for ``series``.  A trace deviation beyond ``DRIFT_BUDGET``, a
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
    plans = [evaluation_times(h, rho0, times) for rho0 in rho0s]
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
        for ls in group_batches(h, b0s, dim_c, plans[members[0]][0], spec.method):
            for k, l in zip(members, ls):
                columns[k].append((*batch_columns(l), factors[k][1]))
    return [_trajectory(times, cols, gather, window) for cols, (_, gather) in zip(columns, plans)]


def sample_trajectory(h, initial: InitialState, spec: EvolutionSpec) -> Trajectory:
    """Evolve, trace out the environment and record the monotones per time: :func:`sample_trajectories` of ``initial`` alone."""
    return sample_trajectories(h, [initial], spec)[0]


def _trajectory(times: np.ndarray, columns: list, gather: np.ndarray, window: str) -> Trajectory:
    """The trajectory on ``times`` of the (lambda*, C, trace drift, Hermiticity drift, clip) of each batch of its evaluated times."""
    lam, conc, trace_dev, herm_dev, clip = zip(*columns)
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
    meta = {"max_trace_deviation": trace_dev, "max_hermiticity_deviation": float(np.max(herm_dev)), "max_psd_clip": clip}
    lam = np.concatenate(lam)[gather]
    neg, count = negativity_and_count(lam)
    return Trajectory(times, lam, neg, np.concatenate(conc)[gather], count.astype(np.int64), meta)
