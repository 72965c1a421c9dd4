"""Time evolution engines and trajectory sampling.

Exact propagation diagonalizes the Hamiltonian once and reuses the spectrum
for every sample time; the commutator-series truncation feeds the analytic
short-time validators; fourth-order Runge-Kutta on the propagator,
composed by binary powering of its one-step matrix, provides an
independent cross-check that never diagonalizes the Hamiltonian.  Every
sample time is propagated from t = 0 on its own, so negative times run
the propagators backwards and no error carries from one sample to the next.

Trajectories and the short-time lambda* samplers of :mod:`espkit.analysis`
take every reduced state from :func:`reduced_batches`, CHUNK sample times
per batch.  The exact and integrator methods propagate the initial
ensemble factor B0 (rho0 = B0 B0†, one column per pure component) and
regroup each B(t) into the factor L of rho_AB = L L†, which is positive
by construction and never diagonalized.  The series truncation of the
equation of motion for rho has no positive factor: each of its reduced
states is factored by eigendecomposition, dropping the negative mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .densemat import (
    HermitianSpectrum,
    as_complex_matrix,
    hermitian_eig,
    kron_all,
)
from .densemat import propagator as _propagator_from_spectrum
from .errors import DimensionError, NumericalError
from .hilbert import (
    PAULI_Y,
    DensityOperator,
    Ket,
    SpinMagnitude,
    pair_factor,
    spin_operators,
    trace_out_c,
)
from .monotones import batches, check_clip, pair_monotones, psd_factor

INTEGRATOR_STEP = 1e-4
# largest |tr rho_AB - 1| a trajectory may show: exact propagation keeps it
# near 1e-15; RK4 drifts about 4e-12 by |t| = 1e5 and 4e-10 by 1e7
DRIFT_BUDGET = 1e-9

InitialState = Union[DensityOperator, Ket]


@dataclass(frozen=True)
class EvolutionSpec:
    """Sampling plan for a trajectory.

    The grid is ``n_steps + 1`` evenly spaced times on [0, t_max], or on
    [-t_max, t_max] when ``emit_negative_times`` is set (the near-past
    branch used by the time-symmetry checks).
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
        if not np.isfinite(self.t_max):
            raise ValueError(f"time window [{self.start}, {self.t_max}] is not finite")
        if not self.start < self.t_max:
            raise ValueError(f"empty time window [{self.start}, {self.t_max}]")

    @property
    def start(self) -> float:
        """First sample time: 0, or -t_max with ``emit_negative_times``."""
        return -self.t_max if self.emit_negative_times else 0.0

    def time_grid(self) -> np.ndarray:
        return np.linspace(self.start, self.t_max, self.n_steps + 1)


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

    Diagonalizes once; every unitary is then V diag(exp(-i w t)) V†.
    """

    def __init__(self, h):
        self.h = as_complex_matrix(h)
        self.spectrum: HermitianSpectrum = hermitian_eig(self.h)

    @property
    def shape(self) -> tuple[int, int]:
        return self.h.shape

    def unitary(self, t: float) -> np.ndarray:
        if t == 0.0:
            return np.eye(self.h.shape[0], dtype=np.complex128)
        return _propagator_from_spectrum(self.spectrum, t)

    def evolve_matrix(self, rho: np.ndarray, t: float) -> np.ndarray:
        """rho(t) = U rho U† with U = :meth:`unitary`; ``rho`` itself at t = 0."""
        u = self.unitary(float(t))
        return u @ rho @ u.conj().T

    def evolve_factor(self, b0: np.ndarray, times: np.ndarray) -> np.ndarray:
        """B(t) = V (e^{-iwt} ∘ V† B0) for every t, as a (T, n, r) stack.

        B(t) B(t)† = rho(t) for B0 B0† = rho0.  At t = 0 the stack holds
        ``b0`` itself.
        """
        v = self.spectrum.eigenvectors
        phases = np.exp(-1j * np.multiply.outer(times, self.spectrum.eigenvalues))
        out = v @ (phases[:, :, None] * (v.conj().T @ b0))
        out[times == 0.0] = b0
        return out


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
    if h.shape != rho0.matrix.shape:
        raise DimensionError(f"Hamiltonian shape {h.shape} does not match state shape {rho0.matrix.shape}")
    return h, rho0


def evolve_exact(h, rho0: InitialState, t: float) -> DensityOperator:
    """Unitary evolution rho(t) = U rho U† with U = exp(-iHt).

    Preserves trace, Hermiticity and the spectrum; energy is conserved.
    """
    h, rho0 = _checked_initial(h, rho0)
    prop = SpectralPropagator(h)
    return DensityOperator(prop.evolve_matrix(rho0.matrix, t), rho0.dims, validate=False)


def _series_terms(h: np.ndarray, m: np.ndarray, order: int) -> list[np.ndarray]:
    """rho0, -i[H, rho0] and -(1/2)[H, [H, rho0]]: the dt^k coefficients, k < order."""
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    terms = [m.astype(np.complex128, copy=True)]
    if order >= 2:
        comm1 = h @ m - m @ h
        terms.append(-1j * comm1)
        if order >= 3:
            terms.append(-0.5 * (h @ comm1 - comm1 @ h))
    return terms


def _series_stack(terms: list[np.ndarray], times: np.ndarray) -> np.ndarray:
    """sum_k t^k term_k for every t, as a (T, n, n) stack."""
    t = times[:, None, None]
    out = np.repeat(terms[0][None], times.shape[0], axis=0)
    for k, term in enumerate(terms[1:], start=1):
        out = out + t**k * term
    return out


def evolve_series(h, rho0: InitialState, dt: float, order: int = 3) -> np.ndarray:
    """Commutator-series truncation of the equation of motion.

    ``order`` counts the retained terms: 1 keeps rho0, 2 adds
    -i[H, rho0] dt, 3 adds -(1/2)[H, [H, rho0]] dt².  The result is
    Hermitian and trace-one but deliberately not positive: it feeds the
    short-time analytic validators, which are derived from exactly these
    truncations.
    """
    h, rho0 = _checked_initial(h, rho0)
    return _series_stack(_series_terms(h, rho0.matrix, order), np.array([float(dt)]))[0]


def _rk4_increment(h: np.ndarray, t_final: float, max_step: float) -> np.ndarray:
    """P = U - I for the fourth-order Runge-Kutta propagator U of dU/dt = -i h U over ``t_final``.

    n = ceil(|t_final| / max_step) steps of dt = t_final / n land exactly on
    ``t_final``.  One step of the linear equation is the fixed matrix
    T = I + E with E = sum_{1<=k<=4} (-i h dt)^k / k!, so the n steps are
    U = T^n, taken by binary powering in O(log n) matrix products.  Only
    the increments E and T^n - I are formed: I + E in double precision
    would round away the low bits of E in every step.  P is zero at
    ``t_final`` = 0.  A powering that overflows raises :class:`NumericalError`.
    """
    acc = np.zeros_like(h)  # T^m - I for the low bits m of n_steps consumed so far
    if t_final == 0.0:
        return acc
    n_steps = int(np.ceil(abs(t_final) / max_step))
    a = (-1j * (t_final / n_steps)) * h
    eye = np.eye(h.shape[0], dtype=np.complex128)
    step = a @ (eye + a @ (eye + a @ (eye + a / 4.0) / 3.0) / 2.0)  # T - I by Horner
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as one error, not as warnings
        while n_steps:
            if n_steps & 1:
                acc = acc + step + acc @ step
            step = 2.0 * step + step @ step  # T^(2k) - I from T^k - I
            n_steps >>= 1
    if not np.all(np.isfinite(acc)):
        raise NumericalError(f"RK4 propagator over t = {t_final:g} overflowed; use method \"exact\"")
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
    for exact evolution.
    """
    h, rho0 = _checked_initial(h, rho0)
    return DensityOperator(_rk4(h, rho0.matrix, float(t), INTEGRATOR_STEP), rho0.dims, validate=False)


def time_reversal_unitary(s: SpinMagnitude) -> np.ndarray:
    """Unitary part of the all-spin flip on environment ⊗ A ⊗ B.

    exp(-i pi Sy) on the environment and sigma_y on each qubit; composing
    with complex conjugation in the product basis realizes the antiunitary
    spin flip (the global phase is irrelevant at the density-matrix level).
    """
    _, sy, _ = spin_operators(s)
    env_flip = _propagator_from_spectrum(hermitian_eig(sy), np.pi)
    return kron_all(env_flip, PAULI_Y, PAULI_Y)


def time_reversed_state(rho: DensityOperator, s: SpinMagnitude) -> DensityOperator:
    """Theta rho* Theta†: the all-spin-flipped, conjugated state."""
    theta = time_reversal_unitary(s)
    return DensityOperator(theta @ rho.matrix.conj() @ theta.conj().T, rho.dims, validate=False)


def reduced_batches(h: np.ndarray | SpectralPropagator, rho0: DensityOperator, times: np.ndarray, method: str, order: int = 3):
    """Yield (rho_AB, L, clip) for each batch of at most CHUNK ``times``, rho_AB = L L† a (T, 4, 4) stack.

    ``exact`` takes B(t) from the spectrum of H, ``integrator`` as
    B0 + P(t) B0 with P(t) the RK4 increment of :func:`_rk4_increment`;
    both regroup B(t) into L, and ``clip`` is the negative mass dropped if
    B0 had to be made.  The ``series`` truncation to ``order`` terms has no
    factor of its own: :func:`psd_factor` makes L and clip from its rho_AB.
    ``h`` and ``rho0`` come checked by :func:`_checked_initial`; a
    propagator ``h`` lends ``exact`` its spectrum.
    """
    dim_c = rho0.dims.dim_c
    prop, h = (h, h.h) if isinstance(h, SpectralPropagator) else (None, h)
    if method == "series":
        terms = _series_terms(h, rho0.matrix, order)
        for ts in batches(times):
            red = trace_out_c(_series_stack(terms, ts), dim_c)
            yield red, *psd_factor(red)
        return
    # the constructors give exact factors; a bare matrix is factored once, dropping negative dust
    b0, clip = (rho0.factor, 0.0) if rho0.factor is not None else psd_factor(rho0.matrix)
    check_clip(float(clip))
    if method == "exact":
        prop = prop or SpectralPropagator(h)
        factors = (prop.evolve_factor(b0, ts) for ts in batches(times))
    else:
        factors = (
            b0 + np.stack([_rk4_increment(h, float(t), INTEGRATOR_STEP) for t in ts]) @ b0 for ts in batches(times)
        )
    for b in factors:
        l = pair_factor(b, dim_c)
        yield l @ l.conj().swapaxes(-1, -2), l, clip


def sample_trajectory(h, initial: InitialState, spec: EvolutionSpec) -> Trajectory:
    """Evolve, trace out the environment and record the monotones per time.

    ``h`` is the Hamiltonian, or a :class:`SpectralPropagator` of it whose
    spectrum ``exact`` then reuses.  Metadata records the maximum
    trace/Hermiticity deviations of the reduced states (for the factor
    methods the trace deviation is the norm drift of B(t)) and the largest
    negative eigenvalue mass a factor dropped: 0.0 for a state built with
    its factor.  A trace deviation beyond ``DRIFT_BUDGET`` raises
    :class:`NumericalError`.
    """
    h, rho0 = _checked_initial(h, initial)
    times = spec.time_grid()
    try:
        mono = pair_monotones(reduced_batches(h, rho0, times, spec.method))
    except NumericalError as exc:
        if spec.method != "series":
            raise
        raise NumericalError(
            f"the three-term series truncation is not positive on [{times[0]:g}, {times[-1]:g}]: {exc}; "
            'use method "exact" or a smaller t_max'
        ) from None
    if not mono.max_trace_deviation <= DRIFT_BUDGET:  # NaN fails too
        raise NumericalError(
            f"reduced states drift {mono.max_trace_deviation:.3e} from unit trace on [{times[0]:g}, {times[-1]:g}], "
            f"beyond the {DRIFT_BUDGET:g} budget"
        )
    meta = {
        "max_trace_deviation": mono.max_trace_deviation,
        "max_hermiticity_deviation": mono.max_hermiticity_deviation,
        "max_psd_clip": mono.max_clip,
    }
    return Trajectory(times, mono.cne, mono.negativity, mono.concurrence, mono.negative_count, meta)
