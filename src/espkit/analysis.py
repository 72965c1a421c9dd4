"""Verification layer: transition detection, short-time fits, closed-form
comparators and the symmetry checks.

The closed forms cover the immediate behavior of the smallest
partial-transpose eigenvalue lambda*(dt) for three families of initial
states:

* z-basis product configurations ("uuu", "uud", "udd"), quadratic in dt
  with coefficients set by the in-plane exchange and the environment spin;
* the fourteen Bell-mixture weightings W1..W14 (constant -eps/2 plus a
  quadratic or quartic correction);
* diagonal-environment product states and single Bell pairs, which are
  validated against the commutator-series truncation they are derived from.

Every closed form is one row of ``FORMULAS``: an initial state and the
coefficients (c0, c2, c4) of lambda*(dt) = c0 + c2 dt² + c4 dt⁴ (even in
dt by the local time-even symmetry; None leaves an order out), which
``repro table1``/``table2`` and :func:`validate_formula` all read.  The
lambda*(dt) samplers map an array of times to lambda* of the reduced
states that trajectories sample: the exact one reads the factors of
:func:`espkit.dynamics.group_batches`, and the truncated one the
commutator-series matrices of :func:`espkit.dynamics.series_batches`.
The fits, validators and symmetry checks call a sampler once.

Trajectory taxonomy near t = 0 uses labels p0..p6: p1/p2 touch the
entanglement boundary from outside/inside, p3/p5 stay on one side, p4 is a
death-to-birth crossing, p6 a birth-to-death crossing, and p0 an
odd-order crossing without time-even symmetry.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .dynamics import (
    EvolutionSpec,
    SpectralPropagator,
    Trajectory,
    _checked_initial,
    evaluation_times,
    group_batches,
    initial_factor,
    sample_trajectory,
    series_batches,
    time_reversed_state,
)
from .errors import GuardViolation, ResolutionError, WindowError
from .hilbert import DensityOperator, Ket, SpinMagnitude, trace_out_c
from .model import ExchangeCoupling, ProductSpinSpec, spin_star_hamiltonian
from .monotones import ENTANGLED_THRESHOLD, batch_pt_min, negativity, negativity_and_count, pt_min
from .states import (
    BellKind,
    bell_initial,
    esp_weighting,
    mixed_initial,
    product_basis_initial,
    product_initial,
)

DEFAULT_FIT_WINDOW = (1e-3, 1e-2)
DEFAULT_FIT_MAX_POWER = 4
MIN_FIT_POINTS = 12
MAX_FIT_CONDITION = 1e12
BOUNDARY_TOL = 1e-6
# a grid difference runs up to about two ulps of max|t| past the nominal spacing, and
# min_duration = 3 * spacing rounds twice on its way back to min_duration / 3
RESOLUTION_ULPS = 8.0

# ---------------------------------------------------------------------------
# transition detection


@dataclass(frozen=True)
class TransitionEvent:
    """A detected sudden-death / sudden-birth episode.

    ``kind`` is "ESD" (death only, zero dwell runs to the window edge),
    "ESB" (birth only) or "TFD" (death followed by birth with a
    dwell of at least the minimum duration).
    """

    kind: str
    t_death: float | None
    t_birth: float | None
    duration: float
    trajectory_label: str | None = None

    def __post_init__(self):
        if self.kind not in ("ESD", "ESB", "TFD"):
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.kind == "TFD" and (self.t_death is None or self.t_birth is None):
            raise ValueError("a TFD event needs both a death and a birth time")
        if self.duration < 0:
            raise ValueError("duration must be nonnegative")


def _crossing_time(t1, n1, t2, n2, threshold) -> float:
    if n1 == n2:
        return 0.5 * (t1 + t2)
    return t1 + (n1 - threshold) * (t2 - t1) / (n1 - n2)


def detect_transitions(
    traj: Trajectory,
    threshold: float = ENTANGLED_THRESHOLD,
    min_duration: float | None = None,
) -> list[TransitionEvent]:
    """Dwell-qualified zero crossings of the negativity.

    A downward crossing followed by at least ``min_duration`` at or below
    ``threshold`` is a death; an upward crossing preceded by such a dwell is
    a birth; an interior zero run bounded by both becomes a single TFD
    event.  Crossing times are refined by linear interpolation.
    ``min_duration`` defaults to five sample spacings.

    Raises :class:`ResolutionError` when the sampling is coarser than
    ``min_duration / 3`` by more than a few ulps of max|t|.
    """
    t = traj.times
    n = traj.negativity
    spacing = traj.spacing
    if min_duration is None:
        min_duration = 5.0 * spacing
    if spacing > min_duration / 3.0 + RESOLUTION_ULPS * np.spacing(max(abs(t[0]), abs(t[-1]))):
        raise ResolutionError(f"sample spacing {spacing!r} exceeds min_duration/3 = {min_duration / 3.0!r}")

    # zero runs span samples i..j, from the flips of the padded below-threshold mask
    flips = np.flatnonzero(np.diff(np.concatenate(([False], n <= threshold, [False]))))
    events: list[TransitionEvent] = []
    last = len(t) - 1
    for i, j in zip(flips[::2], flips[1::2] - 1):
        has_death = i > 0
        has_birth = j < last
        t_start = _crossing_time(t[i - 1], n[i - 1], t[i], n[i], threshold) if has_death else t[0]
        t_end = _crossing_time(t[j], n[j], t[j + 1], n[j + 1], threshold) if has_birth else t[-1]
        dwell = t_end - t_start
        if dwell >= min_duration:
            if has_death and has_birth:
                events.append(TransitionEvent("TFD", t_start, t_end, dwell))
            elif has_death:
                events.append(TransitionEvent("ESD", t_start, None, dwell))
            elif has_birth:
                events.append(TransitionEvent("ESB", None, t_end, dwell))
            # a run covering the whole window is never entangled: no event
    return events


# ---------------------------------------------------------------------------
# short-time polynomial fits


@dataclass(frozen=True)
class ShortTimeFit:
    """Polynomial fit of lambda*(dt) on a short-time window."""

    powers: tuple[int, ...]
    coefficients: tuple[float, ...]
    residual: float
    parity: str

    def coefficient(self, power: int) -> float:
        if power in self.powers:
            return self.coefficients[self.powers.index(power)]
        return 0.0


def check_fit_window(lo: float, hi: float, max_power: int = DEFAULT_FIT_MAX_POWER) -> None:
    """Raise :class:`WindowError` unless 0 < lo < hi and hi**max_power is a normal float.

    A fit scales dt by hi and divides the coefficient of dt^p by hi**p;
    beyond that range the division meets 0 or an overflowed power.
    """
    if not 0 < lo < hi < np.inf:
        raise WindowError(f"window must satisfy 0 < LO < HI < inf, got {lo}:{hi}")
    try:
        top = float(hi) ** max_power
    except OverflowError:
        top = np.inf
    if not sys.float_info.min <= top < np.inf:
        tiny, huge = (x ** (1.0 / max_power) for x in (sys.float_info.min, sys.float_info.max))
        raise WindowError(f"window HI must lie in [{tiny:.3g}, {huge:.3g}] so that HI**{max_power} is a normal float, got {hi}")


def fit_short_time(
    cne_fn: Callable[[np.ndarray], np.ndarray],
    window: tuple[float, float] = DEFAULT_FIT_WINDOW,
    parity: str = "even",
    n_points: int = 17,
    max_power: int = DEFAULT_FIT_MAX_POWER,
) -> ShortTimeFit:
    """Least-squares polynomial fit of a lambda*(dt) sampler.

    The sampler is called once, on the array of ``n_points`` window times.
    ``parity="even"`` fits only even powers (the time-even symmetric case);
    ``"full"`` fits all powers up to ``max_power``.  The design matrix is
    scaled to the window; a window :func:`check_fit_window` rejects, a
    condition number above 1e12 or fewer than 12 points raises
    :class:`WindowError`.
    """
    lo, hi = window
    check_fit_window(lo, hi, max_power)
    if n_points < MIN_FIT_POINTS:
        raise WindowError(f"need at least {MIN_FIT_POINTS} points, got {n_points}")
    if parity == "even":
        powers = tuple(p for p in range(0, max_power + 1, 2))
    elif parity == "full":
        powers = tuple(range(0, max_power + 1))
    else:
        raise ValueError(f"parity must be 'even' or 'full', got {parity!r}")

    dts = np.linspace(lo, hi, n_points)
    vals = cne_fn(dts)
    design = np.column_stack([(dts / hi) ** p for p in powers])
    cond = np.linalg.cond(design)
    if cond > MAX_FIT_CONDITION:
        raise WindowError(f"fit design matrix condition {cond:.3e} exceeds {MAX_FIT_CONDITION:.0e}")
    scaled, *_ = np.linalg.lstsq(design, vals, rcond=None)
    coeffs = tuple(float(c) / hi**p for p, c in zip(powers, scaled))
    residual = float(np.max(np.abs(design @ scaled - vals)))
    return ShortTimeFit(powers, coeffs, residual, parity)


def _cne_sampler(h, rho0: DensityOperator, batch_values) -> Callable[[np.ndarray], np.ndarray]:
    """dt array -> lambda* array, from the lambda* of each batch ``batch_values`` yields for the evaluated times."""

    def sample(dts):
        evaluated, gather = evaluation_times(h, rho0, np.asarray(dts, dtype=np.float64))
        return np.concatenate(list(batch_values(evaluated)))[gather]

    return sample


def exact_cne_function(h, initial) -> Callable[[np.ndarray], np.ndarray]:
    """lambda*(dt) sampler from exact evolution: on a trajectory's grid, bit for bit its ``cne``.

    H is diagonalized and the initial state factored once, here, for every call.
    """
    h, rho0 = _checked_initial(h, initial)
    prop = h if isinstance(h, SpectralPropagator) else SpectralPropagator(h)
    b0s, dim_c = [initial_factor(rho0)[0]], rho0.dims.dim_c
    return _cne_sampler(prop, rho0, lambda ts: (batch_pt_min(l) for (l,) in group_batches(prop, b0s, dim_c, ts, "exact")))


def truncated_cne_function(h, initial, order: int) -> Callable[[np.ndarray], np.ndarray]:
    """lambda*(dt) sampler from the commutator-series truncation.

    The truncated states are not positive: only their partial-transpose spectrum is taken.
    """
    h, rho0 = _checked_initial(h, initial)
    return _cne_sampler(h, rho0, lambda ts: map(pt_min, series_batches(h, rho0, ts, order)))


# ---------------------------------------------------------------------------
# closed-form tables


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


def product_cne_quadratic(state: str, j: ExchangeCoupling, s: SpinMagnitude) -> float:
    """dt² coefficient of lambda* for the z-basis product configurations.

    Sign guards: "uuu" requires sign(Jx) = sign(Jy), "udd" the opposite
    signs; "uud" is unconditional.  The "uud" coefficient is
    (S/2)(Jx² + Jy² - sqrt((Jx² + Jy²)² + 4 Jx² Jy²)); the factor 1/2 is
    fixed by the model dynamics (see the second-order reduced-state
    derivation in the tests).
    """
    jx, jy = j.jx, j.jy
    if state == "uuu":
        if _sign(jx) != _sign(jy):
            raise GuardViolation("configuration 'uuu' requires sign(Jx) = sign(Jy)")
        branch = jy * (jy - jx) if abs(jx) > abs(jy) else jx * (jx - jy)
        return s.s * branch
    if state == "uud":
        return s.s * 0.5 * (jx * jx + jy * jy - np.sqrt((jx * jx + jy * jy) ** 2 + 4 * jx * jx * jy * jy))
    if state == "udd":
        if _sign(jx) != -_sign(jy):
            raise GuardViolation("configuration 'udd' requires sign(Jx) = -sign(Jy)")
        branch = jy * (jx + jy) if abs(jx) > abs(jy) else jx * (jx + jy)
        return s.s * branch
    raise ValueError(f"unknown product configuration {state!r}")


class CneExpansion(NamedTuple):
    """lambda*(dt) = c0 + c2 dt² + c4 dt⁴; None marks an order the closed form leaves out."""

    c0: float
    c2: float | None
    c4: float | None

    @property
    def next_order(self) -> int:
        """The first power of dt the form neglects: the even power after its last tabulated term."""
        return 2 * max(k for k, c in enumerate(self) if c is not None) + 2


# weighting -> (trajectory label, {tabulated sign(epsilon): (Jx², Jy², epsilon) -> (c0, c2, c4)});
# None marks an order the tabulated expansion leaves out
WEIGHTING_TABLE: dict[str, tuple[str, dict[int, Callable]]] = {
    "W1": ("p6", {+1: lambda jx2, jy2, e: (-e / 2.0, jx2 * (1 + e) / 2.0, None)}),
    "W2": ("p6", {+1: lambda jx2, jy2, e: (-e / 2.0, jx2 * e, None)}),
    "W3": ("p6", {+1: lambda jx2, jy2, e: (-e / 2.0, jx2 * (1 + e) / 2.0, None)}),
    "W4": ("p6", {+1: lambda jx2, jy2, e: (-e / 2.0, jy2 * e, None)}),
    "W5": ("p6", {+1: lambda jx2, jy2, e: (-e / 2.0, jy2 * (1 + e) / 2.0, None)}),
    "W6": ("p3", {
        +1: lambda jx2, jy2, e: (-e / 2.0, (1 + e) * (jx2 + jy2) / 2.0, -jx2 * jy2 * (1 + e) * (3 + 7 * e) / (12 * e)),
        -1: lambda jx2, jy2, e: (e / 2.0, None, jx2 * jy2 * (1 + e) ** 2 / (4 * e)),
    }),
    "W7": ("p6", {+1: lambda jx2, jy2, e: (-e / 2.0, jx2 * (1 + 3 * e) / 4.0, None)}),
    "W8": ("p6", {+1: lambda jx2, jy2, e: (-e / 2.0, jy2 * (1 + 3 * e) / 4.0, None)}),
    "W9": ("p6", {+1: lambda jx2, jy2, e: (-e / 2.0, jx2 * (1 + 3 * e) / 4.0 + jy2 * (1 + e) / 2.0, None)}),
    "W10": ("p4", {-1: lambda jx2, jy2, e: (-e / 2.0, None, -jx2 * jy2 * (-1 + e) ** 2 / (8 * (1 + e)))}),
    "W11": ("p6", {+1: lambda jx2, jy2, e: (-e / 2.0, jx2 * (1 + 2 * e) / 3.0, None)}),
    "W12": ("p6", {+1: lambda jx2, jy2, e: (-e / 2.0, jy2 * (1 + 2 * e) / 3.0, None)}),
    "W13": ("p6", {+1: lambda jx2, jy2, e: (-e / 2.0, (jx2 + jy2) * (1 + 2 * e) / 3.0, None)}),
    "W14": ("p4", {-1: lambda jx2, jy2, e: (-e / 2.0, None, -jx2 * jy2 * (-1 + e) ** 2 / (3 + 6 * e))}),
}

WEIGHTING_TABLE_SIGNS: dict[str, tuple[int, ...]] = {wid: tuple(forms) for wid, (_, forms) in WEIGHTING_TABLE.items()}
WEIGHTING_LABELS: dict[str, str] = {wid: label for wid, (label, _) in WEIGHTING_TABLE.items()}


def weighting_cne_expansion(weighting_id: str, j: ExchangeCoupling, epsilon: float) -> CneExpansion:
    """Tabulated immediate expansion of lambda*(dt) for a mixture weighting.

    Valid at the tabulated sign of the switch parameter (both signs for
    W6); other signs raise :class:`GuardViolation`.  W10/W14 lead at dt⁴;
    W6 carries a dt⁴/epsilon correction whose 1/epsilon-leading part is
    returned (the remainder is O(1) in epsilon).
    """
    if weighting_id not in WEIGHTING_TABLE:
        raise ValueError(f"unknown weighting id {weighting_id!r}")
    forms = WEIGHTING_TABLE[weighting_id][1]
    sgn = _sign(epsilon)
    if sgn not in forms:
        raise GuardViolation(f"{weighting_id} expansion is tabulated for sign(epsilon) in {tuple(forms)}, got {sgn}")
    return CneExpansion(*forms[sgn](j.jx**2, j.jy**2, epsilon))


def env_diag_pair_cne(j: ExchangeCoupling, s: SpinMagnitude, env_weights, theta_a: float, theta_b: float) -> CneExpansion:
    """Quadratic lambda* of a diagonal-environment product state (series order 2).

    dt² (Jz²/2) (sum_m m rho_m)² (cos 2θ_A + cos 2θ_B - 2); exact for the
    two-term commutator-series truncation up to a small dt⁴ eigenvalue
    remainder.
    """
    msum = float(np.dot(s.m_values(), np.asarray(env_weights, dtype=np.float64)))
    return CneExpansion(0.0, (j.jz**2 / 2.0) * msum**2 * (-2.0 + np.cos(2 * theta_a) + np.cos(2 * theta_b)), None)


def alpha_pair_cne(j: ExchangeCoupling, s: SpinMagnitude, p: float) -> CneExpansion:
    """Displayed lambda* for an alpha-family Bell pair under series order 2.

    -(sqrt(1-p²)/2)(1 + 8 (S Jz dt)²); the truncated-series eigenvalue is
    exactly -(sqrt(1-p²)/2) sqrt(1 + 16 (S Jz dt)²), so the displayed form
    carries its own O(dt⁴) remainder.
    """
    c0 = -np.sqrt(1 - p * p) / 2.0
    return CneExpansion(c0, c0 * 8.0 * (s.s * j.jz) ** 2, None)


def beta_pair_cne(j: ExchangeCoupling, s: SpinMagnitude, p: float) -> CneExpansion:
    """Displayed lambda* for a beta-family Bell pair under series order 2: constant through dt²."""
    return CneExpansion(-np.sqrt(1 - p * p) / 2.0, 0.0, None)


@dataclass(frozen=True)
class CneFormula:
    """A closed-form lambda*(dt), ``coefficients(params)``, and its validation recipe.

    ``mode`` is "full_numerics" or "truncated_series" (of ``truncation_order`` terms).
    """

    mode: str
    truncation_order: int
    initial: Callable[[dict], DensityOperator | Ket]
    coefficients: Callable[[dict], CneExpansion]

    def build(self, params: dict) -> tuple[np.ndarray, DensityOperator | Ket]:
        """The Hamiltonian for ``params["j"]``, ``params["s"]`` and the initial state."""
        return spin_star_hamiltonian(params["j"], params["s"]), self.initial(params)


# the loop variables are bound as defaults; the state constructors are looked up when called
FORMULAS: dict[str, CneFormula] = {
    **{
        f"product_{state}": CneFormula(
            "full_numerics", 3,
            lambda p, state=state: product_basis_initial(state, p["s"]),
            lambda p, state=state: CneExpansion(0.0, product_cne_quadratic(state, p["j"], p["s"]), None),
        )
        for state in ("uuu", "uud", "udd")
    },
    **{
        f"mixed_{wid}": CneFormula(
            "full_numerics", 3,
            lambda p, wid=wid: mixed_initial(esp_weighting(wid, p["epsilon"]), p["s"]),
            lambda p, wid=wid: weighting_cne_expansion(wid, p["j"], p["epsilon"]),
        )
        for wid in WEIGHTING_TABLE
    },
    "env_diag_pair": CneFormula(
        "truncated_series", 2,
        lambda p: product_initial(ProductSpinSpec(theta_a=p["theta_a"], theta_b=p["theta_b"], env_weights=tuple(p["env_weights"])), p["s"]),
        lambda p: env_diag_pair_cne(p["j"], p["s"], p["env_weights"], p["theta_a"], p["theta_b"]),
    ),
    "alpha_pair": CneFormula(
        "truncated_series", 2,
        lambda p: bell_initial(BellKind("alpha", p.get("sign", +1), p["p"]), p["s"]),
        lambda p: alpha_pair_cne(p["j"], p["s"], p["p"]),
    ),
    "beta_pair": CneFormula(
        "truncated_series", 2,
        lambda p: bell_initial(BellKind("beta", p.get("sign", +1), p["p"]), p["s"]),
        lambda p: beta_pair_cne(p["j"], p["s"], p["p"]),
    ),
}


@dataclass(frozen=True)
class FormulaCheck:
    """Per-dt comparison of a closed form against numerics."""

    formula_id: str
    mode: str
    rows: tuple[tuple[float, float, float, float], ...]  # (dt, numeric, analytic, |dev|)
    max_deviation: float
    tolerances: tuple[float, ...]
    passed: bool


def validate_formula(
    formula_id: str,
    params: dict,
    dts: Sequence[float] = (1e-3, 1e-2),
) -> FormulaCheck:
    """Compare a registered closed form against the numerics of its mode.

    "truncated_series" evaluates the commutator-series truncation the form
    was derived at; "full_numerics" evaluates exact evolution.  The
    deviation must stay below max(1e-10, 3 K dt^q) at ``dts`` and at the
    references r, 2r, 4r (r = min(dts)), with q the form's
    :attr:`CneExpansion.next_order` and K = dev(4r) / (4r)^q.  A wrong c0
    or c2 shrinks more slowly than dt^q and so fails at r.  The 1e-10 floor
    passes W6 at epsilon > 0, whose c4 is only the 1/epsilon-leading part
    (at most 1.4e-11 off at 4e-3), and errors in c4 alone at these dts.
    Numerics and closed form are each evaluated once; ``rows`` hold ``dts``.
    """
    formula = FORMULAS[formula_id]
    h, initial = formula.build(params)
    if formula.mode == "truncated_series":
        cne_fn = truncated_cne_function(h, initial, formula.truncation_order)
    else:
        cne_fn = exact_cne_function(h, initial)

    expansion = formula.coefficients(params)
    q = expansion.next_order
    dt_ref = min(dts)
    refs = [dt_ref * f for f in (1.0, 2.0, 4.0)]
    grid = np.array([*refs, *dts], dtype=np.float64)
    numeric = cne_fn(grid)
    closed = sum(c * grid ** (2 * k) for k, c in enumerate(expansion) if c is not None)
    devs = np.abs(numeric - closed)
    tols = np.maximum(1e-10, 3.0 * (devs[2] / refs[2] ** q) * grid**q)

    rows = tuple((float(dt), float(n), float(c), float(d)) for dt, n, c, d in zip(dts, numeric[3:], closed[3:], devs[3:]))
    passed = bool(np.all(devs <= tols))  # NaN fails
    return FormulaCheck(formula_id, formula.mode, rows, max(r[3] for r in rows), tuple(map(float, tols[3:])), passed)


# ---------------------------------------------------------------------------
# trajectory classification


@dataclass(frozen=True)
class ClassifiedTrajectory:
    """p-label with the evidence used to assign it: the window's detected
    ``events`` and, when lambda*(0) lies on the boundary, the small-|t| fit."""

    label: str
    c0: float
    crossed_before: bool
    crossed_after: bool
    events: list[TransitionEvent]
    diagnostics: dict = field(default_factory=dict)


def classify_trajectory(
    traj: Trajectory,
    threshold: float = ENTANGLED_THRESHOLD,
    min_duration: float | None = None,
) -> ClassifiedTrajectory:
    """Assign a near-boundary trajectory label from a window around t = 0.

    The window must include negative times.  Entangled at t = 0
    (lambda*(0) < -BOUNDARY_TOL), a dwell-qualified birth before and a
    death after is p6, neither is p3.  Separable at t = 0 (lambda*(0) >
    BOUNDARY_TOL), a death before and a birth after is p4, neither is p5.
    A crossing on one side only is "unclassified".  On the boundary an odd
    fit leads to p0, otherwise the dip side separates p1 from p2; a poor
    fit is "unclassified".
    """
    t = traj.times
    if t[0] >= 0 or t[-1] <= 0:
        raise ValueError("classification needs a window covering both sides of t = 0")
    c0 = float(np.interp(0.0, t, traj.cne))
    events = detect_transitions(traj, threshold, min_duration)

    if abs(c0) > BOUNDARY_TOL:
        entangled = c0 < 0
        deaths = [ev.t_death for ev in events if ev.t_death is not None]
        births = [ev.t_birth for ev in events if ev.t_birth is not None]
        before = any(x < 0 for x in (births if entangled else deaths))
        after = any(x > 0 for x in (deaths if entangled else births))
        label = ("p6" if before else "p3") if entangled else ("p4" if before else "p5")
        return ClassifiedTrajectory(label if before == after else "unclassified", c0, before, after, events)

    # on the boundary: fit the small-|t| structure of lambda*
    spacing = traj.spacing
    half_width = max(8 * spacing, 0.02 * (t[-1] - t[0]))
    mask = np.abs(t) <= half_width
    ts = t[mask]
    vals = traj.cne[mask]
    scale = np.max(np.abs(ts))
    design = np.column_stack([(ts / scale) ** p for p in (0, 1, 2)])
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    resid = float(np.max(np.abs(design @ coef - vals)))
    c1 = coef[1] / scale
    c2 = coef[2] / scale**2
    diag = {"c1": float(c1), "c2": float(c2), "fit_residual": resid, "fit_halfwidth": half_width}
    odd_part = abs(c1) * half_width
    even_part = abs(c2) * half_width**2
    if resid > 0.1 * max(odd_part, even_part, threshold):
        return ClassifiedTrajectory("unclassified", c0, False, False, events, diag)
    if odd_part > 3.0 * max(even_part, threshold):
        return ClassifiedTrajectory("p0", c0, False, False, events, diag)
    if c2 < 0:
        return ClassifiedTrajectory("p2", c0, False, False, events, diag)
    return ClassifiedTrajectory("p1", c0, False, False, events, diag)


# ---------------------------------------------------------------------------
# symmetry suite


@dataclass(frozen=True)
class SymmetryReport:
    """Maximum deviations of the three dynamical symmetry relations."""

    coupling_negation_unitary: float
    coupling_negation_grid: float
    time_reversal_closure: float
    dt2_symmetry: float
    event_mirror: float | None
    passed: bool


def symmetry_suite(
    j: ExchangeCoupling,
    s: SpinMagnitude,
    initial: DensityOperator | Ket,
    t_max: float = 3.0,
    n_steps: int = 1200,
) -> SymmetryReport:
    """Run the coupling-negation, time-reversal and dt² symmetry checks.

    Coupling negation: exp(-iH(J)(-t)) equals exp(-iH(-J)t) exactly, so
    the negativity grids mirror, and any death under J appears as a birth
    under -J at the mirrored time.  Time reversal: evolving the flipped
    conjugate of rho(t) for another t restores the initial negativity.
    dt² symmetry: N(dt) = N(-dt) near t = 0, exactly for a real
    preparation (:func:`espkit.dynamics.evaluation_times`).  H(J) and
    H(-J) are each diagonalized once.
    """
    h, initial = _checked_initial(spin_star_hamiltonian(j, s), initial)
    prop = SpectralPropagator(h)
    prop_neg = SpectralPropagator(spin_star_hamiltonian(-j, s))

    u_dev = 0.0
    for t in (0.5, 1.0, 2.0):
        u_dev = max(u_dev, float(np.max(np.abs(prop.unitary(-t) - prop_neg.unitary(t)))))

    spec = EvolutionSpec(t_max=t_max, n_steps=n_steps, emit_negative_times=True)
    traj = sample_trajectory(prop, initial, spec)
    traj_neg = sample_trajectory(prop_neg, initial, spec)
    grid_dev = float(np.max(np.abs(traj.negativity - traj_neg.negativity[::-1])))

    # time-reversal closure through rho(2)
    rho_t = prop.evolve_matrix(initial.matrix, 2.0)
    reversed_state = time_reversed_state(DensityOperator(rho_t, initial.dims, validate=False), s)
    rho_back = prop.evolve_matrix(reversed_state.matrix, 2.0)
    n0 = negativity(trace_out_c(initial.matrix, initial.dims.dim_c))
    n_back = negativity(trace_out_c(rho_back, initial.dims.dim_c))
    closure_dev = abs(n0 - n_back)

    n_pm = negativity_and_count(exact_cne_function(prop, initial)(np.array([1e-3, 1e-2, -1e-3, -1e-2])))[0]
    dt2_dev = float(np.max(np.abs(n_pm[:2] - n_pm[2:])))

    event_dev: float | None = None
    events = detect_transitions(traj)
    events_neg = detect_transitions(traj_neg)
    if events and events_neg:
        deaths = sorted(ev.t_death for ev in events if ev.t_death is not None)
        births_mirror = sorted(-ev.t_birth for ev in events_neg if ev.t_birth is not None)
        if deaths and len(deaths) == len(births_mirror):
            event_dev = float(np.max(np.abs(np.array(deaths) - np.array(births_mirror))))

    passed = (
        u_dev <= 1e-12
        and grid_dev <= 1e-10
        and closure_dev <= 1e-8
        and dt2_dev <= 1e-8
        and (event_dev is None or event_dev <= 3.0 * traj.spacing)
    )
    return SymmetryReport(u_dev, grid_dev, closure_dev, dt2_dev, event_dev, passed)
