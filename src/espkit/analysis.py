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

Trajectory taxonomy near t = 0 uses labels p0..p6: p1/p2 touch the
entanglement boundary from outside/inside, p3/p5 stay on one side, p4 is a
death-to-birth crossing, p6 a birth-to-death crossing, and p0 an
odd-order crossing without time-even symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .densemat import as_complex_matrix
from .dynamics import (
    EvolutionSpec,
    SpectralPropagator,
    Trajectory,
    evolve_series,
    sample_trajectory,
    time_reversed_state,
)
from .errors import GuardViolation, ResolutionError, WindowError
from .hilbert import DensityOperator, Ket, SpinMagnitude, partial_trace_c_matrix
from .model import ExchangeCoupling, ProductSpinSpec, spin_star_hamiltonian
from .monotones import ENTANGLED_THRESHOLD, cne, negativity
from .states import (
    BellKind,
    bell_initial,
    esp_weighting,
    mixed_initial,
    product_basis_initial,
    product_initial,
    pure_initial,
)

DEFAULT_FIT_WINDOW = (1e-3, 1e-2)
MIN_FIT_POINTS = 12
MAX_FIT_CONDITION = 1e12
BOUNDARY_TOL = 1e-6

P_LABELS = ("p0", "p1", "p2", "p3", "p4", "p5", "p6")


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
    ``min_duration / 3``.
    """
    t = traj.times
    n = traj.negativity
    spacing = traj.spacing
    if min_duration is None:
        min_duration = 5.0 * spacing
    if spacing > min_duration / 3.0:
        raise ResolutionError(
            f"sample spacing {spacing:.3g} exceeds min_duration/3 = {min_duration / 3.0:.3g}"
        )

    below = n <= threshold
    events: list[TransitionEvent] = []
    i = 0
    size = len(t)
    while i < size:
        if not below[i]:
            i += 1
            continue
        j = i
        while j + 1 < size and below[j + 1]:
            j += 1
        # zero run spans samples i..j
        has_death = i > 0
        has_birth = j < size - 1
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
        i = j + 1
    return events


# ---------------------------------------------------------------------------
# short-time polynomial fits


@dataclass(frozen=True)
class ShortTimeFit:
    """Polynomial fit of lambda*(dt) on a short-time window."""

    powers: tuple[int, ...]
    coefficients: tuple[float, ...]
    residual: float
    dt_grid: np.ndarray
    parity: str

    def coefficient(self, power: int) -> float:
        if power in self.powers:
            return self.coefficients[self.powers.index(power)]
        return 0.0

    @property
    def c0(self) -> float:
        return self.coefficient(0)

    @property
    def c1(self) -> float:
        return self.coefficient(1)

    @property
    def c2(self) -> float:
        return self.coefficient(2)

    @property
    def c3(self) -> float:
        return self.coefficient(3)

    @property
    def c4(self) -> float:
        return self.coefficient(4)


def fit_short_time(
    cne_fn: Callable[[float], float],
    window: tuple[float, float] = DEFAULT_FIT_WINDOW,
    parity: str = "even",
    n_points: int = 17,
    max_power: int = 4,
) -> ShortTimeFit:
    """Least-squares polynomial fit of a lambda*(dt) sampler.

    ``parity="even"`` fits only even powers (the time-even symmetric case);
    ``"full"`` fits all powers up to ``max_power``.  The design matrix is
    scaled to the window; a condition number above 1e12 or fewer than 12
    points raises :class:`WindowError`.
    """
    lo, hi = window
    if not 0 < lo < hi < np.inf:
        raise WindowError(f"invalid window [{lo}, {hi}]")
    if n_points < MIN_FIT_POINTS:
        raise WindowError(f"need at least {MIN_FIT_POINTS} points, got {n_points}")
    if parity == "even":
        powers = tuple(p for p in range(0, max_power + 1, 2))
    elif parity == "full":
        powers = tuple(range(0, max_power + 1))
    else:
        raise ValueError(f"parity must be 'even' or 'full', got {parity!r}")

    dts = np.linspace(lo, hi, n_points)
    vals = np.array([cne_fn(float(dt)) for dt in dts])
    design = np.column_stack([(dts / hi) ** p for p in powers])
    cond = np.linalg.cond(design)
    if cond > MAX_FIT_CONDITION:
        raise WindowError(f"fit design matrix condition {cond:.3e} exceeds {MAX_FIT_CONDITION:.0e}")
    scaled, *_ = np.linalg.lstsq(design, vals, rcond=None)
    coeffs = tuple(float(c) / hi**p for p, c in zip(powers, scaled))
    residual = float(np.max(np.abs(design @ scaled - vals)))
    return ShortTimeFit(powers, coeffs, residual, dts, parity)


def exact_cne_function(h, initial) -> Callable[[float], float]:
    """lambda*(dt) sampler from exact evolution of (h, initial state)."""
    if isinstance(initial, Ket):
        initial = initial.to_density()
    prop = SpectralPropagator(h)
    rho0 = initial.matrix
    dim_c = initial.dims.dim_c

    def cne_at(dt: float) -> float:
        return cne(partial_trace_c_matrix(prop.evolve_matrix(rho0, dt), dim_c))[0]

    return cne_at


def truncated_cne_function(h, initial, order: int) -> Callable[[float], float]:
    """lambda*(dt) sampler from the commutator-series truncation."""
    if isinstance(initial, Ket):
        initial = initial.to_density()
    dim_c = initial.dims.dim_c
    h = as_complex_matrix(h)

    def cne_at(dt: float) -> float:
        return cne(partial_trace_c_matrix(evolve_series(h, initial, float(dt), order), dim_c))[0]

    return cne_at


# ---------------------------------------------------------------------------
# closed-form registry


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


@dataclass(frozen=True)
class WeightingExpansion:
    """Immediate lambda* expansion of one Bell-mixture weighting.

    ``c2``/``c4`` are None when the corresponding order is not part of the
    tabulated expansion; ``label`` is the near-boundary trajectory class at
    the tabulated switch-parameter sign(s).
    """

    weighting_id: str
    epsilon: float
    c0: float
    c2: float | None
    c4: float | None
    label: str


# signs at which each weighting's expansion (and trajectory label) is tabulated
WEIGHTING_TABLE_SIGNS: dict[str, tuple[int, ...]] = {
    "W1": (+1,), "W2": (+1,), "W3": (+1,), "W4": (+1,), "W5": (+1,),
    "W6": (+1, -1),
    "W7": (+1,), "W8": (+1,), "W9": (+1,), "W10": (-1,),
    "W11": (+1,), "W12": (+1,), "W13": (+1,), "W14": (-1,),
}

WEIGHTING_LABELS: dict[str, str] = {
    "W1": "p6", "W2": "p6", "W3": "p6", "W4": "p6", "W5": "p6", "W6": "p3",
    "W7": "p6", "W8": "p6", "W9": "p6", "W10": "p4",
    "W11": "p6", "W12": "p6", "W13": "p6", "W14": "p4",
}


def weighting_cne_expansion(weighting_id: str, j: ExchangeCoupling, epsilon: float) -> WeightingExpansion:
    """Tabulated immediate expansion of lambda*(dt) for a mixture weighting.

    Valid at the tabulated sign of the switch parameter (both signs for
    W6); other signs raise :class:`GuardViolation`.  W10/W14 lead at dt⁴;
    W6 carries a dt⁴/epsilon correction whose 1/epsilon-leading part is
    returned (the remainder is O(1) in epsilon).
    """
    if weighting_id not in WEIGHTING_TABLE_SIGNS:
        raise ValueError(f"unknown weighting id {weighting_id!r}")
    sgn = _sign(epsilon)
    if sgn not in WEIGHTING_TABLE_SIGNS[weighting_id]:
        allowed = WEIGHTING_TABLE_SIGNS[weighting_id]
        raise GuardViolation(
            f"{weighting_id} expansion is tabulated for sign(epsilon) in {allowed}, got {sgn}"
        )
    jx2, jy2 = j.jx**2, j.jy**2
    e = epsilon
    c0 = -e / 2.0
    c2: float | None = None
    c4: float | None = None
    if weighting_id == "W1" or weighting_id == "W3":
        c2 = jx2 * (1 + e) / 2.0
    elif weighting_id == "W2":
        c2 = jx2 * e
    elif weighting_id == "W4":
        c2 = jy2 * e
    elif weighting_id == "W5":
        c2 = jy2 * (1 + e) / 2.0
    elif weighting_id == "W6":
        if e > 0:
            c2 = (1 + e) * (jx2 + jy2) / 2.0
            c4 = -jx2 * jy2 * (1 + e) * (3 + 7 * e) / (12 * e)
        else:
            c0 = e / 2.0
            c4 = jx2 * jy2 * (1 + e) ** 2 / (4 * e)
    elif weighting_id == "W7":
        c2 = jx2 * (1 + 3 * e) / 4.0
    elif weighting_id == "W8":
        c2 = jy2 * (1 + 3 * e) / 4.0
    elif weighting_id == "W9":
        c2 = jx2 * (1 + 3 * e) / 4.0 + jy2 * (1 + e) / 2.0
    elif weighting_id == "W10":
        c4 = -jx2 * jy2 * (-1 + e) ** 2 / (8 * (1 + e))
    elif weighting_id == "W11":
        c2 = jx2 * (1 + 2 * e) / 3.0
    elif weighting_id == "W12":
        c2 = jy2 * (1 + 2 * e) / 3.0
    elif weighting_id == "W13":
        c2 = (jx2 + jy2) * (1 + 2 * e) / 3.0
    elif weighting_id == "W14":
        c4 = -jx2 * jy2 * (-1 + e) ** 2 / (3 + 6 * e)
    return WeightingExpansion(weighting_id, epsilon, c0, c2, c4, WEIGHTING_LABELS[weighting_id])


def env_diag_pair_cne(j: ExchangeCoupling, s: SpinMagnitude, env_weights, theta_a: float, theta_b: float, dt: float) -> float:
    """Quadratic lambda* of a diagonal-environment product state (series order 2).

    dt² (Jz²/2) (sum_m m rho_m)² (cos 2θ_A + cos 2θ_B - 2); exact for the
    two-term commutator-series truncation up to a small dt⁴ eigenvalue
    remainder.
    """
    w = np.asarray(env_weights, dtype=np.float64)
    msum = float(np.dot(s.m_values(), w))
    return dt * dt * (j.jz**2 / 2.0) * msum**2 * (-2.0 + np.cos(2 * theta_a) + np.cos(2 * theta_b))


def alpha_pair_cne(j: ExchangeCoupling, s: SpinMagnitude, p: float, dt: float) -> float:
    """Displayed lambda* for an alpha-family Bell pair under series order 2.

    -(sqrt(1-p²)/2)(1 + 8 (S Jz dt)²); the truncated-series eigenvalue is
    exactly -(sqrt(1-p²)/2) sqrt(1 + 16 (S Jz dt)²), so the displayed form
    carries its own O(dt⁴) remainder.
    """
    return -np.sqrt(1 - p * p) / 2.0 * (1.0 + 8.0 * (s.s * j.jz * dt) ** 2)


def beta_pair_cne(j: ExchangeCoupling, s: SpinMagnitude, p: float, dt: float) -> float:
    """Displayed lambda* for a beta-family Bell pair under series order 2: constant."""
    return -np.sqrt(1 - p * p) / 2.0


@dataclass(frozen=True)
class CneFormula:
    """A closed-form lambda*(dt) evaluator with its validation recipe."""

    id: str
    mode: str  # "full_numerics" or "truncated_series"
    truncation_order: int
    next_order: int
    build: Callable[[dict], tuple[np.ndarray, DensityOperator | Ket]]
    analytic: Callable[[dict, float], float]


def _make_build_product(state: str):
    def build(params: dict):
        j, s = params["j"], params["s"]
        return spin_star_hamiltonian(j, s), product_basis_initial(state, s)

    return build


def _make_build_mixed(weighting_id: str):
    def build(params: dict):
        j = params["j"]
        s = params.get("s", SpinMagnitude(1))
        w = esp_weighting(weighting_id, params["epsilon"])
        return spin_star_hamiltonian(j, s), mixed_initial(w, s)

    return build


def _build_env_diag(params: dict):
    j, s = params["j"], params["s"]
    spec = ProductSpinSpec(
        theta_a=params["theta_a"], theta_b=params["theta_b"], env_weights=tuple(params["env_weights"])
    )
    return spin_star_hamiltonian(j, s), product_initial(spec, s)


def _build_bell_pair(family: str):
    def build(params: dict):
        j, s = params["j"], params["s"]
        kind = BellKind(family, params.get("sign", +1), params["p"])
        return spin_star_hamiltonian(j, s), bell_initial(kind, s)

    return build


def _make_product_analytic(state: str):
    def analytic(params: dict, dt: float) -> float:
        return dt * dt * product_cne_quadratic(state, params["j"], params["s"])

    return analytic


def _make_mixed_analytic(weighting_id: str):
    def analytic(params: dict, dt: float) -> float:
        exp = weighting_cne_expansion(weighting_id, params["j"], params["epsilon"])
        value = exp.c0
        if exp.c2 is not None:
            value += exp.c2 * dt * dt
        if exp.c4 is not None:
            value += exp.c4 * dt**4
        return value

    return analytic


FORMULAS: dict[str, CneFormula] = {}


def _register(formula: CneFormula) -> None:
    FORMULAS[formula.id] = formula


for _state in ("uuu", "uud", "udd"):
    _register(
        CneFormula(
            id=f"product_{_state}",
            mode="full_numerics",
            truncation_order=3,
            next_order=4,
            build=_make_build_product(_state),
            analytic=_make_product_analytic(_state),
        )
    )
for _i in range(1, 15):
    _wid = f"W{_i}"
    _register(
        CneFormula(
            id=f"mixed_{_wid}",
            mode="full_numerics",
            truncation_order=3,
            next_order=6 if _wid in ("W6", "W10", "W14") else 4,
            build=_make_build_mixed(_wid),
            analytic=_make_mixed_analytic(_wid),
        )
    )
_register(
    CneFormula(
        id="env_diag_pair",
        mode="truncated_series",
        truncation_order=2,
        next_order=4,
        build=_build_env_diag,
        analytic=lambda p, dt: env_diag_pair_cne(p["j"], p["s"], p["env_weights"], p["theta_a"], p["theta_b"], dt),
    )
)
_register(
    CneFormula(
        id="alpha_pair",
        mode="truncated_series",
        truncation_order=2,
        next_order=4,
        build=_build_bell_pair("alpha"),
        analytic=lambda p, dt: alpha_pair_cne(p["j"], p["s"], p["p"], dt),
    )
)
_register(
    CneFormula(
        id="beta_pair",
        mode="truncated_series",
        truncation_order=2,
        next_order=4,
        build=_build_bell_pair("beta"),
        analytic=lambda p, dt: beta_pair_cne(p["j"], p["s"], p["p"], dt),
    )
)


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
    mode: str | None = None,
    dts: Sequence[float] = (1e-3, 1e-2),
    floor: float = 1e-10,
    safety: float = 3.0,
) -> FormulaCheck:
    """Compare a registered closed form against the matching numerics.

    ``mode`` defaults to the formula's native mode ("truncated_series"
    evaluates the commutator-series truncation the form was derived at;
    "full_numerics" evaluates exact evolution).  Each dt passes when the
    deviation stays below max(floor, K dt^q), with q the first neglected
    order and K calibrated from a Richardson triple at the smallest dt.
    """
    formula = FORMULAS[formula_id]
    mode = mode or formula.mode
    h, initial = formula.build(params)
    if mode == "truncated_series":
        cne_fn = truncated_cne_function(h, initial, formula.truncation_order)
    elif mode == "full_numerics":
        cne_fn = exact_cne_function(h, initial)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    q = formula.next_order
    dt_ref = min(dts)
    devs_ref = [abs(cne_fn(dt_ref * f) - formula.analytic(params, dt_ref * f)) for f in (1.0, 2.0, 4.0)]
    k_est = max(d / (dt_ref * f) ** q for d, f in zip(devs_ref, (1.0, 2.0, 4.0)))

    rows = []
    tols = []
    passed = True
    for dt in dts:
        numeric = cne_fn(float(dt))
        closed = formula.analytic(params, float(dt))
        dev = abs(numeric - closed)
        tol = max(floor, safety * k_est * float(dt) ** q)
        rows.append((float(dt), numeric, closed, dev))
        tols.append(tol)
        if dev > tol:
            passed = False
    max_dev = max(r[3] for r in rows)
    return FormulaCheck(formula_id, mode, tuple(rows), max_dev, tuple(tols), passed)


# ---------------------------------------------------------------------------
# trajectory classification


@dataclass(frozen=True)
class ClassifiedTrajectory:
    """p-label with the evidence used to assign it."""

    label: str
    c0: float
    crossed_before: bool
    crossed_after: bool
    diagnostics: dict = field(default_factory=dict)


def classify_trajectory(
    traj: Trajectory,
    esp_sign: int | None = None,
    threshold: float = ENTANGLED_THRESHOLD,
    min_duration: float | None = None,
    boundary_tol: float = BOUNDARY_TOL,
) -> ClassifiedTrajectory:
    """Assign a near-boundary trajectory label from a window around t = 0.

    The window must include negative times.  Entangled at t=0 with
    dwell-qualified deaths on both sides is p6; with none it is p3.
    Separable at t=0 with births on both sides is p4; with none, p5.  On
    the boundary (|lambda*(0)| below ``boundary_tol``) an odd fit leads to
    p0, otherwise the dip side separates p1 from p2.  Mixed evidence
    returns "unclassified" with diagnostics.
    """
    t = traj.times
    if t[0] >= 0 or t[-1] <= 0:
        raise ValueError("classification needs a window covering both sides of t = 0")
    c0 = float(np.interp(0.0, t, traj.cne))
    events = detect_transitions(traj, threshold, min_duration)
    deaths_after = [ev.t_death for ev in events if ev.t_death is not None and ev.t_death > 0]
    births_before = [ev.t_birth for ev in events if ev.t_birth is not None and ev.t_birth < 0]
    deaths_before = [ev.t_death for ev in events if ev.t_death is not None and ev.t_death < 0]
    births_after = [ev.t_birth for ev in events if ev.t_birth is not None and ev.t_birth > 0]
    diag = {
        "c0": c0,
        "events": events,
        "esp_sign": esp_sign,
    }

    if c0 < -boundary_tol:
        # entangled at t=0: does the surrounding positive run end inside the window?
        after = bool(deaths_after)
        before = bool(births_before)
        if after and before:
            return ClassifiedTrajectory("p6", c0, before, after, diag)
        if not after and not before:
            return ClassifiedTrajectory("p3", c0, False, False, diag)
        return ClassifiedTrajectory("unclassified", c0, before, after, diag)

    if c0 > boundary_tol:
        after = bool(births_after)
        before = bool(deaths_before)
        if after and before:
            return ClassifiedTrajectory("p4", c0, before, after, diag)
        if not after and not before:
            return ClassifiedTrajectory("p5", c0, False, False, diag)
        return ClassifiedTrajectory("unclassified", c0, before, after, diag)

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
    diag.update({"c1": float(c1), "c2": float(c2), "fit_residual": resid, "fit_halfwidth": half_width})
    odd_part = abs(c1) * half_width
    even_part = abs(c2) * half_width**2
    if resid > 0.1 * max(odd_part, even_part, threshold):
        return ClassifiedTrajectory("unclassified", c0, False, False, diag)
    if odd_part > 3.0 * max(even_part, threshold):
        return ClassifiedTrajectory("p0", c0, False, False, diag)
    if c2 < 0:
        return ClassifiedTrajectory("p2", c0, False, False, diag)
    return ClassifiedTrajectory("p1", c0, False, False, diag)


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
    dts: Sequence[float] = (1e-3, 1e-2),
    closure_time: float = 2.0,
    unitary_tol: float = 1e-12,
    grid_tol: float = 1e-10,
    closure_tol: float = 1e-8,
    dt2_tol: float = 1e-8,
) -> SymmetryReport:
    """Run the coupling-negation, time-reversal and dt² symmetry checks.

    Coupling negation: exp(-iH(J)(-t)) equals exp(-iH(-J)t) exactly, so
    the negativity grids mirror, and any death under J appears as a birth
    under -J at the mirrored time.  Time reversal: evolving the flipped
    conjugate of rho(t) for another t restores the initial negativity.
    dt² symmetry: N(dt) = N(-dt) near t = 0.
    """
    if isinstance(initial, Ket):
        initial = initial.to_density()
    h = spin_star_hamiltonian(j, s)
    h_neg = spin_star_hamiltonian(-j, s)
    prop = SpectralPropagator(h)
    prop_neg = SpectralPropagator(h_neg)

    u_dev = 0.0
    for t in (0.5, 1.0, closure_time):
        u_dev = max(u_dev, float(np.max(np.abs(prop.unitary(-t) - prop_neg.unitary(t)))))

    spec = EvolutionSpec(t_max=t_max, n_steps=n_steps, emit_negative_times=True)
    traj = sample_trajectory(h, initial, spec)
    traj_neg = sample_trajectory(h_neg, initial, spec)
    grid_dev = float(np.max(np.abs(traj.negativity - traj_neg.negativity[::-1])))

    # time-reversal closure through rho(closure_time)
    rho_t = prop.evolve_matrix(initial.matrix, closure_time)
    reversed_state = time_reversed_state(DensityOperator(rho_t, initial.dims, validate=False), s)
    rho_back = prop.evolve_matrix(reversed_state.matrix, closure_time)
    n0 = negativity(partial_trace_c_matrix(initial.matrix, initial.dims.dim_c))
    n_back = negativity(partial_trace_c_matrix(rho_back, initial.dims.dim_c))
    closure_dev = abs(n0 - n_back)

    dt2_dev = 0.0
    cne_fn = exact_cne_function(h, initial)
    for dt in dts:
        n_plus = max(0.0, -cne_fn(float(dt)))
        n_minus = max(0.0, -cne_fn(-float(dt)))
        dt2_dev = max(dt2_dev, abs(n_plus - n_minus))

    event_dev: float | None = None
    events = detect_transitions(traj)
    events_neg = detect_transitions(traj_neg)
    if events and events_neg:
        deaths = sorted(ev.t_death for ev in events if ev.t_death is not None)
        births_mirror = sorted(-ev.t_birth for ev in events_neg if ev.t_birth is not None)
        if deaths and len(deaths) == len(births_mirror):
            event_dev = float(np.max(np.abs(np.array(deaths) - np.array(births_mirror))))

    passed = (
        u_dev <= unitary_tol
        and grid_dev <= grid_tol
        and closure_dev <= closure_tol
        and dt2_dev <= dt2_tol
        and (event_dev is None or event_dev <= 3.0 * traj.spacing)
    )
    return SymmetryReport(u_dev, grid_dev, closure_dev, dt2_dev, event_dev, passed)


# ---------------------------------------------------------------------------
# configuration builders shared with the command-line layer


def build_product_trajectory(
    state: str, j: ExchangeCoupling, s: SpinMagnitude, spec: EvolutionSpec
) -> Trajectory:
    return sample_trajectory(spin_star_hamiltonian(j, s), product_basis_initial(state, s), spec)


def build_mixed_trajectory(
    weighting_id: str, epsilon: float, j: ExchangeCoupling, s: SpinMagnitude, spec: EvolutionSpec
) -> Trajectory:
    w = esp_weighting(weighting_id, epsilon)
    return sample_trajectory(spin_star_hamiltonian(j, s), mixed_initial(w, s), spec)


def build_pure_trajectory(
    weighting_id: str, epsilon: float, j: ExchangeCoupling, spec: EvolutionSpec
) -> Trajectory:
    w = esp_weighting(weighting_id, epsilon)
    s = w.matched_spin()
    return sample_trajectory(spin_star_hamiltonian(j, s), pure_initial(w, s), spec)
