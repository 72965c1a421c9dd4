"""Command-line front end.

Subcommands
-----------
``espkit evolve --config cfg.json [--set SECTION.KEY=VALUE] --out DIR``
    Sample one trajectory; writes ``trajectory.csv`` (header
    ``t,negativity,concurrence,cne,negative_count``) plus a ``manifest.json``
    with the run's invariant deviations and its ``config``: every setting,
    defaults included, itself a runnable config.  Byte-identical outputs
    for identical configs.

``espkit repro TARGET --out DIR [--tol-rel X] [--gnuplot-script]``
    Regression targets ``table1``/``table2`` (fitted-versus-analytic
    short-time coefficients) and ``fig2``/``fig4``/``fig5`` (trajectory
    curve families with structural checks).  Writes per-row or per-curve
    CSVs and a pass/fail JSON; exits 1 when a check fails.  ``--tol-rel``
    (finite, > 0) defaults to 1e-3 for table1 and 1e-2 otherwise;
    ``--gnuplot-script`` plots a figure target's curves.

``espkit detect --traj trajectory.csv [--threshold X] [--min-duration T]``
    Transition events (kind, times, duration, near-zero trajectory label
    when the window covers t = 0) as JSON on stdout.  A malformed CSV
    exits 2 with one line naming its first bad line.

``espkit fit --config cfg.json [--window LO:HI] [--parity even|full] [--points N]``
    Short-time polynomial fit of the smallest partial-transpose eigenvalue
    over 0 < LO < HI, sampled at 12 <= N <= 10**7 points.

A run config has the sections ``model`` (``j``, ``s_c``), ``state``
(``kind`` plus that kind's keys), ``evolution`` and optionally
``detection``.  :func:`resolve_config` checks keys and JSON types and hands
the values to the package's constructors, which own every default and
range check.

Exit codes: 0 success, 1 validation failure, 2 usage or config error or
an output path that cannot be written (one line on stderr), 3 numerics error.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    FORMULAS,
    MIN_FIT_POINTS,
    WEIGHTING_LABELS,
    WEIGHTING_TABLE_SIGNS,
    build_mixed_trajectory,
    build_product_trajectory,
    build_pure_trajectory,
    check_fit_window,
    classify_trajectory,
    detect_transitions,
    exact_cne_function,
    fit_short_time,
)
from .dynamics import EvolutionSpec, Trajectory, sample_trajectory
from .errors import ConfigError, EspkitError, GuardViolation, NumericalError, ResolutionError, WindowError
from .hilbert import DensityOperator, Ket, SpinMagnitude
from .model import ExchangeCoupling, ProductSpinSpec, spin_star_hamiltonian
from .monotones import ENTANGLED_THRESHOLD
from .states import (
    BellKind,
    EspWeighting,
    bell_initial,
    esp_weighting,
    mixed_initial,
    product_basis_initial,
    product_initial,
    pure_initial,
)

CSV_HEADER = "t,negativity,concurrence,cne,negative_count"
MAX_NEGATIVE_COUNT = 4  # a two-qubit partial transpose has four eigenvalues
_CSV_ROW = np.dtype([(name, np.int64 if name == "negative_count" else np.float64) for name in CSV_HEADER.split(",")])
# whitespace to str.strip() but not inside a float() or int() cell, where numpy's parser would skip them
_SEPARATORS = ("\x1c", "\x1d", "\x1e", "\x1f")

MIXED_J = ExchangeCoupling(-0.5, -0.5, -1.0)
HALF = SpinMagnitude(1)  # S = 1/2
MIXED_SPEC = EvolutionSpec(t_max=1.5, n_steps=1200, emit_negative_times=True)  # classification window
FIG2_COUPLINGS = ((1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 0.5, 1.0), (1.0, -0.5, 1.0))
PURE_RECIPE_SIGNS = {"W7": -1, "W8": -1, "W9": +1, "W10": -1, "W11": -1, "W12": -1, "W13": +1, "W14": -1}


# ---------------------------------------------------------------------------
# run configuration: the keys and JSON types of each section are checked here;
# defaults and value ranges belong to the constructors that consume them, except
# the two size limits below, which bound what a run may allocate

MAX_S_C = 1.5  # largest environment spin: a 16-dimensional Hamiltonian
MAX_N_STEPS = 10**7  # largest sampling grid: 10**7 + 1 times

_NUMBER = (float, int)  # exact JSON types: a boolean is not a number
_OPTIONAL_NUMBER = (float, int, type(None))
_WEIGHTING_KEYS = {"weighting_id": (str,), "epsilon": _NUMBER}
_KEYS = {
    "model": {"j": (list,), "s_c": _NUMBER},
    "product": {"theta_a": _NUMBER, "phi_a": _NUMBER, "theta_b": _NUMBER, "phi_b": _NUMBER, "env": (list, type(None))},
    "bell": {"family": (str,), "sign": (str,), "p": _NUMBER},
    "mixed_weighting": _WEIGHTING_KEYS,
    "pure_weighting": _WEIGHTING_KEYS,
    "evolution": {
        "t_max": _NUMBER,
        "n_steps": (int,),
        "method": (str,),
        "emit_negative_times": (bool,),
    },
    "detection": {"threshold": _NUMBER, "min_duration": _OPTIONAL_NUMBER},
}
_SECTIONS = dict.fromkeys(("model", "state", "evolution", "detection"), (dict,))
_JSON_NAMES = {float: "number", int: "integer", bool: "boolean", str: "string", list: "array of numbers", dict: "object"}
# state kind: (spec constructor, initial-state constructor)
_STATES = {
    "product": (ProductSpinSpec, product_initial),
    "bell": (BellKind, bell_initial),
    "mixed_weighting": (esp_weighting, mixed_initial),
    "pure_weighting": (esp_weighting, pure_initial),
}


def _section(raw, path: str, types: dict, required=()) -> dict:
    """``raw`` as a JSON object holding only keys of ``types``, each of its JSON type.

    ``required`` names keys that no constructor asks for by itself.
    """
    if type(raw) is not dict:
        raise ConfigError(f"{path or 'configuration'}: expected object")
    for key, value in raw.items():
        where = f"{path}.{key}" if path else key
        if key not in types:
            raise ConfigError(f"{json.dumps(where)[1:-1]}: unknown {'key' if path else 'section'}")
        if type(value) not in types[key] or (type(value) is list and any(type(x) not in _NUMBER for x in value)):
            expected = " or ".join(_JSON_NAMES.get(t, "null") for t in types[key])
            raise ConfigError(f"{where}: expected {expected}")
        try:  # every number, array entries included, must convert to a finite float
            finite = all(math.isfinite(x) for x in (value if type(value) is list else [value]) if type(x) in _NUMBER)
        except OverflowError:  # an integer beyond float range
            finite = False
        if not finite:
            raise ConfigError(f"{where}: number out of range")
    for key in required:
        if key not in raw:
            raise ConfigError(f"{path}.{key}: required" if path else f"{key}: required")
    return raw


def _build(path: str, ctor, **fields):
    """``ctor(**fields)``, with a missing argument or a rejected value reported at ``path``."""
    for name, param in inspect.signature(ctor).parameters.items():
        if param.default is param.empty and name not in fields:
            raise ConfigError(f"{path}.{name}: required")
    try:
        return ctor(**fields)
    except (ValueError, TypeError, OverflowError) as exc:  # OverflowError: a JSON integer beyond float range
        raise ConfigError(f"{path}: {exc}") from None


def detection_threshold(value) -> float:
    """A finite threshold >= 0, from a number or the ``--threshold`` text."""
    x = float(value)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"threshold must be finite and >= 0, got {value}")
    return x


def positive_number(value, name: str = "value") -> float:
    """A finite number > 0, from a number or the ``--min-duration``/``--tol-rel`` text."""
    x = float(value)
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")
    return x


def _flag(check):
    """``check`` as an argparse type: its ``ValueError`` message becomes the usage error."""

    def parse(text: str):
        try:
            return check(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def fit_window(text: str) -> tuple[float, float]:
    """The ``--window LO:HI`` text as two numbers that ``analysis.check_fit_window`` accepts."""
    lo, hi = map(float, text.split(":"))
    try:
        check_fit_window(lo, hi)
    except WindowError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return lo, hi


def fit_points(text: str) -> int:
    """The ``--points`` text as an integer from ``analysis.MIN_FIT_POINTS`` to ``MAX_N_STEPS``."""
    n = int(text)
    if n < MIN_FIT_POINTS:
        raise argparse.ArgumentTypeError(f"points must be >= {MIN_FIT_POINTS}, got {text}")
    if n > MAX_N_STEPS:
        raise argparse.ArgumentTypeError(f"points must be <= {MAX_N_STEPS}, got {text}")
    return n


@dataclass(frozen=True)
class RunConfig:
    """A parsed run configuration: coupling, environment spin, initial state, sampling plan, detection."""

    j: ExchangeCoupling
    s: SpinMagnitude
    kind: str
    state: ProductSpinSpec | BellKind | EspWeighting
    initial: Ket | DensityOperator
    evolution: EvolutionSpec
    threshold: float = ENTANGLED_THRESHOLD
    min_duration: float | None = None

    def __post_init__(self):
        detection_threshold(self.threshold)
        if self.min_duration is not None:
            positive_number(self.min_duration, "min_duration")

    def to_json(self) -> dict:
        """Every setting, defaults included, as a config that parses back to this one."""
        st = self.state
        if self.kind == "product":
            state = {"theta_a": st.theta_a, "phi_a": st.phi_a, "theta_b": st.theta_b, "phi_b": st.phi_b}
            state["env"] = st.env_weights
        elif self.kind == "bell":
            state = {"family": st.family, "sign": "+" if st.sign > 0 else "-", "p": st.p}
        else:
            state = {"weighting_id": st.id, "epsilon": st.epsilon}
        return {
            "model": {"j": [self.j.jx, self.j.jy, self.j.jz], "s_c": self.s.s},
            "state": {"kind": self.kind, **state},
            "evolution": asdict(self.evolution),
            "detection": {"threshold": self.threshold, "min_duration": self.min_duration},
        }


def resolve_config(raw) -> RunConfig:
    """Parse a JSON run configuration into the objects it names.

    A key a constructor needs but the section lacks, or a value it rejects,
    becomes a :class:`ConfigError` naming the config path.
    """
    cfg = _section(raw, "", _SECTIONS, ("model", "state", "evolution"))
    model = _section(cfg["model"], "model", _KEYS["model"], ("j", "s_c"))
    j = _build("model.j", ExchangeCoupling.from_sequence, seq=model["j"])
    s = _build("model.s_c", SpinMagnitude.from_s, s=model["s_c"])
    if s.s > MAX_S_C:
        raise ConfigError(f"model.s_c: at most {MAX_S_C}, got {s.s}")

    kind = cfg["state"].get("kind")
    if type(kind) is not str or kind not in _STATES:
        raise ConfigError(f"state.kind: expected one of {', '.join(_STATES)}, got {json.dumps(kind)}")
    state = _section(cfg["state"], "state", {"kind": (str,), **_KEYS[kind]})
    fields = {key: value for key, value in state.items() if key != "kind"}
    if "env" in fields:
        env = fields.pop("env")
        fields["env_weights"] = None if env is None else tuple(env)
    if "sign" in fields:
        if fields["sign"] not in ("+", "-"):
            raise ConfigError(f'state.sign: expected "+" or "-", got {json.dumps(fields["sign"])}')
        fields["sign"] = +1 if fields["sign"] == "+" else -1
    make_spec, make_initial = _STATES[kind]
    spec = _build("state", make_spec, **fields)
    initial = _build("state", lambda: make_initial(spec, s))

    evolution = _build("evolution", EvolutionSpec, **_section(cfg["evolution"], "evolution", _KEYS["evolution"]))
    if evolution.n_steps > MAX_N_STEPS:
        raise ConfigError(f"evolution.n_steps: at most {MAX_N_STEPS}, got {evolution.n_steps}")
    detection = _section(cfg.get("detection", {}), "detection", _KEYS["detection"])
    return _build("detection", RunConfig, j=j, s=s, kind=kind, state=spec, initial=initial, evolution=evolution, **detection)


def apply_overrides(cfg: dict, pairs: list[str]) -> dict:
    """Apply dotted ``section.key=value`` overrides (values parsed as JSON)."""
    out = json.loads(json.dumps(_section(cfg, "", _SECTIONS)))
    for pair in pairs:
        path, eq, text = pair.partition("=")
        keys = path.split(".")
        if not eq or len(keys) != 2:
            raise ConfigError(f"--set {pair!r}: expected section.key=value")
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        out.setdefault(keys[0], {})[keys[1]] = value
    return out


def load_config(path: str, overrides: list[str]) -> RunConfig:
    """Read a JSON run configuration, apply ``--set`` overrides and parse it."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise ConfigError(f"{path}: {exc}") from None
    return resolve_config(apply_overrides(raw, overrides))


# ---------------------------------------------------------------------------
# serialization helpers


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    columns = (traj.times, traj.negativity, traj.concurrence, traj.cne, traj.negative_count)
    rows = map(",".join, zip(*(map(repr, c.tolist()) for c in columns)))
    path.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def read_trajectory_csv(path: Path) -> Trajectory:
    """A trajectory CSV in one numpy pass; the error for a malformed file names its first bad line."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    header, *lines = text.split("\n")
    if header.strip() != CSV_HEADER:
        raise ConfigError(f"{path}:1: expected header {CSV_HEADER!r}, got {header.strip()!r}")
    rows = list(filter(None, map(str.strip, lines)))  # blank and whitespace-only lines are skipped
    try:  # loadtxt warns on an empty list; no rows fails the two-sample rule below instead
        data = np.loadtxt(rows, dtype=_CSV_ROW, delimiter=",", comments=None, ndmin=1) if rows else np.empty(0, _CSV_ROW)
    except ValueError as exc:
        _reject_first_bad_line(path, lines)
        raise ConfigError(f"{path}: {exc}") from None  # not reached: the scan above names the line
    counts = data["negative_count"]
    if np.any((counts < 0) | (counts > MAX_NEGATIVE_COUNT)) or any(sep in text for sep in _SEPARATORS):
        _reject_first_bad_line(path, lines)
    try:
        return Trajectory(data["t"], data["cne"], data["negativity"], data["concurrence"], counts)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _reject_first_bad_line(path: Path, lines: list[str]) -> None:
    """Raise the error for the first data line (file line 2 on) that breaks the row grammar; return if none does.

    A row is five comma-separated cells that Python's ``float`` (four) and
    ``int`` (the count, in 0..MAX_NEGATIVE_COUNT) accept, written with ASCII
    digits and no ``_`` separators, which numpy's parser does not take.
    """
    for lineno, line in enumerate(lines, start=2):
        cells = line.strip().split(",")
        if cells == [""]:
            continue
        if len(cells) != 5:
            raise ConfigError(f"{path}:{lineno}: expected 5 columns, got {len(cells)}")
        try:
            for cell in cells[:4]:
                float(cell)
            count = int(cells[4])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
        if not 0 <= count <= MAX_NEGATIVE_COUNT:
            raise ConfigError(f"{path}:{lineno}: negative_count must be in 0..{MAX_NEGATIVE_COUNT}, got {count}")
        for cell in map(str.strip, cells):
            if "_" in cell or not cell.isascii():
                raise ConfigError(f"{path}:{lineno}: {cell!r}: numbers take ASCII digits and no '_'")


def _json_default(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def write_json(path: Path | str | None, payload: dict) -> None:
    """Sorted, indented JSON to ``path``, or to stdout when no path is given."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    if path:
        Path(path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


# ---------------------------------------------------------------------------
# evolve / detect / fit commands


def cmd_evolve(args) -> int:
    cfg = load_config(args.config, args.set or [])
    traj = sample_trajectory(spin_star_hamiltonian(cfg.j, cfg.s), cfg.initial, cfg.evolution)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(out / "trajectory.csv", traj)
    manifest = {
        "tool": "espkit",
        "version": __version__,
        "config": cfg.to_json(),
        "invariants": {
            "max_trace_deviation": traj.meta["max_trace_deviation"],
            "max_hermiticity_deviation": traj.meta["max_hermiticity_deviation"],
            "max_psd_clip": traj.meta["max_psd_clip"],
        },
        "samples": len(traj),
    }
    write_json(out / "manifest.json", manifest)
    return 0


def cmd_detect(args) -> int:
    traj = read_trajectory_csv(Path(args.traj))
    if traj.times[0] < 0 < traj.times[-1]:
        cls = classify_trajectory(traj, args.threshold, args.min_duration)
        events, label = cls.events, cls.label
    else:
        events, label = detect_transitions(traj, args.threshold, args.min_duration), None
    rows = [asdict(replace(ev, trajectory_label=label)) for ev in events]
    payload = {
        "events": rows,
        "trajectory_label": label,
        "threshold": args.threshold,
        "min_duration": args.min_duration,
    }
    write_json(args.out, payload)
    return 0


def cmd_fit(args) -> int:
    cfg = load_config(args.config, args.set or [])
    fit = fit_short_time(
        exact_cne_function(spin_star_hamiltonian(cfg.j, cfg.s), cfg.initial),
        window=args.window,
        parity=args.parity,
        n_points=args.points,
    )
    payload = {
        "window": list(args.window),
        "parity": fit.parity,
        "powers": list(fit.powers),
        "coefficients": {f"c{p}": c for p, c in zip(fit.powers, fit.coefficients)},
        "residual": fit.residual,
    }
    write_json(args.out, payload)
    return 0


# ---------------------------------------------------------------------------
# repro targets: each is one loop over a case table and returns its report entries
# and the curves it sampled, {CSV name: trajectory}, for cmd_repro to write

# z-basis product state, coupling, environment spin (table1, fig2)
PRODUCT_CASES = tuple(
    (state, ExchangeCoupling(*j), SpinMagnitude(two_s))
    for state in ("uuu", "uud", "udd") for j in FIG2_COUPLINGS for two_s in (1, 2)
)
# Bell weighting at each tabulated sign of the switch (table2, fig4)
MIXED_CASES = tuple((wid, sgn * 1e-2) for wid, signs in WEIGHTING_TABLE_SIGNS.items() for sgn in signs)
# weighting, switch, window, expected label (fig5): the two-component
# weightings are impenetrable at either sign, the three- and four-component
# ones cross the boundary on both sides at their recipe sign
FIG5_CASES = tuple(
    (f"W{i}", sgn * 1e-2, EvolutionSpec(t_max=0.3, n_steps=600, emit_negative_times=True), "p3")
    for i in range(1, 7)
    for sgn in (+1, -1)
) + tuple(
    (wid, sgn * 1e-2, EvolutionSpec(t_max=1.0, n_steps=1200, emit_negative_times=True), "p6" if wid in ("W9", "W13") else "p4")
    for wid, sgn in PURE_RECIPE_SIGNS.items()
)


def _agrees(fit: float, expected: float, tol_rel: float) -> bool:
    """Relative agreement; where the closed form vanishes, an absolute floor of 1e-6."""
    if abs(expected) <= 1e-12:
        return abs(fit) <= 1e-6
    return abs(fit - expected) / abs(expected) <= tol_rel


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return value if isinstance(value, str) else repr(float(value))


def write_rows_csv(path: Path, rows: list[dict]) -> None:
    """Report rows as CSV: header from the keys, None empty, booleans true/false, floats by repr."""
    lines = [",".join(rows[0])] + [",".join(_csv_cell(v) for v in row.values()) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _label_row(curves: dict, target: str, wid: str, eps: float, traj: Trajectory, expected: str) -> dict:
    """A label row: ``traj`` classified, filed in ``curves`` as ``<target>_<W>_<plus|minus>.csv`` by the sign of ``eps``."""
    curves[f"{target}_{wid}_{'plus' if eps > 0 else 'minus'}.csv"] = traj
    label = classify_trajectory(traj).label
    return {"weighting": wid, "epsilon": eps, "label": label, "label_expected": expected, "passed": label == expected}


def repro_table1(out: Path, tol_rel: float) -> tuple[dict, dict]:
    rows = []
    for state, j, s in PRODUCT_CASES:
        formula, params = FORMULAS[f"product_{state}"], {"j": j, "s": s}
        try:
            expected = formula.coefficients(params).c2
        except GuardViolation:
            continue
        fit = fit_short_time(exact_cne_function(*formula.build(params)))
        rows.append(
            {
                "state": state,
                "jx": j.jx,
                "jy": j.jy,
                "jz": j.jz,
                "s_c": s.s,
                "c2_fit": fit.coefficient(2),
                "c2_expected": expected,
                "c0_fit": fit.coefficient(0),
                "passed": _agrees(fit.coefficient(2), expected, tol_rel),
            }
        )
    write_rows_csv(out / "table1_coefficients.csv", rows)
    return {"rows": rows}, {}


def repro_table2(out: Path, tol_rel: float) -> tuple[dict, dict]:
    rows = []
    # the label column is fig4's: the same cases, curves and expected labels
    labels = repro_fig4(out, tol_rel)[0]["rows"]
    for (wid, eps), labelled in zip(MIXED_CASES, labels):
        formula, params = FORMULAS[f"mixed_{wid}"], {"j": MIXED_J, "s": HALF, "epsilon": eps}
        exp = formula.coefficients(params)
        fit = fit_short_time(exact_cne_function(*formula.build(params)), max_power=6)
        c0, c2, c4 = (fit.coefficient(p) for p in (0, 2, 4))
        # the quartic of W6 at positive switch carries an O(1)-in-epsilon
        # remainder beyond the tabulated 1/epsilon leading term
        tol_c4 = 0.1 if (wid == "W6" and eps > 0) else tol_rel
        ok = (
            abs(c0 - exp.c0) <= 1e-6
            and (exp.c2 is None or _agrees(c2, exp.c2, tol_rel))
            and (exp.c4 is None or _agrees(c4, exp.c4, tol_c4))
        )
        rows.append(
            {
                "weighting": wid,
                "epsilon": eps,
                "c0_fit": c0,
                "c0_expected": exp.c0,
                "c2_fit": c2 if exp.c2 is not None else None,
                "c2_expected": exp.c2,
                "c4_fit": c4 if exp.c4 is not None else None,
                "c4_expected": exp.c4,
                **labelled,
                "passed": bool(ok and labelled["passed"]),
            }
        )
    write_rows_csv(out / "table2_coefficients.csv", rows)
    return {"rows": rows}, {}


def _j_tag(j: ExchangeCoupling) -> str:
    return "_".join(("m" if x < 0 else "") + f"{abs(x):g}".replace(".", "p") for x in (j.jx, j.jy, j.jz))


def repro_fig2(out: Path, tol_rel: float) -> tuple[dict, dict]:
    spec = EvolutionSpec(t_max=10.0, n_steps=2000)
    trajectories = {(state, j, s): build_product_trajectory(state, j, s, spec) for state, j, s in PRODUCT_CASES}
    checks = {}

    # reversing the in-plane y exchange swaps the all-up and up-down-down curves
    swap_dev = max(
        float(np.max(np.abs(trajectories["uuu", replace(j, jy=-j.jy), s].negativity - trajectories["udd", j, s].negativity)))
        for state, j, s in PRODUCT_CASES
        if state == "udd" and j.jy > 0
    )
    checks["y_negation_swaps_configurations"] = {"max_deviation": swap_dev, "passed": swap_dev <= 1e-8}

    # isotropic in-plane exchange: the all-up curve grows slower than dt²
    h = spin_star_hamiltonian(ExchangeCoupling(1.0, 1.0, 1.0), HALF)
    c2 = fit_short_time(exact_cne_function(h, product_basis_initial("uuu", HALF))).coefficient(2)
    checks["isotropic_all_up_quadratic_suppressed"] = {"c2": c2, "passed": abs(c2) <= 1e-6}

    # finite-duration transitions around t = 4 for the S=1 curves
    for state, j in (("uuu", ExchangeCoupling(1.0, 0.5, 1.0)), ("udd", ExchangeCoupling(1.0, -0.5, 1.0))):
        events = detect_transitions(trajectories[state, j, SpinMagnitude(2)])
        hit = any(
            ev.kind == "TFD" and ev.t_death < 4.5 and ev.t_birth > 3.0 and 3.0 <= 0.5 * (ev.t_death + ev.t_birth) <= 5.0
            for ev in events
        )
        checks[f"tfd_near_t4_{state}_J{_j_tag(j)}"] = {
            "events": [asdict(ev) for ev in events],
            "passed": hit,
        }

    curves = {f"fig2_{state}_J{_j_tag(j)}_sc{s.two_s}half.csv": traj for (state, j, s), traj in trajectories.items()}
    return {"checks": checks}, curves


def repro_fig4(out: Path, tol_rel: float) -> tuple[dict, dict]:
    curves = {}
    rows = [
        _label_row(curves, "fig4", wid, eps, build_mixed_trajectory(wid, eps, MIXED_J, HALF, MIXED_SPEC), WEIGHTING_LABELS[wid])
        for wid, eps in MIXED_CASES
    ]
    return {"rows": rows}, curves


def repro_fig5(out: Path, tol_rel: float) -> tuple[dict, dict]:
    curves = {}
    rows = [
        _label_row(curves, "fig5", wid, eps, build_pure_trajectory(wid, eps, MIXED_J, spec), expected)
        for wid, eps, spec, expected in FIG5_CASES
    ]

    # positive local negativity minimum of W4 at negative switch, reported
    # after the twelve impenetrable rows
    traj = build_pure_trajectory("W4", -1e-2, MIXED_J, EvolutionSpec(t_max=0.3, n_steps=3000))
    n = traj.negativity
    interior = np.arange(1, len(n) - 1)
    minima = interior[(n[interior] < n[interior - 1]) & (n[interior] <= n[interior + 1])]
    w4_ok = bool(
        minima.size
        and abs(traj.times[minima[0]] - 0.11) <= 0.02
        and n[minima[0]] > ENTANGLED_THRESHOLD
    )
    rows.insert(
        12,
        {
            "weighting": "W4",
            "epsilon": -1e-2,
            "label": f"local_min_t={traj.times[minima[0]]:.4f}" if minima.size else "no_minimum",
            "label_expected": "local_min_t=0.11+-0.02",
            "passed": w4_ok,
        },
    )
    return {"rows": rows}, curves


_REPRO_TARGETS = {
    "table1": repro_table1,
    "table2": repro_table2,
    "fig2": repro_fig2,
    "fig4": repro_fig4,
    "fig5": repro_fig5,
}


def cmd_repro(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tol = args.tol_rel if args.tol_rel is not None else {"table1": 1e-3}.get(args.target, 1e-2)
    report, curves = _REPRO_TARGETS[args.target](out, tol)
    for name, traj in curves.items():
        write_trajectory_csv(out / name, traj)
    results = report["checks"].values() if "checks" in report else report["rows"]
    report.update(target=args.target, passed=all(r["passed"] for r in results), tol_rel=tol)
    write_json(out / f"{args.target}_report.json", report)
    if args.gnuplot_script and curves:  # negativity against t for each curve
        plots = ", \\\n".join(f"  '{name}' using 1:2 with lines title '{name[:-4]}'" for name in sorted(curves))
        header = "set datafile separator ','\nset key outside\nset xlabel 't'\nset ylabel 'negativity'\nplot \\\n"
        (out / f"{args.target}.gp").write_text(header + plots + "\n", encoding="utf-8")
    print(f"{args.target}: {'PASS' if report['passed'] else 'FAIL'}")
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one line on stderr (exit 2)."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``espkit`` parser, built once per process."""
    parser = _Parser(prog="espkit", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"espkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_evolve = sub.add_parser("evolve", help="sample one trajectory from a config file")
    p_evolve.add_argument("--config", required=True)
    p_evolve.add_argument("--set", action="append", metavar="PATH=VALUE", help="dotted config override")
    p_evolve.add_argument("--out", required=True)
    p_evolve.set_defaults(func=cmd_evolve)

    p_repro = sub.add_parser("repro", help="run a regression target")
    p_repro.add_argument("target", choices=sorted(_REPRO_TARGETS))
    p_repro.add_argument("--out", required=True)
    p_repro.add_argument("--tol-rel", type=_flag(positive_number), default=None)
    p_repro.add_argument("--gnuplot-script", action="store_true")
    p_repro.set_defaults(func=cmd_repro)

    p_detect = sub.add_parser("detect", help="detect transition events in a trajectory CSV")
    p_detect.add_argument("--traj", required=True)
    p_detect.add_argument("--threshold", type=_flag(detection_threshold), default=ENTANGLED_THRESHOLD)
    p_detect.add_argument("--min-duration", type=_flag(positive_number), default=None)
    p_detect.add_argument("--out", default=None)
    p_detect.set_defaults(func=cmd_detect)

    p_fit = sub.add_parser("fit", help="short-time polynomial fit of the smallest PT eigenvalue")
    p_fit.add_argument("--config", required=True)
    p_fit.add_argument("--set", action="append", metavar="PATH=VALUE")
    p_fit.add_argument("--window", type=fit_window, default="1e-3:1e-2", metavar="LO:HI")
    p_fit.add_argument("--parity", choices=("even", "full"), default="even")
    p_fit.add_argument("--points", type=fit_points, default=17)
    p_fit.add_argument("--out", default=None)
    p_fit.set_defaults(func=cmd_fit)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerics error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # inputs are read through ConfigError, so this is an output that cannot be written
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except ResolutionError as exc:  # only detect's --min-duration can ask for a dwell finer than 3 samples
        print(f"usage error: --min-duration: {exc}", file=sys.stderr)
        return 2
    except EspkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
