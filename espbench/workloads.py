"""The three workloads, their checks and their metrics.

Each workload calls the unmodified package in process, mostly through
``espkit.cli.main``, times those calls, and checks every output against
:mod:`reference` or against a property the method must have.  Checks run
after the timed call, outside any timing, and with tracing paused.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import corpus
import reference as ref
from tracing import Tracer, wrapper_cost_s
from espkit import analysis, cli, densemat, dynamics, hilbert, model, monotones, states

MIXED_J = corpus.MIXED_J
SETUP_REPEATS = 7

# absolute agreement with the reference
LAM_TOL = 1e-11  # lambda* and negativity: both sides are accurate to ~1e-15
CONC_TOL = 5e-8  # the package's square-root concurrence loses up to ~1e-8 near rank deficiency
ROW_TOL = 1e-12  # negativity = max(0, -lambda*) and C <= 1
INTEGRATOR_TOL = 1e-12  # RK4 at step 1e-4 against exact propagation: ~3e-15 seen
EVENT_SPACINGS = 2.0  # event times within this many grid spacings of the reference root
SUBSAMPLE = 8  # reference rows checked per written CSV


@dataclass
class Op:
    """Timings of one operation of a round, repeated once per round."""

    seconds: list
    items: int  # samples, fits or rows it delivers, depending on the workload
    cli: bool  # a call of espkit.cli.main, counted in the latency percentiles


@dataclass
class Run:
    seed: int
    seconds: float
    smoke: bool
    work: Path
    tracer: object = None
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    ops: dict = field(default_factory=dict)

    def record(self, key: str, seconds: float, items: int = 0, cli: bool = True) -> None:
        op = self.ops.setdefault(key, Op([], items, cli))
        op.seconds.append(seconds)

    def best(self, key: str) -> float:
        """Fastest repetition of an operation within this run.

        Load outside the container moves the host's speed by tens of
        percent within seconds; the fastest repetition estimates what the
        code costs rather than what the neighbours were doing.
        """
        return min(self.ops[key].seconds)

    def common_metrics(self) -> dict:
        """The end-to-end metrics every workload reports under the same names."""
        best = {key: self.best(key) for key in self.ops}
        items = sum(op.items for op in self.ops.values())
        item_s = sum(best[k] for k, op in self.ops.items() if op.items)
        return {"round_s": (sum(best.values()), "s"), "items_per_s": (items / item_s, "1/s")}

    def call_latency(self) -> dict:
        """Percentiles over the round's ``cli.main`` calls of each call's fastest repetition."""
        ms = np.array([self.best(k) for k, op in self.ops.items() if op.cli]) * 1e3
        return {"call_ms_p50": (float(np.percentile(ms, 50)), "ms"), "call_ms_p90": (float(np.percentile(ms, 90)), "ms")}

    def check(self, ok, message: str) -> bool:
        if not ok:
            self.errors.append(message)
        return bool(ok)

    @contextlib.contextmanager
    def untraced(self):
        if self.tracer is None:
            yield
            return
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = True


def call_cli(argv):
    """Run ``espkit.cli.main`` in process: (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        rc = cli.main([str(a) for a in argv])
        dt = time.perf_counter() - t0
    return rc, dt, out.getvalue(), err.getvalue()


def setup_seconds(src: Path, argv, cwd: Path) -> float:
    """Median wall time of a fresh interpreter importing espkit and making one call."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import espkit.cli; "
        "sys.exit(espkit.cli.main(sys.argv[2:]))"
    )
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code, str(src), *[str(a) for a in argv]],
            cwd=cwd, env=os.environ.copy(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=120, check=False,
        )
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up call {argv} exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# curve descriptions shared by the checks


@dataclass(frozen=True)
class Curve:
    """What a trajectory CSV was computed from, enough to rebuild it in the reference."""

    kind: str  # product, mixed or pure
    ident: str  # uuu/uud/udd or W1..W14
    eps: float | None
    two_s: int
    j: tuple

    def evolution(self) -> ref.Evolution:
        if self.kind == "product":
            b0 = ref.product_factor(self.ident, self.two_s)
        elif self.kind == "mixed":
            b0 = ref.mixed_factor(self.ident, self.eps, self.two_s)
        else:
            b0, _ = ref.pure_factor(self.ident, self.eps)
        return ref.Evolution(ref.hamiltonian(self.j, self.two_s), b0)


def _untag(tag: str) -> tuple:
    return tuple(-float(x[1:].replace("p", ".")) if x.startswith("m") else float(x.replace("p", "."))
                 for x in tag.split("_"))


def curve_from_name(name: str) -> Curve:
    """Invert the repro targets' CSV naming (fig2_<state>_J<tag>_sc<2S>half, fig4/5_<W>_<sign>)."""
    parts = name[:-4].split("_")
    if parts[0] == "fig2":
        jtag = name[name.index("_J") + 2:name.index("_sc")]
        two_s = int(parts[-1][2:-4])
        return Curve("product", parts[1], None, two_s, _untag(jtag))
    eps = 0.01 if parts[2] == "plus" else -0.01
    if parts[0] == "fig4":
        return Curve("mixed", parts[1], eps, 1, MIXED_J)
    _, two_s = ref.pure_factor(parts[1], eps)
    return Curve("pure", parts[1], eps, two_s, MIXED_J)


def read_csv(run: Run, path: Path):
    """Columns (t, negativity, concurrence, lambda*, count) of a written trajectory CSV."""
    with path.open(encoding="utf-8") as fh:
        header = fh.readline().strip()
    run.check(header == corpus.CSV_HEADER, f"{path.name}: header {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1], data[:, 2], data[:, 3], data[:, 4]


def check_rows(run: Run, name: str, t, neg, conc, lam, count) -> None:
    """Properties every physical row must have."""
    run.check(np.all(np.diff(t) > 0), f"{name}: times not strictly increasing")
    run.check(np.max(np.abs(neg - np.maximum(0.0, -lam))) <= ROW_TOL, f"{name}: negativity != max(0, -lambda*)")
    run.check(np.all((count == 0) | (count == 1)), f"{name}: negative_count outside {{0, 1}}")
    run.check(np.all(conc >= 0.0) and np.all(conc <= 1.0 + ROW_TOL), f"{name}: concurrence outside [0, 1]")
    run.check(np.all(2.0 * neg <= conc + CONC_TOL), f"{name}: 2N > C")


def check_reference(run: Run, name: str, evo: ref.Evolution, rng, t, neg, conc, lam) -> None:
    """A seeded subsample of rows against the reference."""
    idx = rng.choice(len(t), size=min(SUBSAMPLE, len(t)), replace=False)
    r_lam, r_neg, r_conc, _ = evo.monotones(t[idx])
    run.check(np.max(np.abs(lam[idx] - r_lam)) <= LAM_TOL, f"{name}: lambda* off the reference")
    run.check(np.max(np.abs(neg[idx] - r_neg)) <= LAM_TOL, f"{name}: negativity off the reference")
    run.check(np.max(np.abs(conc[idx] - r_conc)) <= CONC_TOL, f"{name}: concurrence off the reference")


def check_event_time(run: Run, name: str, evo: ref.Evolution, t, t_event: float) -> None:
    """``t_event`` lies within two spacings of a root of lambda*(t) + 1e-9."""
    spacing = float(np.max(np.diff(t)))
    near = np.abs(t - t_event) <= 4.0 * spacing
    grid = t[near]
    g = evo.monotones(grid)[0] + ref.THRESHOLD
    roots = [evo.root(grid[k], grid[k + 1]) for k in range(len(grid) - 1) if g[k] * g[k + 1] <= 0]
    ok = bool(roots) and min(abs(r - t_event) for r in roots) <= EVENT_SPACINGS * spacing
    run.check(ok, f"{name}: event at {t_event} is not within {EVENT_SPACINGS} spacings of a reference root {roots}")


def check_curve_csv(run: Run, path: Path, curve: Curve, rng) -> int:
    t, neg, conc, lam, count = read_csv(run, path)
    check_rows(run, path.name, t, neg, conc, lam, count)
    check_reference(run, path.name, curve.evolution(), rng, t, neg, conc, lam)
    return len(t)


# ---------------------------------------------------------------------------
# curves


def evolve_configs(rng, smoke: bool):
    """Exact, series and integrator configs of one seeded dimension-16 purified weighting."""
    wid = ("W11", "W12", "W13", "W14")[int(rng.integers(4))]
    eps = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.005, 0.02))
    base = {
        "model": {"j": list(MIXED_J), "s_c": 1.5},
        "state": {"kind": "pure_weighting", "weighting_id": wid, "epsilon": eps},
    }
    n = 40 if smoke else 200
    grids = {
        "exact": {"t_max": 0.5, "n_steps": n, "emit_negative_times": True},
        "series": {"t_max": 0.05, "n_steps": n // 2, "emit_negative_times": True},
        "integrator": {"t_max": 0.5, "n_steps": n, "emit_negative_times": True},
    }
    curve = Curve("pure", wid, eps, 3, MIXED_J)
    return curve, {m: dict(base, evolution=dict(g, method=m)) for m, g in grids.items()}


# the timed repro targets; smoke mode drops table2 and replaces each figure
# target by one evolve of a curve from that figure
REPRO_TARGETS = ("fig2", "fig4", "fig5", "table2")
SMOKE_FIGURES = {
    "fig2": (Curve("product", "uuu", None, 2, (1.0, 0.5, 1.0)), {"t_max": 6.0, "n_steps": 600}),
    "fig4": (Curve("mixed", "W9", 0.01, 1, MIXED_J), {"t_max": 1.5, "n_steps": 300, "emit_negative_times": True}),
    "fig5": (Curve("pure", "W13", 0.01, 3, MIXED_J), {"t_max": 1.0, "n_steps": 300, "emit_negative_times": True}),
}


def _curve_config(curve: Curve, evolution: dict) -> dict:
    if curve.kind == "product":
        theta_a, theta_b = ref.PRODUCT_ANGLES[curve.ident]
        state = {"kind": "product", "theta_a": theta_a, "theta_b": theta_b}
    else:
        state = {"kind": f"{curve.kind}_weighting", "weighting_id": curve.ident, "epsilon": curve.eps}
    return {"model": {"j": list(curve.j), "s_c": curve.two_s / 2}, "state": state, "evolution": evolution}


def _detect_events(run: Run, csv: Path):
    rc, _, out, err = call_cli(["detect", "--traj", csv])
    run.check(rc == 0, f"detect {csv.name}: exit {rc} {err.strip()}")
    return json.loads(out) if rc == 0 else {"events": [], "trajectory_label": None}


def _check_events(run: Run, name: str, evo, t, events) -> None:
    for ev in events:
        for key in ("t_death", "t_birth"):
            if ev[key] is not None:
                check_event_time(run, f"{name} {ev['kind']} {key}", evo, t, ev[key])


def _check_repro(run: Run, target: str, out: Path, stdout: str, rng) -> int:
    """Report, rows, reference values and event times of one repro target; returns rows written."""
    report = json.loads((out / f"{target}_report.json").read_text(encoding="utf-8"))
    run.check(report["passed"] is True, f"repro {target}: report not passed")
    run.check(stdout.strip() == f"{target}: PASS", f"repro {target}: printed {stdout.strip()!r}")
    rows = 0
    for csv in sorted(out.glob(f"{target}_*.csv")):
        if csv.name.endswith("_coefficients.csv"):
            continue
        curve = curve_from_name(csv.name)
        rows += check_curve_csv(run, csv, curve, rng)
        if target == "fig5" and curve.ident in corpus.PURE_RECIPE_SIGNS:
            t = read_csv(run, csv)[0]
            _check_events(run, csv.name, curve.evolution(), t, _detect_events(run, csv)["events"])
    if target == "fig2":
        for key, check in report["checks"].items():
            if key.startswith("tfd_near_t4_"):
                state = key.split("_")[3]
                csv = next(out.glob(f"fig2_{state}_J{key.split('_J')[1]}_sc2half.csv"))
                t = read_csv(run, csv)[0]
                tfd = [ev for ev in check["events"] if ev["kind"] == "TFD"]
                run.check(bool(tfd), f"{key}: no TFD event reported")
                _check_events(run, key, curve_from_name(csv.name).evolution(), t, tfd)
    return rows


def _check_evolves(run: Run, curve: Curve, outs: dict, rng) -> dict:
    """Rows, reference values and method agreement of the three evolves; returns rows per method."""
    data = {m: read_csv(run, o / "trajectory.csv") for m, o in outs.items()}
    exact, integ, series = data["exact"], data["integrator"], data["series"]
    check_rows(run, "evolve exact", *exact)
    check_reference(run, "evolve exact", curve.evolution(), rng, exact[0], exact[1], exact[2], exact[3])
    check_rows(run, "evolve integrator", *integ)
    run.check(np.array_equal(integ[0], exact[0]), "evolve integrator: grid differs from exact")
    for k, what in ((1, "negativity"), (2, "concurrence"), (3, "lambda*")):
        run.check(np.max(np.abs(integ[k] - exact[k])) <= INTEGRATOR_TOL, f"evolve integrator: {what} off exact")
    run.check(np.all(np.diff(series[0]) > 0), "evolve series: times not increasing")
    evo = curve.evolution()
    for i in rng.choice(len(series[0]), size=SUBSAMPLE, replace=False):
        r_lam, r_neg = ref.series_monotones(evo.h, evo.b0, float(series[0][i]), 3)
        run.check(abs(series[3][i] - r_lam) <= LAM_TOL and abs(series[1][i] - r_neg) <= LAM_TOL,
                  f"evolve series: row {i} off the reference truncation")
    return {m: len(d[0]) for m, d in data.items()}


def _check_smoke_figure(run: Run, target: str, out: Path, rng) -> int:
    curve = SMOKE_FIGURES[target][0]
    csv = out / "trajectory.csv"
    rows = check_curve_csv(run, csv, curve, rng)
    detected = _detect_events(run, csv)
    if target == "fig2":
        run.check(any(e["kind"] == "TFD" for e in detected["events"]), "smoke fig2: no TFD")
    _check_events(run, f"smoke {target}", curve.evolution(), read_csv(run, csv)[0], detected["events"])
    return rows


def curves(run: Run):
    rng = np.random.default_rng(run.seed)
    curve, configs = evolve_configs(rng, run.smoke)
    cfg_paths = {}
    for method, cfg in configs.items():
        cfg_paths[method] = run.work / f"evolve_{method}.json"
        cfg_paths[method].write_text(json.dumps(cfg), encoding="utf-8")
    targets = {}
    for target in ("fig2", "fig4", "fig5") if run.smoke else REPRO_TARGETS:
        if run.smoke:
            c, ev = SMOKE_FIGURES[target]
            cfg = run.work / f"smoke_{target}.json"
            cfg.write_text(json.dumps(_curve_config(c, ev)), encoding="utf-8")
            targets[target] = ["evolve", "--config", cfg]
        else:
            targets[target] = ["repro", target]

    params = formula_params(rng)
    start = time.perf_counter()
    round_no = 0
    while True:
        round_dir = run.work / f"round{round_no}"
        for target, argv in targets.items():
            out = round_dir / target
            rc, dt, stdout, err = call_cli([*argv, "--out", out])
            run.attempted += 1
            if rc != 0:
                run.failed += 1
                run.check(False, f"{argv[0]} {target}: exit {rc} {err.strip()[-200:]}")
                continue
            with run.untraced():
                if run.smoke:
                    rows = _check_smoke_figure(run, target, out, rng)
                else:
                    rows = _check_repro(run, target, out, stdout, rng)
            # table2 classifies its curves but writes none: it delivers no samples
            run.record(target, dt, rows if target != "table2" else 0)
        outs = {}
        for method, cfg in cfg_paths.items():
            out = round_dir / f"evolve_{method}"
            rc, dt, _, err = call_cli(["evolve", "--config", cfg, "--out", out])
            run.attempted += 1
            if rc != 0:
                run.failed += 1
                run.check(False, f"evolve {method}: exit {rc} {err.strip()[-200:]}")
                continue
            outs[method] = (out, dt)
        if len(outs) == len(cfg_paths):
            with run.untraced():
                rows = _check_evolves(run, curve, {m: o for m, (o, _) in outs.items()}, rng)
            for method, (_, dt) in outs.items():
                run.record(f"evolve {method}", dt, rows[method])
        validate_formulas(run, params)
        shutil.rmtree(round_dir, ignore_errors=True)
        round_no += 1
        if time.perf_counter() - start >= run.seconds:
            break

    named = {f"{t}_s": (run.best(t), "s") for t in targets if t in run.ops}
    evolves = [f"evolve {m}" for m in cfg_paths if f"evolve {m}" in run.ops]
    named["evolve_s"] = (sum(run.best(k) for k in evolves), "s")
    named["samples_per_s"] = run.common_metrics()["items_per_s"]
    return named, ["evolve", "--config", cfg_paths["exact"], "--out", run.work / "setup_out"]


# ---------------------------------------------------------------------------
# short_time


def fit_configs(rng):
    """The 92-config sweep: 36 product, 28 mixed and 28 purified weightings."""
    out = []
    for state in ("uuu", "uud", "udd"):
        for _ in range(4):
            jx, jy, jz = (float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.5)) for _ in range(3))
            for two_s in (1, 2, 3):
                out.append(Curve("product", state, None, two_s, (jx, jy, jz)))
    for i in range(1, 15):
        for sign in (1.0, -1.0):
            eps = sign * float(rng.uniform(0.005, 0.02))
            out.append(Curve("mixed", f"W{i}", eps, 1, MIXED_J))
            _, two_s = ref.pure_factor(f"W{i}", eps)
            out.append(Curve("pure", f"W{i}", eps, two_s, MIXED_J))
    return out


def formula_params(rng):
    """Seeded parameters for every registered closed form, inside each form's guards."""
    out = {}
    for fid in analysis.FORMULAS:
        jx, jy, jz = (float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.5)) for _ in range(3))
        if fid == "product_uuu":
            jy = abs(jy) if jx > 0 else -abs(jy)
        if fid == "product_udd":
            jy = -abs(jy) if jx > 0 else abs(jy)
        two_s = int(rng.integers(1, 4))
        params = {"j": (jx, jy, jz), "two_s": two_s}
        if fid.startswith("mixed_"):
            wid = fid[len("mixed_"):]
            signs = sorted({s for (w, s) in corpus.MIXED_LABELS if w == wid})
            params.update(j=MIXED_J, two_s=1, epsilon=float(rng.choice(signs) * rng.uniform(0.005, 0.02)))
        elif fid == "env_diag_pair":
            params.update(env_weights=tuple(float(x) for x in rng.dirichlet(np.ones(two_s + 1))),
                          theta_a=float(rng.uniform(0, np.pi)), theta_b=float(rng.uniform(0, np.pi)))
        elif fid in ("alpha_pair", "beta_pair"):
            params.update(p=float(rng.uniform(0.0, 0.9)), sign=int(rng.choice([-1, 1])))
        out[fid] = params
    return out


def _package_params(params: dict) -> dict:
    pkg = dict(params)
    pkg["j"] = model.ExchangeCoupling(*params["j"])
    pkg["s"] = hilbert.SpinMagnitude(pkg.pop("two_s"))
    return pkg


def _formula_reference(fid: str, params: dict):
    """(evolution, truncation order or None) the closed form is validated against."""
    formula = analysis.FORMULAS[fid]
    j, two_s = params["j"], params["two_s"]
    if fid.startswith("product_"):
        b0 = ref.product_factor(fid[len("product_"):], two_s)
    elif fid.startswith("mixed_"):
        b0 = ref.mixed_factor(fid[len("mixed_"):], params["epsilon"], two_s)
    elif fid == "env_diag_pair":
        b0 = ref.product_factor((params["theta_a"], params["theta_b"]), two_s, params["env_weights"])
    else:
        b0 = ref.bell_pair_factor(fid.split("_")[0], params["sign"], params["p"], two_s)
    order = formula.truncation_order if formula.mode == "truncated_series" else None
    return ref.Evolution(ref.hamiltonian(j, two_s), b0), order


def _fit_config(curve: Curve) -> dict:
    return _curve_config(curve, {"t_max": 1.0, "n_steps": 10})


def short_time(run: Run):
    rng = np.random.default_rng(run.seed)
    configs = fit_configs(rng)
    if run.smoke:
        configs = configs[::8]
    params = formula_params(rng)
    cfg_paths = []
    for k, curve in enumerate(configs):
        path = run.work / f"fit_{k}.json"
        path.write_text(json.dumps(_fit_config(curve)), encoding="utf-8")
        cfg_paths.append(path)

    start = time.perf_counter()
    round_no = 0
    while True:
        out = run.work / f"round{round_no}"
        rc, dt, stdout, err = call_cli(["repro", "table1", "--out", out])
        run.attempted += 1
        if rc != 0:
            run.failed += 1
            run.check(False, f"repro table1: exit {rc} {err.strip()[-200:]}")
        else:
            run.record("table1", dt)
            with run.untraced():
                report = json.loads((out / "table1_report.json").read_text(encoding="utf-8"))
                run.check(report["passed"] is True, "repro table1: report not passed")
                run.check(stdout.strip() == "table1: PASS", f"repro table1: printed {stdout.strip()!r}")
        for k, (curve, cfg) in enumerate(zip(configs, cfg_paths)):
            result = out / f"fit_{k}.json"
            rc, dt, _, err = call_cli(["fit", "--config", cfg, "--out", result])
            run.attempted += 1
            if rc != 0:
                run.failed += 1
                run.check(False, f"fit {curve}: exit {rc} {err.strip()[-200:]}")
                continue
            run.record(f"fit {k}", dt, items=1)
            with run.untraced():
                _check_fit(run, curve, json.loads(result.read_text(encoding="utf-8")), rng)
        validate_formulas(run, params)
        shutil.rmtree(out, ignore_errors=True)
        round_no += 1
        if time.perf_counter() - start >= run.seconds:
            break

    fits = [k for k in run.ops if k.startswith("fit ")]
    named = {
        "table1_s": (run.best("table1"), "s"),
        "fits_per_s": (len(fits) / sum(run.best(k) for k in fits), "1/s"),
    }
    return named, ["fit", "--config", cfg_paths[0], "--out", run.work / "setup_fit.json"]


def _check_fit(run: Run, curve: Curve, payload: dict, rng) -> None:
    """The fitted polynomial stays within its residual of the reference at sampled window points."""
    lo, hi = payload["window"]
    dts = np.linspace(lo, hi, 17)
    pick = dts[rng.choice(len(dts), size=4, replace=False)]
    poly = sum(c * pick ** int(name[1:]) for name, c in payload["coefficients"].items())
    r_lam = curve.evolution().monotones(pick)[0]
    worst = float(np.max(np.abs(poly - r_lam)))
    run.check(worst <= payload["residual"] + LAM_TOL, f"fit {curve}: {worst:.3e} from the reference")


def validate_formulas(run: Run, params: dict) -> None:
    """``analysis.validate_formula`` once on every registered closed form, each checked."""
    for fid, p in params.items():
        t0 = time.perf_counter()
        check = analysis.validate_formula(fid, _package_params(p))
        run.record(f"validate {fid}", time.perf_counter() - t0, cli=False)
        run.attempted += 1
        with run.untraced():
            _check_formula(run, fid, p, check)


def _check_formula(run: Run, fid: str, params: dict, check) -> None:
    run.check(check.passed, f"validate_formula {fid}: not passed ({check.max_deviation:.3e})")
    evo, order = _formula_reference(fid, params)
    for dt, numeric, _, _ in check.rows:
        expected = evo.lam_star(dt) if order is None else ref.series_monotones(evo.h, evo.b0, dt, order)[0]
        run.check(abs(numeric - expected) <= LAM_TOL, f"validate_formula {fid}: numeric lambda*({dt}) off the reference")


# ---------------------------------------------------------------------------
# detect


def detect(run: Run):
    cases = corpus.build(run.work / "corpus", run.seed)
    if run.smoke:
        cases = [c for c in cases if c.malformed] + [c for c in cases if not c.malformed][::4]
    start = time.perf_counter()
    while True:
        for case in cases:
            out, err = io.StringIO(), io.StringIO()
            exc = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    rc = cli.main(["detect", "--traj", str(case.path)])
                except Exception as error:  # from a shell, an escaped exception is a traceback and exit 1
                    rc, exc = 1, error
                dt = time.perf_counter() - t0
            run.attempted += 1
            with run.untraced():
                if case.malformed:
                    message = err.getvalue().strip()
                    if exc is not None or rc != 2 or "\n" in message or not message:
                        run.failed += 1
                elif rc != 0:
                    run.failed += 1
                    run.check(False, f"detect {case.name}: exit {rc}: {err.getvalue().strip()[-200:]}")
                else:
                    _check_detect(run, case, json.loads(out.getvalue()))
            run.record(case.name, dt, case.rows if rc == 0 else 0)
        if time.perf_counter() - start >= run.seconds:
            break
    latency = run.call_latency()
    named = {
        "detect_ms_p50": latency["call_ms_p50"],
        "detect_ms_p90": latency["call_ms_p90"],
        "detect_rows_per_s": run.common_metrics()["items_per_s"],
    }
    first = next(c for c in cases if not c.malformed)
    return named, ["detect", "--traj", first.path]


def _check_detect(run: Run, case, payload: dict) -> None:
    events = payload["events"]
    kinds = [e["kind"] for e in events]
    expected = [k for k, _, _ in case.events]
    if not run.check(kinds == expected, f"detect {case.name}: events {kinds}, reference {expected}"):
        return
    for got, (_, t_death, t_birth) in zip(events, case.events):
        for key, want in (("t_death", t_death), ("t_birth", t_birth)):
            ok = (got[key] is None) == (want is None) and (
                want is None or abs(got[key] - want) <= EVENT_SPACINGS * case.spacing)
            run.check(ok, f"detect {case.name}: {key} {got[key]} vs reference {want}")
    run.check(payload["trajectory_label"] == case.label,
              f"detect {case.name}: label {payload['trajectory_label']}, paper {case.label}")


WORKLOADS = {"curves": curves, "short_time": short_time, "detect": detect}


# ---------------------------------------------------------------------------
# traced run: spans around public functions, per-sample replay, accuracy probe


def install_tracer(run: Run):
    tracer = Tracer()
    rnd = random.Random(run.seed)
    captured = {"trajectory": [], "point": []}
    seen = {"trajectory": 0, "point": 0}

    def reservoir(kind, item, size=48):
        seen[kind] += 1
        if len(captured[kind]) < size:
            captured[kind].append(item)
        else:
            k = rnd.randrange(seen[kind])
            if k < size:
                captured[kind][k] = item

    tracer.patch_function(
        "dynamics.sample_trajectory", dynamics.sample_trajectory,
        units=lambda a, r: len(r), observe=lambda a: reservoir("trajectory", (a[0], a[1], a[2])),
    )
    tracer.patch_method(
        "dynamics.exact_point", dynamics.SpectralPropagator, "evolve_matrix",
        observe=lambda a: reservoir("point", (a[0].h, a[1], a[2])),
    )
    tracer.patch_function("dynamics.evolve_series", dynamics.evolve_series)
    tracer.patch_function("densemat.hermitian_eig", densemat.hermitian_eig)
    tracer.patch_function("model.spin_star_hamiltonian", model.spin_star_hamiltonian)
    for name in ("product_initial", "product_basis_initial", "mixed_initial", "pure_initial", "bell_ket"):
        tracer.patch_function("states.initial", getattr(states, name))
    tracer.patch_function("analysis.fit_short_time", analysis.fit_short_time)
    tracer.patch_function("analysis.validate_formula", analysis.validate_formula)
    tracer.patch_function("analysis.detect_transitions", analysis.detect_transitions, units=lambda a, r: len(r))
    tracer.patch_function("analysis.classify_trajectory", analysis.classify_trajectory)
    tracer.patch_function("cli.read_trajectory_csv", cli.read_trajectory_csv, units=lambda a, r: len(r))
    tracer.patch_function("cli.write_trajectory_csv", cli.write_trajectory_csv, units=lambda a, r: len(a[1]))
    run.tracer = tracer
    return tracer, captured


def replay(captured, seed: int) -> dict:
    """Time the public per-sample chain on the captured (H, rho0, t) triples.

    ``sample_trajectory`` fuses propagation, partial trace, partial
    transpose and the monotones into one loop, so their costs are measured
    by replaying a seeded subsample of its inputs through the public
    functions one at a time.
    """
    rng = np.random.default_rng(seed)
    triples = []
    for h, initial, spec in captured["trajectory"]:
        rho0 = initial.to_density() if isinstance(initial, hilbert.Ket) else initial
        grid = spec.time_grid()
        for t in grid[rng.choice(len(grid), size=min(4, len(grid)), replace=False)]:
            triples.append((h, rho0.matrix, float(t)))
    triples.extend(captured["point"])
    chain = {
        "hilbert.partial_transpose_b": hilbert.partial_transpose_b,
        "monotones.cne": monotones.cne,
        "monotones.negativity": monotones.negativity,
        "monotones.concurrence": monotones.concurrence,
    }
    spent = dict.fromkeys(["hilbert.partial_trace_c", *chain], 0.0)
    propagators = {}
    for h, rho0, t in triples:
        if id(h) not in propagators:
            propagators[id(h)] = (h, dynamics.SpectralPropagator(h))  # h is kept so its id stays unique
        rho_t = propagators[id(h)][1].evolve_matrix(rho0, t)
        state = hilbert.DensityOperator(rho_t, hilbert.SystemDims(h.shape[0] // 4), validate=False)
        t0 = time.perf_counter()
        red = hilbert.partial_trace_c(state)
        spent["hilbert.partial_trace_c"] += time.perf_counter() - t0
        for name, fn in chain.items():
            t0 = time.perf_counter()
            fn(red)
            spent[name] += time.perf_counter() - t0
    n = len(triples)
    out = {f"{name}.us_per_call": (total / n * 1e6 if n else 0.0, "us") for name, total in spent.items()}
    out["replay.samples"] = (n, "count")
    return out


def accuracy() -> dict:
    """Worst deviation of the package's public per-sample chain from the 50-digit oracle."""
    import oracle

    worst = {"cne": 0.0, "negativity": 0.0, "concurrence": 0.0}
    for kind, ident, eps, two_s, j, t in oracle.SAMPLES:
        s = hilbert.SpinMagnitude(two_s)
        if kind == "product":
            rho0 = states.product_basis_initial(ident, s)
        elif kind == "mixed":
            rho0 = states.mixed_initial(states.esp_weighting(ident, eps), s)
        else:
            rho0 = states.pure_initial(states.esp_weighting(ident, eps), s).to_density()
        h = model.spin_star_hamiltonian(model.ExchangeCoupling(*j), s)
        rho_t = dynamics.SpectralPropagator(h).evolve_matrix(rho0.matrix, t)
        red = hilbert.partial_trace_c(hilbert.DensityOperator(rho_t, rho0.dims, validate=False))
        lam, neg, conc = oracle.monotones(kind, ident, eps, two_s, j, t)
        worst["cne"] = max(worst["cne"], abs(monotones.cne(red)[0] - lam))
        worst["negativity"] = max(worst["negativity"], abs(monotones.negativity(red) - neg))
        worst["concurrence"] = max(worst["concurrence"], abs(monotones.concurrence(red) - conc))
    return {f"accuracy.{k}.max_abs_err": (v, "abs") for k, v in worst.items()}


def layer_metrics(tracer, captured, seed: int) -> dict:
    st = tracer.stats

    def per(key, scale, by="calls", spent="total_s"):
        s = st[key]
        n = s.calls if by == "calls" else s.units
        return getattr(s, spent) / n * scale if n else 0.0

    out = {
        "dynamics.sample_trajectory.calls": (st["dynamics.sample_trajectory"].calls, "count"),
        "dynamics.sample_trajectory.samples": (st["dynamics.sample_trajectory"].units, "count"),
        "dynamics.sample_trajectory.self_s": (st["dynamics.sample_trajectory"].self_s, "s"),
        "dynamics.sample_trajectory.us_per_sample": (per("dynamics.sample_trajectory", 1e6, "units"), "us"),
        "densemat.hermitian_eig.calls": (st["densemat.hermitian_eig"].calls, "count"),
        "densemat.hermitian_eig.ms_per_call": (per("densemat.hermitian_eig", 1e3), "ms"),
        "densemat.hermitian_eig.self_s": (st["densemat.hermitian_eig"].self_s, "s"),
        "dynamics.exact_point.calls": (st["dynamics.exact_point"].calls, "count"),
        "dynamics.exact_point.us_per_call": (per("dynamics.exact_point", 1e6), "us"),
        "dynamics.evolve_series.calls": (st["dynamics.evolve_series"].calls, "count"),
        "dynamics.evolve_series.us_per_call": (per("dynamics.evolve_series", 1e6), "us"),
        "analysis.fit_short_time.calls": (st["analysis.fit_short_time"].calls, "count"),
        "analysis.fit_short_time.self_ms_per_call": (per("analysis.fit_short_time", 1e3, spent="self_s"), "ms"),
        "analysis.validate_formula.calls": (st["analysis.validate_formula"].calls, "count"),
        "analysis.validate_formula.ms_per_call": (per("analysis.validate_formula", 1e3), "ms"),
        "analysis.detect_transitions.calls": (st["analysis.detect_transitions"].calls, "count"),
        "analysis.detect_transitions.us_per_call": (per("analysis.detect_transitions", 1e6), "us"),
        "analysis.classify_trajectory.calls": (st["analysis.classify_trajectory"].calls, "count"),
        "analysis.classify_trajectory.us_per_call": (per("analysis.classify_trajectory", 1e6), "us"),
        "analysis.events": (st["analysis.detect_transitions"].units, "count"),
        "cli.read_trajectory_csv.us_per_row": (per("cli.read_trajectory_csv", 1e6, "units"), "us"),
        "cli.write_trajectory_csv.us_per_row": (per("cli.write_trajectory_csv", 1e6, "units"), "us"),
        "model.spin_star_hamiltonian.calls": (st["model.spin_star_hamiltonian"].calls, "count"),
        "model.spin_star_hamiltonian.ms_total": (st["model.spin_star_hamiltonian"].total_s * 1e3, "ms"),
        "states.initial.calls": (st["states.initial"].calls, "count"),
        "states.initial.ms_total": (st["states.initial"].total_s * 1e3, "ms"),
    }
    overhead = tracer.wrapped_calls * wrapper_cost_s()
    tracer.restore()
    out.update(replay(captured, seed))
    out.update(accuracy())
    out["trace.overhead_s"] = (overhead, "s")
    return out
