import argparse
import functools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import espkit

from espkit import analysis, cli, dynamics
from espkit.analysis import WEIGHTING_LABELS
from espkit.cli import (
    CSV_HEADER,
    FIG5_CASES,
    HALF,
    MAX_N_STEPS,
    MAX_S_C,
    MIXED_CASES,
    MIXED_DWELL,
    MIXED_J,
    MIXED_SPEC,
    _label_row,
    apply_overrides,
    fit_points,
    main,
    read_trajectory_csv,
    resolve_config,
    write_trajectory_csv,
)
from espkit.dynamics import EvolutionSpec, SpectralPropagator, Trajectory, sample_trajectory
from espkit.errors import ConfigError
from espkit.model import spin_star_hamiltonian
from espkit.states import BellKind, esp_weighting, mixed_initial

from conftest import reference_read_trajectory_csv, trajectory_columns

BASE_CONFIG = {
    "model": {"j": [-0.5, -0.5, -1.0], "s_c": 0.5},
    "state": {"kind": "mixed_weighting", "weighting_id": "W9", "epsilon": 0.01},
    "evolution": {"t_max": 0.5, "n_steps": 100, "emit_negative_times": True},
}


def write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _run_cli(argv):
    """``python -m espkit.cli ARGV`` in a fresh process, with this checkout's package on the path."""
    src = str(Path(espkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "espkit.cli", *argv], capture_output=True, text=True, env=env, timeout=120, check=False
    )


def test_evolve_writes_csv_and_manifest(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
    csv_text = (out / "trajectory.csv").read_text().splitlines()
    assert csv_text[0] == CSV_HEADER
    assert len(csv_text) == 102
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["version"]
    assert manifest["config"]["detection"]["threshold"] == 1e-9  # default recorded
    assert manifest["config"]["evolution"]["method"] == "exact"
    assert manifest["invariants"]["max_trace_deviation"] <= 1e-12


def test_manifest_reports_threshold_headroom(tmp_path):
    """min_t |lambda*(t) + threshold| and its time: on fig2's udd curve at J = (1, 1, 1), S = 1/2,
    lambda* comes within 1.309e-11 of -1e-9 at t = 2.1, next to a near-tangency at t = 2.095."""
    cfg = {
        "model": {"j": [1, 1, 1], "s_c": 0.5},
        "state": {"kind": "product", "theta_a": np.pi, "theta_b": np.pi},
        "evolution": {"t_max": 10, "n_steps": 2000},
    }
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    invariants = json.loads((out / "manifest.json").read_text())["invariants"]
    assert abs(invariants["threshold_headroom"] - 1.309e-11) <= 1e-14
    assert invariants["threshold_headroom_t"] == 2.1
    traj = read_trajectory_csv(out / "trajectory.csv")
    assert invariants["threshold_headroom"] == float(np.min(np.abs(traj.cne + 1e-9)))


def test_cli_imports_only_numpy_beyond_the_standard_library():
    """A fresh ``import espkit.cli`` adds no third-party top-level module but numpy: the startup
    time of every command rests on it (scipy, which is installed, costs far more to import)."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import espkit.cli\n"
        "added = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(' '.join(sorted(added - set(sys.stdlib_module_names))))\n"
    )
    src = str(Path(espkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120, check=True)
    assert set(done.stdout.split()) == {"espkit", "numpy"}


@pytest.mark.parametrize("method", ["exact", "integrator"])
def test_factor_methods_report_no_clip_and_norm_drift(tmp_path, method):
    """exact and integrator sample rho_AB = L L†: nothing to clip, and the trace drift is B's norm drift."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["evolution"]["method"] = method
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    invariants = json.loads((out / "manifest.json").read_text())["invariants"]
    assert invariants["max_psd_clip"] == 0.0
    assert 0.0 <= invariants["max_trace_deviation"] <= 1e-13


def test_evolve_deterministic(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["evolve", "--config", str(cfg), "--out", str(out1)])
    main(["evolve", "--config", str(cfg), "--out", str(out2)])
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()
    assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


def test_evolve_set_override(tmp_path):
    cfg = write_config(tmp_path, BASE_CONFIG)
    out = tmp_path / "run"
    assert main(["evolve", "--config", str(cfg), "--set", "evolution.n_steps=10", "--out", str(out)]) == 0
    assert len((out / "trajectory.csv").read_text().splitlines()) == 12


def test_config_unknown_key_rejected(tmp_path):
    bad = dict(BASE_CONFIG)
    bad["extra"] = {}
    cfg = write_config(tmp_path, bad)
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    with pytest.raises(ConfigError, match="extra"):
        resolve_config(bad)


def test_config_field_errors_name_path():
    with pytest.raises(ConfigError, match="model.j"):
        resolve_config({"model": {"j": [1, 2], "s_c": 0.5}, "state": {"kind": "product"}, "evolution": {"t_max": 1.0, "n_steps": 5}})
    with pytest.raises(ConfigError, match="state.weighting_id"):
        resolve_config({"model": {"j": [1, 2, 3], "s_c": 0.5}, "state": {"kind": "mixed_weighting"}, "evolution": {"t_max": 1.0, "n_steps": 5}})
    with pytest.raises(ConfigError, match="evolution.t_max"):
        resolve_config({"model": {"j": [1, 2, 3], "s_c": 0.5}, "state": {"kind": "product"}, "evolution": {"n_steps": 5}})


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"model": ', "config.json"),
        ('{"model": {"j": [1, 1, 1], "s_c": 0.5}, "state": {"kind": "product"}, "evolution": {"t_max": NaN, "n_steps": 4}}', "evolution"),
        ('{"model": {"j": [1, 1, 1], "s_c": 0.5}, "state": {"kind": "product"}, "evolution": {"t_max": Infinity, "n_steps": 4}}', "evolution"),
        ('{"model": {"j": [NaN, 1, 1], "s_c": 0.5}, "state": {"kind": "product"}, "evolution": {"t_max": 1, "n_steps": 4}}', "model.j"),
        ('{"model": {"j": [1, 1, 1], "s_c": true}, "state": {"kind": "product"}, "evolution": {"t_max": 1, "n_steps": 4}}', "model.s_c"),
        ('{"model": {"j": [1, 1, 1], "s_c": 0.5}, "state": {"kind": "product", "p": 0.1}, "evolution": {"t_max": 1, "n_steps": 4}}', "state.p"),
        ('{"model": {"j": [1, 1, 1], "s_c": 0.5}, "state": {"kind": "bell", "family": "alpha", "sign": "x"}, "evolution": {"t_max": 1, "n_steps": 4}}', "state.sign"),
    ],
)
def test_malformed_config_exits_2_with_one_line(tmp_path, capsys, text, field):
    path = tmp_path / "config.json"
    path.write_text(text, encoding="utf-8")
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and field in err


@pytest.mark.parametrize(
    "evolution, field",
    [
        ({"n_steps": -3}, "n_steps"),
        ({"n_steps": True}, "evolution.n_steps"),
        ({"method": "rk"}, "method"),
        ({"series_order": 7}, "series_order"),
        ({"t_max": 0.0}, "time window"),
    ],
)
def test_evolution_errors_name_field(evolution, field):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["evolution"].update(evolution)
    with pytest.raises(ConfigError, match=field):
        resolve_config(cfg)


@pytest.mark.parametrize(
    "section, key, limit, over",
    [("evolution", "n_steps", MAX_N_STEPS, 10**29), ("model", "s_c", MAX_S_C, 2.0)],
)
def test_size_limits_exit_2_naming_the_limit(tmp_path, capsys, section, key, limit, over):
    """The caps are checked while parsing: at the limit the config resolves, beyond it nothing is allocated."""
    at_limit = json.loads(json.dumps(BASE_CONFIG))
    at_limit["model"]["s_c"] = 1.5  # W9 mixture fits any environment spin
    at_limit[section][key] = limit
    assert resolve_config(at_limit).to_json()[section][key] == limit
    bad = json.loads(json.dumps(at_limit))
    bad[section][key] = over
    assert main(["evolve", "--config", str(write_config(tmp_path, bad)), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{section}.{key}: at most {limit}" in err


@pytest.mark.parametrize("section, key", [("model", "j"), ("model", "s_c"), ("evolution", "t_max"), ("detection", "threshold")])
def test_integer_beyond_float_range_exits_2(tmp_path, capsys, section, key):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg.setdefault(section, {})[key] = [1, 1, 10**400] if key == "j" else 10**400
    assert main(["evolve", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and section in err


@pytest.mark.parametrize("path", ["model.j", "model.s_c", "state.theta_a", "evolution.t_max", "detection.threshold"])
@pytest.mark.parametrize("number", ["1" + "0" * 400, "-1" + "0" * 400, "1e400", "NaN"])
def test_number_out_of_float_range_names_its_path(tmp_path, capsys, path, number):
    """A 401-digit integer, a literal that overflows to infinity, or NaN is rejected while parsing, in one line."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["state"] = {"kind": "product", "theta_a": 0.5}
    section, key = path.split(".")
    cfg.setdefault(section, {})[key] = [1, "NUMBER", 1] if key == "j" else "NUMBER"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg).replace('"NUMBER"', number), encoding="utf-8")
    assert main(["evolve", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"config error: {path}: number out of range\n"


def test_evolution_t_min_is_an_unknown_key(tmp_path, capsys):
    """The window starts at 0, or at -t_max with emit_negative_times: there is no second way to set it."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["evolution"]["t_min"] = -0.2
    assert main(["evolve", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "config error: evolution.t_min: unknown key\n"


def test_detection_min_duration_is_an_unknown_key(tmp_path, capsys):
    """No command reads a dwell from the config: ``detect --min-duration`` sets it, and the key is refused."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["detection"] = {"threshold": 1e-9, "min_duration": 0.05}
    assert main(["evolve", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "config error: detection.min_duration: unknown key\n"


def test_config_and_csv_paths_that_are_directories(tmp_path, capsys):
    assert main(["evolve", "--config", str(tmp_path), "--out", str(tmp_path / "x")]) == 2
    assert main(["detect", "--traj", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(str(tmp_path) in line for line in err)


def test_set_on_a_non_object_section(tmp_path, capsys):
    cfg = write_config(tmp_path, dict(BASE_CONFIG, model=3))
    assert main(["evolve", "--config", str(cfg), "--set", "model.j=3", "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("config error: model:")


def test_output_section_is_unknown(tmp_path):
    with pytest.raises(ConfigError, match="output: unknown section"):
        resolve_config(dict(BASE_CONFIG, output={"formats": ["csv"]}))


@pytest.mark.parametrize(
    "argv,rule",
    [
        (["detect", "--traj", "t.csv", "--threshold", "nan"], "must be finite and >= 0"),
        (["detect", "--traj", "t.csv", "--threshold", "-1"], "must be finite and >= 0"),
        (["detect", "--traj", "t.csv", "--min-duration", "-1"], "must be finite and > 0"),
        (["detect", "--traj", "t.csv", "--min-duration", "0"], "must be finite and > 0"),
        (["fit", "--config", "c.json", "--window", "abc"], "invalid fit_window value"),
        (["fit", "--config", "c.json", "--window", "1e-3"], "invalid fit_window value"),
        (["repro", "table1", "--out", "r", "--tol-rel", "nan"], "must be finite and > 0"),
        (["repro", "table1", "--out", "r", "--tol-rel", "-1"], "must be finite and > 0"),
        (["fit", "--config", "c.json", "--window", "1e-2:1e-3"], "window must satisfy 0 < LO < HI < inf"),
        (["fit", "--config", "c.json", "--points", "3"], "points must be >= 12"),
        (["fit", "--config", "c.json", "--points", str(10**12)], f"points must be <= 10000000, got {10**12}"),
        (["fit", "--config", "c.json", "--window", "1e-200:2e-200"], "so that HI**4 is a normal float, got 2e-200"),
        (["fit", "--config", "c.json", "--window", "1e200:1e201"], "so that HI**4 is a normal float, got 1e+201"),
    ],
    ids=[f"argv{i}" for i in range(13)],
)
def test_bad_flags_are_usage_errors(argv, rule, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert rule in err


def test_fit_points_capped_at_grid_limit():
    assert fit_points(str(MAX_N_STEPS)) == MAX_N_STEPS
    with pytest.raises(argparse.ArgumentTypeError, match=f"points must be <= {MAX_N_STEPS}, got {MAX_N_STEPS + 1}"):
        fit_points(str(MAX_N_STEPS + 1))


@pytest.mark.parametrize("rows", [["0.0,0.0,0.0,0.0,0"], ["0.0,0.0,0.0,0.0,0", "nan,0.0,0.0,0.0,0", "0.2,0,0,0,0"], []])
def test_short_or_non_finite_csv_exits_2(tmp_path, capsys, rows):
    path = tmp_path / "t.csv"
    path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
    assert main(["detect", "--traj", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(path) in err


def test_trajectory_of_unequal_columns_exits_2(tmp_path, capsys, monkeypatch):
    """The reader maps Trajectory's ValueError for columns of unequal length to exit 2 with one line."""
    path = tmp_path / "t.csv"
    path.write_text("\n".join([CSV_HEADER, "0.0,0.0,0.0,0.0,0", "0.5,0.0,0.0,0.0,0", "1.0,0.0,0.0,0.0,0"]) + "\n")
    real = cli.Trajectory
    monkeypatch.setattr(cli, "Trajectory", lambda t, lam, neg, conc, count: real(t, lam[:-1], neg, conc, count[:-1]))
    assert main(["detect", "--traj", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(path) in err and "[3, 2, 3, 3, 2]" in err


def test_pure_weighting_spin_mismatch_is_config_error(tmp_path):
    bad = json.loads(json.dumps(BASE_CONFIG))
    bad["state"]["kind"] = "pure_weighting"  # W9 needs s_c = 1, not 1/2
    cfg = write_config(tmp_path, bad)
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


def test_build_initial_bell_state():
    cfg = resolve_config(
        {
            "model": {"j": [-0.5, -0.5, -1.0], "s_c": 1.0},
            "state": {"kind": "bell", "family": "beta", "sign": "-", "p": 0.0},
            "evolution": {"t_max": 1.0, "n_steps": 10},
        }
    )
    dm = cfg.initial.to_density()
    assert dm.dims.dim_c == 3
    assert cfg.state == BellKind("beta", -1, 0.0)


def test_detect_constant_zero(tmp_path, capsys):
    path = tmp_path / "zero.csv"
    lines = [CSV_HEADER] + [f"{t},0.0,0.0,0.0,0" for t in np.linspace(0, 1, 40)]
    path.write_text("\n".join(lines) + "\n")
    assert main(["detect", "--traj", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["events"] == []


def test_detect_synthetic_triangle(tmp_path, capsys):
    times = np.linspace(0, 1, 201)
    neg = np.clip(np.abs(times - 0.5) - 0.2, 0.0, None)
    lines = [CSV_HEADER] + [f"{t},{n},{n},{-n},{int(n > 1e-9)}" for t, n in zip(times, neg)]
    path = tmp_path / "dip.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(["detect", "--traj", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["events"]) == 1
    ev = payload["events"][0]
    assert ev["kind"] == "TFD"
    assert abs(ev["duration"] - 0.4) <= 0.01


@pytest.mark.parametrize("t_min, label, kinds", [(-1.0, "p6", ["ESB", "ESD"]), (0.0, None, ["ESD"])])
def test_detect_runs_detection_once(tmp_path, capsys, monkeypatch, t_min, label, kinds):
    """A window covering t = 0 reports the classification's own events: one detection per file."""
    times = np.linspace(t_min, 1, 401)
    neg = np.clip(0.5 - np.abs(times), 0.0, None)
    path = tmp_path / "traj.csv"
    path.write_text("\n".join([CSV_HEADER] + [f"{t},{n},{n},{-n},{int(n > 1e-9)}" for t, n in zip(times, neg)]) + "\n")
    calls = []
    detect = analysis.detect_transitions

    def counted(*args, **kwargs):
        calls.append(args)
        return detect(*args, **kwargs)

    monkeypatch.setattr(analysis, "detect_transitions", counted)
    monkeypatch.setattr(cli, "detect_transitions", counted)
    assert main(["detect", "--traj", str(path)]) == 0
    assert len(calls) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["trajectory_label"] == label
    assert [ev["kind"] for ev in payload["events"]] == kinds
    assert all(ev["trajectory_label"] == label for ev in payload["events"])


def test_detect_malformed_csv(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(CSV_HEADER + "\n0.0,0.0,0.0,0.0,0\nnot,a,row\n")
    assert main(["detect", "--traj", str(path)]) == 2
    assert ":3:" in capsys.readouterr().err


@pytest.mark.parametrize("s_c, cause", [(0.5, "no correct bit"), (1.0, "non-finite eigenvalues")])
def test_evolve_with_a_coupling_of_1e308_prints_no_warning(tmp_path, s_c, cause):
    """The run exits 3 with one line: at S = 1/2 the phases w t carry no correct bit, at S = 1 the
    spectrum of H overflows."""
    cfg = write_config(tmp_path, dict(BASE_CONFIG, model={"j": [1e308, 1, 1], "s_c": s_c}))
    proc = _run_cli(["evolve", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert proc.returncode == 3
    assert proc.stderr.count("\n") == 1 and cause in proc.stderr, proc.stderr
    assert "Warning" not in proc.stderr


def test_series_that_overflows_exits_3_saying_so(tmp_path, capsys):
    """A series truncation at a coupling of 1e308 overflowed; it was not found to be non-positive."""
    cfg = dict(BASE_CONFIG, model={"j": [1e308, 1, 1], "s_c": 0.5})
    cfg["evolution"] = dict(BASE_CONFIG["evolution"], method="series")
    assert main(["evolve", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numerics error: ")
    assert "overflow" in err and "not positive" not in err


def test_detect_non_increasing_times_exits_2_without_traceback(tmp_path):
    path = tmp_path / "back.csv"
    path.write_text(CSV_HEADER + "\n0.0,0.0,0.0,0.1,0\n0.1,0.0,0.0,0.1,0\n0.1,0.0,0.0,0.1,0\n")
    proc = _run_cli(["detect", "--traj", str(path)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and str(path) in lines[0] and "increasing" in lines[0]


@pytest.mark.parametrize("command", ["evolve", "repro", "detect", "fit"])
def test_unwritable_out_exits_2_with_one_line(tmp_path, capsys, command):
    """An --out that is an existing file, or lies under a missing directory, is one stderr line and exit 2."""
    cfg = str(write_config(tmp_path, BASE_CONFIG))
    traj = tmp_path / "zero.csv"
    traj.write_text("\n".join([CSV_HEADER] + [f"{t},0.0,0.0,0.0,0" for t in np.linspace(0, 1, 40)]) + "\n")
    taken = tmp_path / "taken"
    taken.write_text("")
    missing = tmp_path / "missing" / "out.json"
    argv, bad = {
        "evolve": (["evolve", "--config", cfg, "--out", str(taken)], taken),
        "repro": (["repro", "table1", "--out", str(taken)], taken),
        "detect": (["detect", "--traj", str(traj), "--out", str(missing)], missing),
        "fit": (["fit", "--config", cfg, "--out", str(missing)], missing),
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("output error: ") and str(bad) in err


@pytest.mark.parametrize("t_max, n_steps, negative", [(10.0, 2000, False), (1.5, 1200, True), (1.0, 800, True)])
def test_detect_min_duration_of_three_spacings_passes_and_finer_exits_2(tmp_path, capsys, t_max, n_steps, negative):
    """On the fig2, fig4 and README grids, 3 nominal spacings is accepted; 0.99 of it is one usage-error line."""
    t = EvolutionSpec(t_max=t_max, n_steps=n_steps, emit_negative_times=negative).time_grid()
    zeros = np.zeros_like(t)
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, Trajectory(t, zeros, zeros, zeros, zeros.astype(np.int64)))
    nominal = float(3.0 * (t[-1] - t[0]) / n_steps)
    assert main(["detect", "--traj", str(path), "--min-duration", repr(nominal), "--out", str(tmp_path / "d.json")]) == 0
    assert main(["detect", "--traj", str(path), "--min-duration", repr(0.99 * nominal)]) == 2
    err = capsys.readouterr().err
    spacing = float(np.max(np.diff(t)))
    assert err.count("\n") == 1 and err.startswith("usage error: --min-duration") and repr(spacing) in err


def test_consecutive_main_calls_match_separate_processes(tmp_path):
    """The parser is built once per process; no call of main leaves state that changes a later one."""
    cfg = str(write_config(tmp_path, BASE_CONFIG))

    def argvs(root):
        csv = str(root / "run" / "trajectory.csv")
        return [
            ["evolve", "--config", cfg, "--set", "evolution.n_steps=40", "--out", str(root / "run")],
            ["detect", "--traj", csv, "--min-duration", "0.2", "--out", str(root / "detect_long.json")],
            ["fit", "--config", cfg, "--parity", "full", "--out", str(root / "fit.json")],
            ["detect", "--traj", csv, "--out", str(root / "detect.json")],
            ["evolve", "--config", cfg, "--out", str(root / "run2")],
        ]

    assert cli.build_parser() is cli.build_parser()
    for argv in argvs(tmp_path / "one"):
        assert main(argv) == 0
    for argv in argvs(tmp_path / "many"):
        assert _run_cli(argv).returncode == 0
    files = sorted(p.relative_to(tmp_path / "one") for p in (tmp_path / "one").rglob("*") if p.is_file())
    assert len(files) == 7
    for rel in files:
        assert (tmp_path / "one" / rel).read_bytes() == (tmp_path / "many" / rel).read_bytes(), rel


def test_series_window_that_is_not_positive_exits_3_naming_the_truncation(tmp_path, capsys):
    """uud at S = 1: the three-term series carries 6.3e-8 of negative mass at t = 0.02, but none at 0.002."""
    cfg = {
        "model": {"j": [1.0, 0.5, 1.0], "s_c": 1.0},
        "state": {"kind": "product", "theta_a": 0.0, "phi_a": 0.0, "theta_b": np.pi, "phi_b": 0.0, "env": None},
        "evolution": {"t_max": 0.02, "n_steps": 40, "method": "series"},
    }
    path = str(write_config(tmp_path, cfg))
    assert main(["evolve", "--config", path, "--out", str(tmp_path / "wide")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numerics error: ")
    assert "three-term series truncation is not positive" in err and '"exact"' in err and "smaller t_max" in err
    assert main(["evolve", "--config", path, "--set", "evolution.t_max=0.002", "--out", str(tmp_path / "narrow")]) == 0
    assert json.loads((tmp_path / "narrow" / "manifest.json").read_text())["invariants"]["max_psd_clip"] <= 1e-9


@pytest.mark.parametrize("t_max", [1e14, 1e16, 1e20])
def test_integrator_beyond_its_drift_budget_exits_3_in_one_line(tmp_path, capsys, t_max):
    """RK4 over 1e18 to 1e24 steps of 1e-4 drifts off unit trace, or overflows: one numerics line, no rows."""
    cfg = write_config(tmp_path, BASE_CONFIG)
    sets = ["--set", "evolution.method=integrator", "--set", f"evolution.t_max={t_max}", "--set", "evolution.n_steps=4"]
    assert main(["evolve", "--config", str(cfg), *sets, "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numerics error: ")
    assert not (tmp_path / "x" / "trajectory.csv").exists()


def test_csv_roundtrip(tmp_path):
    initial = mixed_initial(esp_weighting("W1", 0.01), HALF)
    traj = sample_trajectory(spin_star_hamiltonian(MIXED_J, HALF), initial, EvolutionSpec(t_max=0.3, n_steps=60))
    path = tmp_path / "t.csv"
    write_trajectory_csv(path, traj)
    back = read_trajectory_csv(path)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.negativity, traj.negativity)
    assert np.array_equal(back.cne, traj.cne)


def test_fit_command(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_CONFIG)
    assert main(["fit", "--config", str(cfg), "--window", "1e-3:1e-2", "--parity", "even"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["coefficients"]["c0"] - (-0.005)) <= 1e-6
    assert payload["residual"] <= 1e-10


def test_apply_overrides_parses_json_values():
    cfg = apply_overrides({"model": {"j": [1, 1, 1], "s_c": 0.5}}, ["model.j=[1,0.5,1]", "model.s_c=1.0"])
    assert cfg["model"]["j"] == [1, 0.5, 1]
    assert cfg["model"]["s_c"] == 1.0


def test_repro_failure_sets_exit_code(tmp_path):
    assert main(["repro", "table1", "--out", str(tmp_path / "r"), "--tol-rel", "1e-18"]) == 1
    report = json.loads((tmp_path / "r" / "table1_report.json").read_text())
    assert report["passed"] is False


def test_table2_gates_c0_at_1e_12(tmp_path, monkeypatch):
    """A tabulated c0 off by 1e-9 fails its rows; the fits reproduce the correct c0 to about 1e-15."""
    formula = analysis.FORMULAS["mixed_W9"]

    def off(params):
        exp = formula.coefficients(params)
        return exp._replace(c0=exp.c0 + 1e-9)

    monkeypatch.setitem(analysis.FORMULAS, "mixed_W9", replace(formula, coefficients=off))
    propagator = functools.cache(lambda j, s: SpectralPropagator(spin_star_hamiltonian(j, s)))
    rows = cli.repro_table2(tmp_path, 1e-2, propagator)[0]["rows"]
    assert {(row["weighting"], row["passed"]) for row in rows} == {(wid, wid != "W9") for wid, _ in MIXED_CASES}
    assert max(abs(row["c0_fit"] - row["c0_expected"]) for row in rows if row["weighting"] != "W9") <= 1e-14


@pytest.mark.parametrize(
    "evolution, code",
    [
        ({"t_max": 1e-321, "n_steps": 1000}, 2),  # the spacing underflows: sample times repeat
        ({"t_max": 1.7e308, "n_steps": 1000, "emit_negative_times": True}, 2),  # the window overflows: a NaN grid
        ({"t_max": 1e306, "n_steps": 10, "method": "integrator"}, 3),  # RK4 step counts beyond float range
        ({"t_max": 1e306, "n_steps": 10, "method": "series"}, 3),  # the series stack overflows
    ],
)
def test_unsampleable_window_exits_with_one_line(tmp_path, capsys, evolution, code):
    """A grid that is not finite and strictly increasing is a config error; a propagation that overflows
    is a numerics error.  Either is one line on stderr, with no traceback and no warning."""
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["evolution"] = evolution
    assert main(["evolve", "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "x")]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("config error: evolution: time window" if code == 2 else "numerics error:")


FIG4_CURVES = {f"W{i}_plus" for i in (1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13)} | {"W6_minus", "W10_minus", "W14_minus"}
FIG5_CURVES = {f"W{i}_{sign}" for i in range(1, 7) for sign in ("plus", "minus")} | {
    "W7_minus", "W8_minus", "W9_plus", "W10_minus", "W11_minus", "W12_minus", "W13_plus", "W14_minus",
}


@pytest.fixture(scope="module")
def figure_outputs(tmp_path_factory):
    """``repro fig2``, ``fig4`` and ``fig5 --gnuplot-script``, run once: target -> output directory."""
    root = tmp_path_factory.mktemp("figures")
    for target in ("fig2", "fig4", "fig5"):
        assert main(["repro", target, "--out", str(root / target), "--gnuplot-script"]) == 0
    return {target: root / target for target in ("fig2", "fig4", "fig5")}


@pytest.mark.parametrize("target, curves", [("fig4", FIG4_CURVES), ("fig5", FIG5_CURVES)], ids=["fig4", "fig5"])
def test_repro_gnuplot_script(figure_outputs, target, curves):
    """The curve CSVs a figure target writes, which the benchmark parses by name, and its label rows."""
    out = figure_outputs[target]
    names = {p.name for p in out.glob("*.csv")}
    assert len(curves) == {"fig4": 15, "fig5": 20}[target]
    assert names == {f"{target}_{c}.csv" for c in curves}
    script = (out / f"{target}.gp").read_text()
    assert script.startswith("set datafile separator") and all(f"'{name}' using 1:2" in script for name in names)
    rows = json.loads((out / f"{target}_report.json").read_text())["rows"]
    if target == "fig4":
        table = [(w, eps, WEIGHTING_LABELS[w]) for w, eps in MIXED_CASES]
    else:
        table = [(w, eps, label) for w, eps, _, _, label in FIG5_CASES]
        assert rows.pop(12)["label_expected"] == "local_min_t=0.11+-0.02"
    assert [(r["weighting"], r["epsilon"], r["label_expected"]) for r in rows] == table
    assert all(r["passed"] for r in rows)


def test_figure_reports_give_each_curve_its_threshold_headroom(figure_outputs):
    """A top-level ``headroom`` map: each curve CSV -> min_t |lambda* + 1e-9| and its first time, as
    evolve's manifest gives them.  The closest is fig2's udd curve at J = (1, 1, 1), S = 1/2: 1.309e-11 at t = 2.1."""
    for target, out in figure_outputs.items():
        report = json.loads((out / f"{target}_report.json").read_text())
        assert "headroom" not in report.get("checks", {})
        assert set(report["headroom"]) == {p.name for p in out.glob("*.csv")}
        for name, entry in report["headroom"].items():
            traj = read_trajectory_csv(out / name)
            headroom = np.abs(traj.cne + 1e-9)
            assert entry["threshold_headroom"] == float(np.min(headroom)), name
            assert entry["threshold_headroom_t"] == float(traj.times[np.argmin(headroom)]), name
    fig2 = json.loads((figure_outputs["fig2"] / "fig2_report.json").read_text())["headroom"]
    closest = fig2["fig2_udd_J1_1_1_sc1half.csv"]
    assert abs(closest["threshold_headroom"] - 1.309e-11) <= 1e-3 * 1.309e-11
    assert closest["threshold_headroom_t"] == 2.1
    assert min(entry["threshold_headroom"] for entry in fig2.values()) == closest["threshold_headroom"]


def test_fig4_label_does_not_move_with_the_grid():
    """Mixed W6 at epsilon = +0.01 touches the boundary near t = 0.2 for about 1e-4 in t.

    Five spacings of a 120000-step grid are shorter than that touch, so a
    dwell that scaled with the grid would read it as a death and a birth (p6).
    """
    initial = mixed_initial(esp_weighting("W6", 0.01), HALF)
    for n_steps in (1200, 120_000):
        traj = sample_trajectory(spin_star_hamiltonian(MIXED_J, HALF), initial, replace(MIXED_SPEC, n_steps=n_steps))
        assert _label_row({}, "fig4", "W6", 0.01, traj, "p3", MIXED_DWELL)["label"] == "p3", n_steps


def test_figure_csvs_round_trip_bit_for_bit(figure_outputs, tmp_path):
    """Every figure curve reads back bit for bit, as the per-line reader reads it, and writes back byte for byte."""
    paths = sorted(path for out in figure_outputs.values() for path in out.glob("*.csv"))
    assert len(paths) == 24 + 15 + 20
    copy = tmp_path / "copy.csv"
    for path in paths:
        traj = read_trajectory_csv(path)
        assert trajectory_columns(traj) == trajectory_columns(reference_read_trajectory_csv(path)), path.name
        rows = zip(*(c.tolist() for c in (traj.times, traj.negativity, traj.concurrence, traj.cne, traj.negative_count)))
        per_row = "\n".join([CSV_HEADER, *(f"{t!r},{n!r},{c!r},{l!r},{k}" for t, n, c, l, k in rows)]) + "\n"
        assert path.read_text(encoding="utf-8") == per_row, path.name  # the per-row format of the writer it replaced
        write_trajectory_csv(copy, traj)
        assert copy.read_bytes() == path.read_bytes(), path.name


def test_repro_formats_each_distinct_grid_once(tmp_path, monkeypatch):
    """fig2's 24 curves share one time grid, fig4's 15 one and fig5's 20 two: repro formats each grid once
    per call, and every curve is written with its own grid's cells."""
    formatted, written = [], []
    format_grid, write = cli.format_grid, cli.write_trajectory_csv

    def spied_format(times):
        formatted.append(times)
        return format_grid(times)

    def spied_write(path, traj, *, time_cells=None):
        written.append(path.name)
        assert time_cells == list(map(repr, traj.times.tolist())), path.name
        write(path, traj, time_cells=time_cells)

    monkeypatch.setattr(cli, "format_grid", spied_format)
    monkeypatch.setattr(cli, "write_trajectory_csv", spied_write)
    for target, grids, curves in (("fig2", 1, 24), ("fig4", 1, 15), ("fig5", 2, 20)):
        formatted.clear()
        written.clear()
        assert main(["repro", target, "--out", str(tmp_path / target)]) == 0
        assert (len(formatted), len(written)) == (grids, curves), target
        assert len({(t.size, t.tobytes()) for t in formatted}) == grids, target


def test_repro_table_writes_no_gnuplot_script(tmp_path):
    out = tmp_path / "t1"
    assert main(["repro", "table1", "--out", str(out), "--gnuplot-script"]) == 0
    assert not list(out.glob("*.gp"))


def test_repro_diagonalizes_once_per_distinct_hamiltonian(tmp_path, monkeypatch):
    """Each repro call builds one spectrum per distinct (J, S) it samples or fits: table1's 16 fits
    use 8, table2's 15 fits and fig4's 15 curves share 1, fig2's 24 curves and its isotropic check 8,
    and fig5's 21 curves 3, each from one stack of its two sector blocks.  No spectrum outlives its
    call: a second call diagonalizes again."""
    shapes = []
    hermitian_eig = dynamics.hermitian_eig
    monkeypatch.setattr(dynamics, "hermitian_eig", lambda a: shapes.append(a.shape) or hermitian_eig(a))
    expected = {"table1": 8, "table2": 1, "fig2": 8, "fig4": 1, "fig5": 3}
    for call in range(2):
        for target, count in expected.items():
            shapes.clear()
            assert main(["repro", target, "--out", str(tmp_path / f"{target}_{call}")]) == 0
            assert len(shapes) == count, (target, call)
    assert sorted(shapes) == [(2, 4, 4), (2, 6, 6), (2, 8, 8)]  # fig5's S = 1/2, 1 and 3/2
