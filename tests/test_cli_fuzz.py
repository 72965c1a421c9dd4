"""Malformed run configs and trajectory CSVs end with a documented exit code.

Configs mutated from valid ones and CSVs with broken rows go through
``espkit.cli.main`` in process: no exception may escape, the exit code is
0, 1, 2 or 3, and a failing run prints exactly one line on stderr.  A second
test feeds each manifest's ``config`` back to ``evolve``.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from espkit.cli import CSV_HEADER, main

# every example stays small: n_steps <= 64, s_c <= 3/2, |t| <= 2
VALID = (
    {
        "model": {"j": [1.0, 0.5, 1.0], "s_c": 1.0},
        "state": {"kind": "product", "theta_a": 0.0, "theta_b": 3.14, "env": [0.5, 0.25, 0.25]},
        "evolution": {"t_max": 0.5, "n_steps": 16},
    },
    {
        "model": {"j": [-0.5, -0.5, -1.0], "s_c": 0.5},
        "state": {"kind": "bell", "family": "beta", "sign": "-", "p": 0.2},
        "evolution": {"t_max": 0.01, "n_steps": 8, "method": "series", "emit_negative_times": True},
        "detection": {"threshold": 1e-9, "min_duration": None},
    },
    {
        "model": {"j": [-0.5, -0.5, -1.0], "s_c": 1.5},
        "state": {"kind": "mixed_weighting", "weighting_id": "W13", "epsilon": 0.01},
        "evolution": {"t_min": -0.2, "t_max": 0.3, "n_steps": 32},
    },
    {
        "model": {"j": [-0.5, -0.5, -1.0], "s_c": 1.0},
        "state": {"kind": "pure_weighting", "weighting_id": "W9", "epsilon": -0.01},
        "evolution": {"t_max": 1.0, "n_steps": 64, "emit_negative_times": True},
    },
)

WORDS = ("exact", "series", "integrator", "+", "-", "alpha", "beta", "W1", "W9", "W99", "product", "bell", "x", "")
NUMBERS = st.one_of(
    st.integers(-2, 64),
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, 0.5, 1.5, 1e-3, math.nan, math.inf, -math.inf]),
)
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, st.sampled_from(WORDS))
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=4), st.dictionaries(st.sampled_from(WORDS), SCALARS, max_size=2))
SECTIONS = st.sampled_from(["model", "state", "evolution", "detection", "output"])
KEYS = st.sampled_from(
    ["j", "s_c", "kind", "theta_a", "phi_b", "env", "family", "sign", "p", "weighting_id", "epsilon", "t_min",
     "t_max", "n_steps", "method", "series_order", "emit_negative_times", "threshold", "min_duration", "extra"]
)


def _bounded(key, value):
    """Caps s_c at 3/2, n_steps at 64 and |t| at 2, so that every example stays small."""
    if type(value) in (int, float) and math.isfinite(value):
        if key == "s_c":
            return min(value, 1.5)
        if key == "n_steps":
            return min(value, 64)
        if key in ("t_min", "t_max"):
            return max(-2.0, min(value, 2.0))
    return value


@st.composite
def mutated_configs(draw):
    """A valid config with up to three of: a dropped, added, retyped or re-valued key, or a replaced section."""
    cfg = json.loads(json.dumps(draw(st.sampled_from(VALID))))
    for _ in range(draw(st.integers(0, 3))):
        section = draw(st.sampled_from(sorted(cfg)))
        node = cfg[section]
        action = draw(st.sampled_from(["drop", "extra", "retype", "section", "value", "value", "value"]))
        if action == "section" or not isinstance(node, dict) or not node:
            cfg[section] = draw(VALUES)
        elif action == "drop":
            del node[draw(st.sampled_from(sorted(node)))]
        elif action == "extra":
            node[draw(KEYS)] = draw(VALUES)
        else:
            key = draw(st.sampled_from(sorted(node)))
            like = {str: st.sampled_from(WORDS), list: st.lists(NUMBERS, max_size=4)}.get(type(node[key]), NUMBERS)
            node[key] = _bounded(key, draw(VALUES if action == "retype" else like))
    overrides = []
    for _ in range(draw(st.integers(0, 3)) // 2):
        key = draw(KEYS)
        value = _bounded(key, draw(VALUES))
        text = json.dumps(value) if draw(st.booleans()) else str(value)
        overrides += ["--set", f"{draw(SECTIONS)}.{key}={text}"]
    return cfg, overrides


CELLS = st.one_of(st.floats(-2.0, 2.0).map(repr), st.sampled_from(["nan", "inf", "-inf", "", "x", "1e", "0.5"]))


@st.composite
def trajectory_csvs(draw):
    """Up to six rows that are mostly well formed: short files, bad or non-finite cells, unordered times."""
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        t, neg = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.0, 0.5))
        row = [repr(t), repr(neg), repr(2 * neg), repr(-neg), str(int(neg > 1e-9))]
        if draw(st.integers(0, 4)) == 0:
            row[draw(st.integers(0, 4))] = draw(CELLS)
        if draw(st.integers(0, 9)) == 0:
            row = row[: draw(st.integers(0, 6))]
        rows.append(row)
    if draw(st.booleans()):
        rows.sort(key=lambda r: float(r[0]) if r and r[0].strip() not in ("", "x", "1e") else 0.0)
    header = CSV_HEADER if draw(st.integers(0, 9)) else "t,negativity"
    return "\n".join([header] + [",".join(r) for r in rows]) + "\n"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def _check(rc, err):
    assert rc in (0, 1, 2, 3)
    if rc != 0:
        assert err.endswith("\n") and err.count("\n") == 1, err


@settings(max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_configs())
def test_mutated_config_exits_cleanly(case):
    cfg, overrides = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        _check(*_run(["evolve", "--config", str(path), *overrides, "--out", str(Path(tmp) / "run")]))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(trajectory_csvs())
def test_malformed_csv_exits_cleanly(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traj.csv"
        path.write_text(text, encoding="utf-8")
        _check(*_run(["detect", "--traj", str(path)]))


def test_manifest_config_reruns_byte_for_byte(tmp_path):
    """The manifest's ``config`` is a runnable config that reproduces the run."""
    runs = 0
    for base in VALID:
        for method in ("exact", "series", "integrator"):
            cfg = json.loads(json.dumps(base))
            cfg["evolution"].update(method=method, t_max=0.005, n_steps=8)
            first, second = tmp_path / f"a{runs}", tmp_path / f"b{runs}"
            path = tmp_path / f"cfg{runs}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            assert main(["evolve", "--config", str(path), "--out", str(first)]) == 0
            rerun = tmp_path / f"manifest{runs}.json"
            rerun.write_text(json.dumps(json.loads((first / "manifest.json").read_text())["config"]))
            assert main(["evolve", "--config", str(rerun), "--out", str(second)]) == 0
            for name in ("trajectory.csv", "manifest.json"):
                assert (first / name).read_bytes() == (second / name).read_bytes(), (base["state"]["kind"], method, name)
            runs += 1
    assert runs == 12
