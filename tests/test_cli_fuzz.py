"""Malformed run configs and trajectory CSVs end with a documented exit code.

Configs mutated from valid ones and CSVs with broken rows go through
``espkit.cli.main`` in process: no exception may escape, the exit code is
0, 1, 2 or 3, and a failing run prints exactly one line on stderr.  The same
CSVs compare the numpy reader with the per-line reference of ``conftest``.
Adversarial trajectories check that the writer prints each value's ``repr``,
and a last test feeds each manifest's ``config`` back to ``evolve``.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from espkit.cli import CSV_HEADER, format_grid, main, read_trajectory_csv, write_trajectory_csv
from espkit.dynamics import Trajectory
from espkit.errors import ConfigError

from conftest import reference_read_trajectory_csv, trajectory_columns

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
        "detection": {"threshold": 1e-9},
    },
    {
        "model": {"j": [-0.5, -0.5, -1.0], "s_c": 1.5},
        "state": {"kind": "mixed_weighting", "weighting_id": "W13", "epsilon": 0.01},
        "evolution": {"t_max": 0.3, "n_steps": 32, "emit_negative_times": True},
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
     "t_max", "n_steps", "method", "series_order", "emit_negative_times", "threshold", "extra"]
)


def _bounded(key, value):
    """Caps s_c at 3/2, n_steps at 64 and |t| at 2, so that every example stays small."""
    if type(value) in (int, float) and math.isfinite(value):
        if key == "s_c":
            return min(value, 1.5)
        if key == "n_steps":
            return min(value, 64)
        if key == "t_max":
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


CELLS = st.one_of(
    st.floats(-2.0, 2.0).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "", "x", "1e", "0.5", " 0.5\u2003", "0x1", "1_0", "0_5", "\u0661", "0.5\x1c", "\x1f1"]),
)
COUNTS = st.sampled_from(["-7", "5", "99999999999999999999", "-0", "+3", " 4 ", "1_0", "\u0663"])
BLANKS = st.sampled_from(["", " ", "\t", "\u2003", "\x0c", "\x1c"])


def _time_key(row):
    try:
        return float(row[0])
    except (IndexError, ValueError):
        return 0.0


@st.composite
def trajectory_csvs(draw):
    """Up to six rows that are mostly well formed: short files, bad, non-finite or non-ASCII cells, counts out of
    range, unordered times, blank and whitespace-only lines, and LF or CRLF line ends."""
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        t, neg = draw(st.floats(-2.0, 2.0)), draw(st.floats(0.0, 0.5))
        row = [repr(t), repr(neg), repr(2 * neg), repr(-neg), str(int(neg > 1e-9))]
        if draw(st.integers(0, 4)) == 0:
            row[draw(st.integers(0, 4))] = draw(CELLS)
        if draw(st.integers(0, 9)) == 0:
            row[4] = draw(COUNTS)
        if draw(st.integers(0, 9)) == 0:
            row = row[: draw(st.integers(0, 6))]
        rows.append(row)
    if draw(st.booleans()):
        rows.sort(key=_time_key)
    lines = [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(BLANKS))
    header = CSV_HEADER if draw(st.integers(0, 9)) else "t,negativity"
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join([header] + lines) + end


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


def _outcome(reader, path):
    """The columns a reader returns as bytes, or the message of the ConfigError it raises."""
    try:
        return "accepted", trajectory_columns(reader(path))
    except ConfigError as exc:
        return "rejected", str(exc)


def _narrowed_line(path):
    """The first line holding a spelling Python's float() or int() takes but the numpy pass rejects, or None."""
    for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n")[1:], start=2):
        if "_" in line or any(ch.isdigit() and not ch.isascii() for ch in line):
            return lineno
    return None


@settings(max_examples=400, derandomize=True, deadline=None)
@given(trajectory_csvs())
def test_numpy_reader_matches_per_line_reference(text):
    """Same verdict, bit-identical columns and the same one-line message as the per-line reader, except that a
    line with a '_' or non-ASCII digit, which that reader takes, is rejected and named."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traj.csv"
        path.write_text(text, encoding="utf-8")
        expected, got = _outcome(reference_read_trajectory_csv, path), _outcome(read_trajectory_csv, path)
        narrowed = _narrowed_line(path)
    # a line-numbered rejection of the reference before the narrowed line is still the verdict
    line = re.match(rf"{re.escape(str(path))}:(\d+): ", expected[1]) if expected[0] == "rejected" else None
    if narrowed is not None and (line is None or int(line.group(1)) > narrowed):
        assert got[0] == "rejected" and got[1].startswith(f"{path}:{narrowed}: "), (got, narrowed)
        assert got[1].endswith("numbers take ASCII digits and no '_'"), got
    else:
        assert got == expected


# the trajectory writer's adversaries: each structure it reuses, and near misses of it
FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e16, -1e16, 1e-05, -1e-05, 0.1, -0.5]
ELEMENTS = {
    np.float64: st.one_of(st.sampled_from(FLOAT_EDGES), st.floats(allow_nan=False, allow_infinity=False)),
    np.float32: st.one_of(
        st.sampled_from([0.0, -0.0, 1e-45, -1e-40, 1e16, 1e-05, -1e-05, 0.1]),
        st.floats(width=32, allow_nan=False, allow_infinity=False),
    ),
    np.int64: st.integers(-4, 4),
}
COUNT_ELEMENTS = {np.int64: st.integers(0, 4), np.int8: st.integers(0, 4), np.float64: st.sampled_from([0.0, -0.0, 1.0, 4.0])}


@st.composite
def shaped_columns(draw, n, elements=ELEMENTS):
    """n values of one dtype: random, [a, b] repeated, a palindrome, or a palindrome one ulp or one zero's sign off."""
    dtype = draw(st.sampled_from(list(elements)))
    shape = draw(st.sampled_from(["random", "periodic", "palindrome", "ulp", "zero"]))
    if shape == "random":
        return np.array(draw(st.lists(elements[dtype], min_size=n, max_size=n)), dtype=dtype)
    if shape == "periodic":
        return np.array(draw(st.lists(elements[dtype], min_size=2, max_size=2)) * n, dtype=dtype)[:n]
    half = draw(st.lists(elements[dtype], min_size=(n + 1) // 2, max_size=(n + 1) // 2))
    column = np.array(half + half[: n // 2][::-1], dtype=dtype)
    i = draw(st.integers(0, n // 2 - 1))
    if shape == "ulp" and np.issubdtype(dtype, np.integer):
        column[i] += 1
    elif shape == "ulp":
        column[i] = np.nextafter(column[i], dtype(draw(st.sampled_from([-np.inf, np.inf]))))
    elif shape == "zero" and not np.issubdtype(dtype, np.integer):
        column[i], column[n - 1 - i] = -0.0, 0.0
    return column


@st.composite
def time_grids(draw, n):
    """n increasing times of one dtype: symmetric about 0, with a 0.0 or -0.0 middle when n is odd, that grid
    one step off at one time, or any."""
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int64]))
    positive = {
        np.float64: st.floats(5e-324, 1e300),
        np.float32: st.floats(float(np.finfo(np.float32).smallest_subnormal), 2.0**100, width=32),
        np.int64: st.integers(1, 10**6),
    }[dtype]
    upper = sorted(draw(st.lists(positive, min_size=n, max_size=n, unique=True)))
    shape = draw(st.sampled_from(["symmetric", "nudged", "any"]))
    if shape != "any":
        middle = [draw(st.sampled_from([0.0, -0.0]))] if n % 2 else []
        grid = np.array([-x for x in upper[: n // 2][::-1]] + middle + upper[: n // 2], dtype=dtype)
        if shape == "nudged":
            i = draw(st.integers(0, n - 1))
            toward = draw(st.sampled_from([-np.inf, np.inf]))
            grid[i] = grid[i] + 1 if dtype == np.int64 else np.nextafter(grid[i], dtype(toward))
        return grid
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    return np.array(sorted(x * s for x, s in zip(upper, signs)), dtype=dtype)


@st.composite
def writer_columns(draw):
    """(t, lambda*, N, C, count) of 2 to 9 samples; N is 0.0 - min(lambda*, 0), -lambda*, that one ulp off, or free."""
    n = draw(st.integers(2, 9))
    lam = draw(shaped_columns(n))
    relation = draw(st.sampled_from(["derived", "negated", "ulp", "free"]))
    if relation == "free":
        neg = draw(shaped_columns(n))
    else:
        neg = -lam if relation == "negated" else 0.0 - np.minimum(lam, 0)
        if relation == "ulp":
            i = draw(st.integers(0, n - 1))
            neg = neg.astype(np.float64)
            neg[i] = np.nextafter(neg[i], draw(st.sampled_from([-np.inf, np.inf])))
        if draw(st.booleans()):
            neg = neg.astype(np.float64)
    return draw(time_grids(n)), lam, neg, draw(shaped_columns(n)), draw(shaped_columns(n, COUNT_ELEMENTS))


def _example(t, lam, neg, conc, count, dtype=np.float64):
    return tuple(np.array(c, dtype=d) for c, d in zip((t, lam, neg, conc, count), (dtype, dtype, dtype, dtype, np.int64)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(writer_columns())
# N < 0 where lambda* = -N > 0: no '-' to strip
@example(_example([-1.0, 0.0, 1.0], [0.5, 0.25, 0.5], [-0.5, -0.25, -0.5], [0.0, 0.0, 0.0], [0, 0, 0]))
# palindromes under ==, not bit for bit: 0.0 and -0.0 print differently
@example(_example([-2.0, -1.0, 1.0, 2.0], [0.0, -0.0, 0.0, -0.0], [0.0] * 4, [-0.0, 0.0, 0.0, 0.0], [0, 1, 1, 0]))
# one ulp off a palindrome; N one ulp off -lambda*
@example(
    _example([0.0, 0.5, 1.0], [-0.1, -0.2, -0.1], [0.1, 0.2, np.nextafter(0.1, 1)], [0.3, 0.1, np.nextafter(0.3, 1)], [1] * 3)
)
# a grid symmetric but for one ulp
@example(_example([-1.0, -0.5, np.nextafter(0.5, 1), 1.0], [0.0] * 4, [0.0] * 4, [0.0] * 4, [0] * 4))
# a -0.0 middle; subnormals, exponent forms and counts 0 to 4
@example(
    _example(
        [-1e16, -1e-05, -0.0, 1e-05, 1e16],
        [5e-324, -5e-324, 1e-310, -5e-324, 5e-324],
        [0.0, 5e-324, 0.0, 5e-324, 0.0],
        [1e16, 1e-05, 0.1, 1e-05, 1e16],
        [0, 1, 2, 3, 4],
    )
)
# [a, b, a, b] in float32: a palindrome to a 64-bit view
@example(_example([-2.0, -1.0, 1.0, 2.0], [0.1, 0.2, 0.1, 0.2], [0.0] * 4, [-0.1, -0.2, -0.1, -0.2], [0, 0, 0, 0], np.float32))
# integer lambda* and times, float N: '3.0' is not '-3' without its '-'
@example((np.arange(-2, 3), np.array([-3, 2, 0, 2, -3]), np.array([3.0, 0, 0, 0, 3.0]), np.array([1, 0, 1, 0, 1]), np.zeros(5, np.int8)))
def test_writer_prints_the_repr_of_every_value(columns):
    """write_trajectory_csv, with or without a shared grid's cells, prints ",".join(map(repr, row)) for every
    sample, whatever structure the columns have or nearly have."""
    t, lam, neg, conc, count = columns
    try:
        traj = Trajectory(t, lam, neg, conc, count)
    except ValueError:  # a perturbation left the finite, increasing domain
        assume(False)
    rows = zip(*(c.tolist() for c in (t, neg, conc, lam, count)))
    expected = "".join(f"{row}\n" for row in [CSV_HEADER, *(",".join(map(repr, r)) for r in rows)])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "traj.csv"
        for cells in (None, format_grid(t)):
            write_trajectory_csv(path, traj, time_cells=cells)
            assert path.read_text(encoding="utf-8") == expected


def test_huge_couplings_exit_cleanly(tmp_path):
    """Couplings near the largest double end with exit 0 or 3 for every valid state and method, with at
    most one line on stderr and no numpy warning."""
    runs = 0
    for base in VALID:
        for method in ("exact", "series", "integrator"):
            for jx in (1e160, 1e308):
                cfg = json.loads(json.dumps(base))
                cfg["model"]["j"] = [jx, 1, 1]
                cfg["evolution"]["method"] = method
                path = tmp_path / f"cfg{runs}.json"
                path.write_text(json.dumps(cfg), encoding="utf-8")
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    rc, err = _run(["evolve", "--config", str(path), "--out", str(tmp_path / f"run{runs}")])
                assert rc in (0, 3) and err.count("\n") == (rc == 3), (cfg, err)
                assert not caught, (cfg, [str(w.message) for w in caught])
                runs += 1
    assert runs == 24


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
