"""Tests of the benchmark itself, on its reduced-size smoke mode.

    python3 -m pytest espbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import oracle  # noqa: E402
import reference as ref  # noqa: E402


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT, capture_output=True, text=True, timeout=170,
        check=False,
    )
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", ["curves", "short_time", "detect"])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc, lines = run_bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())
    if workload != "detect":
        assert result["failed"] == 0


def test_traced_smoke_run_reports_every_per_layer_metric():
    proc, lines = run_bench("--workload", "short_time", "--seed", "5", "--seconds", "1", "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert result["metrics"]["densemat.hermitian_eig.calls"]["value"] > 0
    assert result["metrics"]["trace.overhead_s"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "detect", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_reference_agrees_with_the_oracle():
    for kind, ident, eps, two_s, j, t in oracle.SAMPLES:
        if kind == "product":
            b0 = ref.product_factor(ident, two_s)
        elif kind == "mixed":
            b0 = ref.mixed_factor(ident, eps, two_s)
        else:
            b0, _ = ref.pure_factor(ident, eps)
        lam, neg, conc, _ = ref.Evolution(ref.hamiltonian(j, two_s), b0).monotones([t])
        exact = oracle.monotones(kind, ident, eps, two_s, j, t)
        assert np.allclose([lam[0], neg[0], conc[0]], exact, rtol=0, atol=1e-14)


def test_corpus_shape_is_seed_independent(tmp_path):
    a = corpus.build(tmp_path / "a", 1)
    b = corpus.build(tmp_path / "b", 2)
    again = corpus.build(tmp_path / "c", 1)
    assert [c.rows for c in a] == [c.rows for c in b]
    assert [c.malformed for c in a] == [c.malformed for c in b]
    assert all(x.path.read_bytes() == y.path.read_bytes() for x, y in zip(a, again))
    kinds = {e[0] for c in a for e in c.events}
    assert kinds == {"ESD", "ESB", "TFD"}
