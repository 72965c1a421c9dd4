"""The benchmark's traced smoke run, as a guard on the package names it patches and calls."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_smoke_run_of_every_workload_is_correct():
    """The tracer patches public functions and methods by name, replay calls the per-matrix chain, and the
    workloads call the CLI, the CSV reader and the validators: deleting or renaming one of them fails
    here, not first in a benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "espbench" / "run.py"),
         "--workload", "all", "--smoke", "--seconds", "1", "--trace", "1", "--seed", "5"],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0


def test_traced_curves_run_replays_what_repro_samples():
    """The traced ``curves`` run at full size, whose ``repro`` targets the smoke run skips: its replay
    builds a propagator from the Hamiltonian matrix of each traced ``sample_trajectory`` call."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "espbench" / "run.py"),
         "--workload", "curves", "--seconds", "1", "--trace", "1", "--seed", "5"],
        capture_output=True, text=True, cwd=ROOT, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["metrics"]["replay.samples"]["value"] > 0
