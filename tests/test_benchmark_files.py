"""The committed BENCH_*.json files of benchmarks/layers.py, checked for their schema without re-running it."""

import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
UNITS = {f"repro {t}" for t in ("table1", "table2", "fig2", "fig4", "fig5")} | {
    f"evolve {m}" for m in ("exact", "series", "integrator")
}
LAYERS = {
    "hamiltonian_build",
    "diagonalization",
    "sector_setup",
    "sector_products",
    "x_closed_forms",
    "lapack_monotones",
    "phase_table",
    "rk4_powering",
    "csv_writer",
}


def test_committed_benchmark_files_hold_every_unit_and_layer():
    """Each file names its label, the Python, numpy and BLAS versions, the pinned BLAS thread count, the count
    OpenBLAS picks without the pin (null where it cannot be asked) and nproc; times
    every repro target, evolve and fig2/fig4/fig5 sampling group (min-of-k and median); and records each layer,
    null where the measured tree lacks its functions."""
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert {"BENCH_29.json", "BENCH_30.json", "BENCH_31.json", "BENCH_32.json"} <= {p.name for p in paths}
    for path in paths:
        data = json.loads(path.read_text(encoding="utf-8"))
        assert data["label"] == path.stem.removeprefix("BENCH_") and data["rounds"] >= 1
        env = data["environment"]
        assert all(isinstance(env[key], str) and env[key] for key in ("python", "numpy", "blas"))
        assert env["blas_threads"] == 1 and env["nproc"] >= 1
        default = env["blas_threads_default"]
        assert default is None or (type(default) is int and default >= 1), path.name
        units = data["units"]
        groups = {name.split("[")[0] for name in units if name.startswith("sampling ")}
        assert UNITS <= set(units) and groups == {"sampling fig2", "sampling fig4", "sampling fig5"}
        for name, unit in units.items():
            assert 0.0 < unit["best_s"] <= unit["median_s"] and math.isfinite(unit["median_s"]), name
        assert set(data["layers"]) == LAYERS
        for name, layer in data["layers"].items():
            if layer["functions"]:
                assert 0.0 < layer["best_s_per_round"] <= layer["median_s_per_round"] and layer["calls_per_round"] >= 1, name
            else:
                assert layer["best_s_per_round"] is None and layer["calls_per_round"] is None, name
