"""Per-target and per-layer timings of espkit, in one process, written to ``BENCH_<label>.json``.

Run from a checkout, with one BLAS thread (set here before numpy loads):

    python3 benchmarks/layers.py --label 32

The ``espkit`` on ``PYTHONPATH`` is measured, else the ``src/`` next to
this script, so one copy of this file times another tree:

    PYTHONPATH=/path/to/other/checkout/src python3 benchmarks/layers.py --label 31

Every unit runs once per round, the units interleaved in a fixed order,
and each reports the minimum over the rounds (min-of-k), with the median
beside it.  The units are each ``espkit repro`` target and the three
``evolve`` methods through ``espkit.cli.main``, CSV writing included,
and each group that ``repro fig2``, ``fig4`` and ``fig5`` samples
through ``dynamics.sample_trajectories``, alone.  The layers are timed in
separate rounds of the same calls, by wrapping the functions that make
up each layer (Hamiltonian build, diagonalization, sector setup, sector
products, X closed forms, LAPACK monotones, phase table, RK4 powering,
CSV writer); a layer reads null on a tree that lacks all of its
functions.  Each layer counts its own functions' time, so a call that
spans two layers counts in both.  Wrapping adds about a microsecond per
call, so the layer rounds are kept apart from the unit rounds.  No
totals are recorded: a sum of minima is no round anyone ran.  Beside the
pinned ``blas_threads``, ``blas_threads_default`` records the count
OpenBLAS picks in a fresh interpreter without the pin, which is what an
``espkit`` run gets.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_UNPINNED_ENV = {key: value for key, value in os.environ.items() if key not in _PINS}
for _var in _PINS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, which picks the tree to measure

import numpy as np  # noqa: E402

from espkit import cli, densemat, dynamics, model, monotones  # noqa: E402

TARGETS = ("table1", "table2", "fig2", "fig4", "fig5")
# the dimension-16 purified weighting the benchmark's curves workload evolves
EVOLVE_BASE = {
    "model": {"j": [-0.5, -0.5, -1.0], "s_c": 1.5},
    "state": {"kind": "pure_weighting", "weighting_id": "W13", "epsilon": -0.01},
}
EVOLVE_GRIDS = {
    "exact": {"t_max": 0.5, "n_steps": 200, "emit_negative_times": True},
    "series": {"t_max": 0.05, "n_steps": 100, "emit_negative_times": True},
    "integrator": {"t_max": 0.5, "n_steps": 200, "emit_negative_times": True},
}
# (module, attribute) of the functions each layer spends its time in; a name one tree lacks is skipped
LAYERS = {
    "hamiltonian_build": [(model, "spin_star_hamiltonian")],
    "diagonalization": [(densemat, "hermitian_eig")],
    "sector_setup": [
        (dynamics, "_sector_layout"),
        (dynamics, "_sector_blocks"),
        (dynamics, "_parity_sectors"),
        *([(dynamics.SectorGroup, "__init__")] if hasattr(dynamics, "SectorGroup") else []),
        (dynamics, "_sector_rows"),
        (dynamics, "_spectral_sectors"),
    ],
    "sector_products": [(dynamics, "_sector_product")],
    "x_closed_forms": [
        (dynamics, "_x_entries"),
        (dynamics, "_add_x_entries"),
        (monotones, "x_columns"),
        (monotones, "x_pt_min"),
        (monotones, "_x_factor"),
        (monotones, "_factor_x_entries"),
        (monotones, "_x_pt_min"),
        (monotones, "_x_concurrence"),
    ],
    "lapack_monotones": [(monotones, "_gram"), (monotones, "pt_min"), (monotones, "_lapack_concurrence")],
    "phase_table": [(dynamics.SpectralPropagator, "phases")],
    "rk4_powering": [(dynamics, "_rk4_increments"), (dynamics, "_rk4_increment")],
    "csv_writer": [(cli, "write_trajectory_csv")],
}


def blas_threads():
    """The thread count the loaded OpenBLAS reports, or None where it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def blas_threads_default():
    """:func:`blas_threads` in a fresh interpreter that loads numpy without the thread pins of this script.

    The child imports numpy before this module, whose import sets the pins too late to matter.
    """
    code = "import json, sys; import numpy; sys.path.insert(0, sys.argv[1]); import layers; print(json.dumps(layers.blas_threads()))"
    done = subprocess.run(
        [sys.executable, "-c", code, str(Path(__file__).resolve().parent)],
        env=_UNPINNED_ENV, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout)


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_default": blas_threads_default(),
        "nproc": os.cpu_count(),
    }


def cli_units(work: Path) -> dict:
    """name -> zero-argument call of each repro target and evolve, writing under ``work``."""
    units = {f"repro {t}": ["repro", t, "--out", str(work / t)] for t in TARGETS}
    for method, grid in EVOLVE_GRIDS.items():
        cfg = work / f"evolve_{method}.json"
        cfg.write_text(json.dumps(dict(EVOLVE_BASE, evolution=dict(grid, method=method))), encoding="utf-8")
        units[f"evolve {method}"] = ["evolve", "--config", str(cfg), "--out", str(work / f"evolve_{method}")]

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"espkit {' '.join(argv)} failed")

    return {name: (lambda argv=argv: run(argv)) for name, argv in units.items()}


def group_units(work: Path) -> tuple[dict, dict]:
    """name -> call of each group ``repro`` fig2, fig4 and fig5 sample, and each group's size."""
    seen = []
    real = cli.sample_trajectories

    def spied(h, initials, spec):
        seen.append((h, list(initials), spec))
        return real(h, initials, spec)

    cli.sample_trajectories = spied
    try:
        units, sizes = {}, {}
        for target in ("fig2", "fig4", "fig5"):
            seen.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["repro", target, "--out", str(work / f"groups_{target}")])
            for k, (h, initials, spec) in enumerate(seen):
                name = f"sampling {target}[{k}]"
                units[name] = lambda h=h, initials=initials, spec=spec: real(h, initials, spec)
                sizes[name] = {"states": len(initials), "times": spec.n_steps + 1, "dimension": int(dynamics._generator(h).shape[0])}
    finally:
        cli.sample_trajectories = real
    return units, sizes


def timed_rounds(units: dict, rounds: int) -> dict:
    """Each unit's seconds per round, the units run in turn within each round."""
    samples = {name: [] for name in units}
    for _ in range(rounds):
        for name, call in units.items():
            start = time.perf_counter()
            call()
            samples[name].append(time.perf_counter() - start)
    return samples


def layer_rounds(units: dict, rounds: int) -> dict:
    """Seconds and calls per round of each layer's functions, over one pass of every CLI unit per round."""
    spent = {layer: [0.0, 0, 0] for layer in LAYERS}  # seconds, outermost calls, depth
    originals = []
    for layer, names in LAYERS.items():
        for owner, attr in names:
            fn = owner.__dict__.get(attr)
            if fn is None:
                continue
            originals.append((owner, attr, fn))

            def wrapped(*args, _fn=fn, _acc=spent[layer], **kwargs):
                if _acc[2]:  # called from inside the layer: its time is counted already
                    return _fn(*args, **kwargs)
                _acc[2], start = 1, time.perf_counter()
                try:
                    return _fn(*args, **kwargs)
                finally:
                    _acc[0] += time.perf_counter() - start
                    _acc[1] += 1
                    _acc[2] = 0

            setattr(owner, attr, wrapped)
    # modules that imported a wrapped function by name call it through their own binding
    rebound = []
    for module in (cli, dynamics, monotones, sys.modules["espkit.analysis"]):
        for owner, attr, fn in originals:
            if isinstance(owner, type) or module is owner or module.__dict__.get(attr) is not fn:
                continue
            rebound.append((module, attr, fn))
            setattr(module, attr, getattr(owner, attr))
    per_round = {layer: [] for layer in LAYERS}
    try:
        for _ in range(rounds):
            for acc in spent.values():
                acc[:] = [0.0, 0, 0]
            for call in units.values():
                call()
            for layer, (seconds, calls, _) in spent.items():
                per_round[layer].append((seconds, calls))
    finally:
        for owner, attr, fn in originals + rebound:
            setattr(owner, attr, fn)
    out = {}
    for layer, names in LAYERS.items():
        present = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in names if attr in owner.__dict__]
        seconds = [s for s, _ in per_round[layer]]
        calls = per_round[layer][0][1]
        out[layer] = {
            "functions": present,
            "best_s_per_round": min(seconds) if present else None,
            "median_s_per_round": statistics.median(seconds) if present else None,
            "calls_per_round": calls if present else None,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--rounds", type=int, default=7, help="rounds per unit (min-of-k)")
    parser.add_argument("--out-dir", default=str(ROOT), help="directory for BENCH_<label>.json")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        cli_calls = cli_units(work)
        groups, sizes = group_units(work)
        units = {**cli_calls, **groups}
        timed_rounds(units, 1)  # warm-up: imports, caches, first allocations
        samples = timed_rounds(units, args.rounds)
        layers = layer_rounds(cli_calls, args.rounds)
    payload = {
        "label": args.label,
        "environment": environment(),
        "rounds": args.rounds,
        "units": {
            name: {"best_s": min(s), "median_s": statistics.median(s), **sizes.get(name, {})} for name, s in samples.items()
        },
        "layers": layers,
    }
    path = Path(args.out_dir) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
