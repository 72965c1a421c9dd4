"""espkit benchmark: end-to-end and per-layer metrics on three workloads.

    python3 espbench/run.py --workload curves --seed 1 --seconds 40 --trace 0
    python3 espbench/run.py --workload all --seed 1          # every workload, one process each
    python3 espbench/run.py --workload detect --smoke         # reduced sizes, every check

Run from the root of an espkit checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the last line of standard output is
one JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run instead.  The exit code is 0 when every
check passed, 1 when a check failed and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("curves", "short_time", "detect")


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None where it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    import espkit

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        import numba  # noqa: F401

        numba_ok = True
    except ImportError:
        numba_ok = False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "numba_importable": numba_ok,
        "espkit_numba_enabled": getattr(espkit, "NUMBA_ENABLED", None),
        "espkit_file": espkit.__file__,
    }


def run_all(args) -> int:
    """Every workload in its own process; the last line gathers their metrics by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"[{name}] exited {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        code = max(code, proc.returncode)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, every check; for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (SRC / "espkit" / "__init__.py").is_file():
        print(f"error: no espkit sources under {SRC}; run from an espkit checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]

    import workloads

    env = environment()
    if not Path(env["espkit_file"]).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported espkit from {env['espkit_file']}, not {SRC}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": env}))

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = workloads.Run(seed=args.seed, seconds=args.seconds, smoke=args.smoke, work=work)
    try:
        if args.trace:
            tracer, captured = workloads.install_tracer(run)
            workloads.WORKLOADS[args.workload](run)
            metrics = workloads.layer_metrics(tracer, captured, args.seed)
        else:
            named, first_call = workloads.WORKLOADS[args.workload](run)
            named.update(run.call_latency())
            for name, (value, unit) in named.items():
                print(f"{args.workload} {name} = {value:.6g} {unit}")
            metrics = run.common_metrics()
            metrics["setup_s"] = (workloads.setup_seconds(SRC, first_call, ROOT), "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for message in run.errors[:50]:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    print(f"{args.workload}: attempted {run.attempted}, failed {run.failed}, check failures {len(run.errors)}")
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not run.errors else 1


if __name__ == "__main__":
    sys.exit(main())
