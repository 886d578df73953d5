"""ghznet benchmark: time one workload end to end, or its layers when traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload correct --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --seed 0          # all three workloads, one process each

The workload's operations run in whole passes until ``--seconds`` have
elapsed (at least one pass); every result is checked after its operation.
With ``--trace 0`` the last stdout line reports the end-to-end metrics:

* ``setup_s`` -- importing ghznet, drawing the inputs from the seed and one
  warm-up operation; the median over this process and six fresh ones;
* ``wall_s`` -- median time of one pass over the operation list;
* ``peak_rss_mb`` -- this process's peak resident set size;
* ``infidelity_mean`` -- mean 1 - F over the checked results of a pass.

With ``--trace 1`` untraced and traced passes alternate, and the line
reports per-layer metrics (lower medians over the traced passes, see
``spans.py``) and ``trace_overhead_s``, traced minus untraced pass time.
``failed / attempted`` is the failed fraction over all passes.

BLAS runs on one thread (``OPENBLAS_NUM_THREADS=1``, set before numpy is
imported) unless ``--blas-threads`` says otherwise.  The first stdout line
records the environment; the lines after it list the metrics readably.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("correct", "verify", "scale")
SETUP_PROBES = 6


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--blas-threads", default="1",
        help="OpenBLAS threads, or 'default' to leave OpenBLAS its own choice",
    )
    # child mode: set up once, print the set-up time and exit
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_args(args: argparse.Namespace, workload: str) -> list[str]:
    return [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--blas-threads", args.blas_threads,
    ]


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process; metrics prefixed by workload name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(child_args(args, name), capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def environment(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    def blas_version(mod) -> str:
        deps = mod.show_config(mode="dicts")["Build Dependencies"]
        return deps.get("blas", {}).get("version", "unknown")

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "commit": commit,
    }


def probe_setup(args: argparse.Namespace) -> float:
    proc = subprocess.run(
        child_args(args, args.workload) + ["--setup-probe"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(workload, tracer=None) -> dict:
    """One pass over the operations; each is timed alone, then checked."""
    wall = 0.0
    attempted = failed = 0
    infidelities = []
    for op in workload.ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.operation():
                    out = op.run()
            wall += time.perf_counter() - t0
            items = op.check(out)
        except Exception:  # a failing operation is counted, never dropped
            wall += time.perf_counter() - t0
            print(f"operation {op.label} failed:", file=sys.stderr)
            traceback.print_exc()
            items = [(False, None)] * op.size
        attempted += op.size
        for ok, infid in items:
            if not ok:
                print(f"operation {op.label}: output check failed", file=sys.stderr)
                failed += 1
            if infid is not None:
                infidelities.append(infid)
    return {
        "wall": wall, "attempted": attempted, "failed": failed,
        # a pass with no checked fidelity at all counts as the worst case
        "infidelity_mean": statistics.fmean(infidelities) if infidelities else 1.0,
    }


def measure(args: argparse.Namespace, workload, setup_s: float) -> dict:
    setups = [setup_s] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(workload))
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": statistics.median(p["wall"] for p in passes), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MiB",
            },
            "infidelity_mean": {
                "value": statistics.median(p["infidelity_mean"] for p in passes),
                "unit": "1",
            },
        },
        "passes": [p["wall"] for p in passes],
    }


LAYER_UNITS = {"_s": "s", "_us": "us", "_frac": "1"}


def layer_unit(metric: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def measure_traced(args: argparse.Namespace, workload) -> dict:
    from spans import Tracer

    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain.append(run_pass(workload))
        with Tracer().installed() as tracer:
            traced.append(run_pass(workload, tracer))
        layers.append(tracer.metrics())
    metrics = {
        name: {"value": statistics.median_low(m[name] for m in layers), "unit": layer_unit(name)}
        for name in layers[0]
    }
    overhead = statistics.median(p["wall"] for p in traced) - statistics.median(
        p["wall"] for p in plain
    )
    metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    attempted = sum(p["attempted"] for p in plain + traced)
    failed = sum(p["failed"] for p in plain + traced)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "passes": [p["wall"] for p in traced],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.blas_threads != "default":
        os.environ["OPENBLAS_NUM_THREADS"] = args.blas_threads
    if not (SRC / "ghznet" / "__init__.py").is_file():
        print(f"ghznet sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import workloads  # imports ghznet, numpy and scipy

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        workload = workloads.build(args.workload, args.seed, Path(tmp))
        workload.warmup()
        setup_s = time.perf_counter() - t0
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        if args.trace:
            result = measure_traced(args, workload)
        else:
            result = measure(args, workload, setup_s)

    passes = result.pop("passes")
    fail_frac = result["failed"] / result["attempted"]
    print(json.dumps({"env": environment(args)}))
    print(f"{args.workload}: pass times {[round(t, 4) for t in passes]} (s)")
    print(f"{args.workload}: fail_frac {fail_frac:.6g} (1)")
    for name, m in result["metrics"].items():
        print(f"{args.workload}: {name} {m['value']:.6g} ({m['unit']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
