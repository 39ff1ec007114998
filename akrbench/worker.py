"""Runs one workload in this process and prints its result as one JSON line.

Started by ``run.py`` in a fresh interpreter whose environment pins the BLAS
thread count and clears akrvoro's own switches.  The work list runs once to
warm up, then repeatedly until ``--seconds`` have passed: untraced only, or,
with ``--trace 1``, untraced and traced runs in turn.  Every run's outputs
are checked.
"""

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_RUNS = 3


def environment(av, np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "akrvoro_version": av.__version__,
        "backend": av.backend(),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def timed_run(workloads, ops, begin_op=None):
    start = time.perf_counter()
    outputs = workloads.run_ops(ops, begin_op)
    wall = time.perf_counter() - start
    return wall, outputs, workloads.check_outputs(ops, outputs)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    sys.path.insert(0, str(HERE))
    import numpy as np

    import akrvoro as av
    import tracer as tracing
    import workloads

    source = Path(av.__file__).resolve()
    if ROOT / "src" not in source.parents:
        sys.exit(f"akrvoro imported from {source}, not from {ROOT / 'src'}")
    if tracing.installed_wrappers():
        sys.exit("akrvoro is patched before the benchmark started")

    origin = time.perf_counter()
    av._kernels.warmup()
    ops = workloads.build(args.workload, args.seed, av)
    _, _, checks = timed_run(workloads, ops)  # warm-up, checked, not timed

    tracer = tracing.Tracer()
    untraced, traced = [], []
    criterion_walls = {}
    deadline = time.perf_counter() + args.seconds
    while True:
        if tracing.installed_wrappers():
            sys.exit("untraced run would execute patched code")
        wall, outputs, run_checks = timed_run(workloads, ops)
        untraced.append(wall)
        checks += run_checks
        if args.workload == "verify" and not isinstance(outputs[0], Exception):
            for r in outputs[0]:
                criterion_walls.setdefault(r.number, []).append(r.elapsed)
        if args.trace:
            with tracer.installed():
                wall, _, run_checks = timed_run(workloads, ops, tracer.begin_op)
            traced.append(wall)
            checks += run_checks
        step = wall + (untraced[-1] if args.trace else 0.0)
        if len(untraced) >= MIN_RUNS and time.perf_counter() + step > deadline:
            break
    if tracing.installed_wrappers():
        sys.exit("a wrapper was not restored after the traced run")

    anchored = [c.ratio for c in checks if c.anchor and c.ratio is not None]
    failed = [c.name for c in checks if not c.ok]
    result = {
        "environment": environment(av, np),
        "attempted": len(checks),
        "failed": len(failed),
        "failed_checks": sorted(set(failed))[:20],
        "err_to_tol_max": max(anchored) if anchored else None,
        "walls": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        traced_total = sum(traced)
        traced_covered = tracer.self_times()[1]
        layers = tracer.layer_metrics(len(traced))
        # mean, so that the self times plus the untraced share add up to it
        layers["trace.wall_s"] = traced_total / len(traced)
        layers["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1.0)
        layers["trace.untraced_frac"] = (traced_total - traced_covered) / traced_total
        for number in range(1, 9):
            walls = criterion_walls.get(number)
            layers[f"acceptance.criterion_{number}.wall_s"] = (
                statistics.median(walls) if walls else 0.0)
        result["layers"] = layers
        result["traced_runs"] = len(traced)
        if args.spans is not None:
            tracer.write_spans(args.spans, origin)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
