#!/usr/bin/env python3
"""akrvoro benchmark: one workload, one result line.

    python3 akrbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; akrvoro is imported from ``src/``.
With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run instead, and the spans go to ``.akrbench_out/``.  The exit code
is 0 when every check passed, 1 when one failed, and non-zero without a
result line when the benchmark could not run.  See README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".akrbench_out"
sys.path.insert(0, str(HERE))

from tracer import layer_metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# half of the starts run before the workload and half after it, so that
# setup_s samples the host twice, about a run apart
SETUP_STARTS = 8
IMPORTTIME_STARTS = 3
TIME_LIMIT = 150.0  # for the worker; the set-up starts after it need the rest
# prints the system-wide monotonic clock once warm-up is done
SETUP_CODE = ("import akrvoro, time; akrvoro._kernels.warmup(); "
              "print(time.clock_gettime(time.CLOCK_MONOTONIC))")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "pass_frac": "ratio", "err_to_tol_max": "ratio"}
PER_LAYER_UNITS = dict(
    layer_metric_names(),
    **{f"acceptance.criterion_{k}.wall_s": "s" for k in range(1, 9)},
    **{f"setup.import_{p}_s": "s" for p in ("numpy", "scipy", "akrvoro")},
    **{"trace.wall_s": "s", "trace.overhead_frac": "ratio",
       "trace.untraced_frac": "ratio"},
)


def child_env():
    """The environment of every process the benchmark starts: akrvoro from
    src/, one BLAS thread, and none of akrvoro's own switches."""
    env = dict(os.environ)
    for name in ("AKRVORO_WORKERS", "AKRVORO_PURE_NUMPY"):
        env.pop(name, None)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(env, starts):
    """Wall times from starting a fresh interpreter until it has imported
    akrvoro and warmed up.  The end is read by the child: waiting for the
    child with a timeout polls, which would round the time up by ~50 ms."""
    times = []
    for _ in range(starts):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=ROOT, check=True, timeout=60,
                              capture_output=True, text=True)
        times.append(float(proc.stdout) - start)
    return times


def import_seconds(stderr, package):
    """Cumulative import time of ``package`` and its submodules, counted at
    their outermost import, from ``python -X importtime`` output."""
    rows = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:  # the header row
            continue
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), cumulative))
    total = 0
    # importtime prints a module after everything it imports, at a deeper
    # indent; walk backwards so each row's enclosing imports are known
    enclosing = []
    for depth, name, cumulative in reversed(rows):
        while enclosing and enclosing[-1][0] >= depth:
            enclosing.pop()
        inside = any(n == package or n.startswith(package + ".") for _, n in enclosing)
        if not inside and (name == package or name.startswith(package + ".")):
            total += cumulative
        enclosing.append((depth, name))
    return total * 1e-6


def import_breakdown(env):
    runs = []
    for _ in range(IMPORTTIME_STARTS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import akrvoro"],
            env=env, cwd=ROOT, check=True, capture_output=True, text=True,
            timeout=60)
        runs.append({p: import_seconds(proc.stderr, p)
                     for p in ("numpy", "scipy", "akrvoro")})
    return {f"setup.import_{p}_s": statistics.median(r[p] for r in runs)
            for p in ("numpy", "scipy", "akrvoro")}


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "akrvoro" / "__init__.py").is_file():
        sys.exit(f"akrbench: no akrvoro sources under {ROOT / 'src'}")

    started = time.perf_counter()
    env = child_env()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(spans)]
        values = import_breakdown(env)
    else:
        setup_times = setup_seconds(env, SETUP_STARTS // 2)
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, TIME_LIMIT - (time.perf_counter() - started)))
    except subprocess.TimeoutExpired:
        sys.exit("akrbench: the workload ran past the time limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"akrbench: worker exited with code {proc.returncode}")
    run = json.loads(lines[-1])

    if args.trace:
        values.update(run["layers"])
        units = PER_LAYER_UNITS
    else:
        setup_times += setup_seconds(env, SETUP_STARTS - SETUP_STARTS // 2)
        values = dict(
            setup_s=statistics.median(setup_times),
            wall_s=statistics.median(run["walls"]),
            peak_rss_mb=run["peak_rss_mb"],
            pass_frac=1.0 - run["failed"] / run["attempted"],
            err_to_tol_max=run["err_to_tol_max"],
        )
        units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}

    environment = dict(run["environment"], seed=args.seed, commit=git_commit(),
                       workload=args.workload, trace=args.trace,
                       work_list_runs=len(run["walls"]))
    record = {"environment": environment, "failed_checks": run["failed_checks"],
              "walls": run["walls"], "metrics": metrics}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    note = ("numpy backend; numba is not installed, so no numba figure is measured"
            if environment["backend"] == "numpy" and not environment["numba_installed"]
            else f"{environment['backend']} backend")
    print(f"akrbench {args.workload} seed={args.seed} trace={args.trace}: {note}")
    print("environment " + json.dumps(environment))
    for name in sorted(metrics):
        print(f"  {name:<46} {metrics[name]['value']:>14.6g} {metrics[name]['unit']}")
    for name in run["failed_checks"]:
        print(f"  FAILED: {name}")
    correct = run["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
