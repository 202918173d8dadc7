"""affinecost benchmark: one workload per invocation.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; affinecost is imported from its
src/ directory. The workload runs in PROCESSES fresh worker processes one
after another, each with BLAS threads pinned to one and an equal share of
--seconds of timed operations. With --trace 0 the last stdout line
carries the end-to-end metrics; with --trace 1 the workers record spans
and it carries the per-layer metrics, each per timed operation. Exits
non-zero without a result when a worker fails to start or crashes.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sweep", "mcd", "cli-session")

# Set-up is reported as the median over the worker processes of one run.
PROCESSES = 3
# Whole-run limit; a run takes about --seconds plus 2 s per process.
DEADLINE_S = 170.0

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def run_worker(args, index: int, deadline: float) -> dict:
    env = dict(os.environ, **THREAD_PINS, PYTHONPATH=os.path.join(ROOT, "src"))
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--budget", repr(args.seconds / PROCESSES), "--trace", str(args.trace),
               "--workdir", workdir]
    if args.trace:
        command += ["--trace-file", os.path.join(OUT, f"trace-{args.workload}-{index}.npz")]
    try:
        spawned = time.monotonic()
        proc = subprocess.run(command + ["--spawned", repr(spawned)], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, timeout=max(1.0, deadline - spawned),
                              text=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {index} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(results) -> dict:
    durations = [d for r in results for d in r["durations"]]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in results), "s"),
        "op_s.p50": (statistics.median(durations), "s"),
        "work_per_s": (sum(r["work_units"] for r in results) / sum(durations), "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
    }


def per_layer(results) -> dict:
    ops = sum(len(r["durations"]) for r in results)
    metrics = {}
    for name in results[0]["layers"]:
        unit = "s" if name.endswith(("_s", ".s")) else "count"
        metrics[name] = (sum(r["layers"][name] for r in results) / ops, unit)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "affinecost", "__init__.py")):
        sys.stderr.write(f"no affinecost sources under {ROOT}/src; run from a checkout\n")
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.makedirs(OUT, exist_ok=True)

    # On SIGTERM, SystemExit unwinds subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    deadline = time.monotonic() + DEADLINE_S
    try:
        results = [run_worker(args, index, deadline) for index in range(PROCESSES)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    errors = [e for r in results for e in r["errors"]]
    for error in errors[:20]:
        sys.stderr.write(f"check failed: {error}\n")

    ops = sum(len(r["durations"]) for r in results)
    metrics = per_layer(results) if args.trace else end_to_end(results)
    durations = [d for r in results for d in r["durations"]]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{ops} timed operations in {PROCESSES} processes, "
          f"op_s.p50 {statistics.median(durations):.6f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
