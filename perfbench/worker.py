"""One benchmark process: set up, warm up, run timed operations, check.

Started by run.py in a fresh interpreter with BLAS threads pinned to one.
Set-up is measured from the parent's spawn time (CLOCK_MONOTONIC, shared
by all processes) to the end of one untimed warm-up operation, minus the
time spent building inputs. Then operations run back to back until their
summed wall time reaches the budget; peak RSS is read before the outputs
are checked against the independent answers. Prints one JSON line.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args()

    import numpy  # noqa: F401  (set-up covers the numpy import)
    import affinecost

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(affinecost.__file__).startswith(src + os.sep):
        sys.stderr.write(f"affinecost imported from {affinecost.__file__}, not {src}\n")
        return 2
    import spans
    from workloads import WORKLOADS

    build_started = time.monotonic()
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    build_s = time.monotonic() - build_started

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    attempted = failed = 0
    records = []

    def attempt(i: int):
        nonlocal attempted, failed
        attempted += 1
        started = time.perf_counter()
        try:
            result = workload.run(i)
        except Exception:
            failed += 1
            traceback.print_exc()
            return time.perf_counter() - started
        elapsed = time.perf_counter() - started
        records.append(workload.collect(i, result))
        return elapsed

    attempt(0)
    setup_s = time.monotonic() - args.spawned - build_s
    attempted = failed = 0
    if tracer is not None:
        tracer.reset()

    durations = []
    while sum(durations) < args.budget:
        if tracer is not None:
            tracer.op = len(durations)
        durations.append(attempt(len(durations)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = {}
    if tracer is not None:
        layers = spans.layer_totals(tracer)
        if args.trace_file:
            tracer.save(args.trace_file)
        tracer.uninstall()

    errors = workload.check(records) if records else ["no operation completed"]
    print(json.dumps({
        "setup_s": setup_s,
        "durations": durations,
        "work_units": workload.work_per_op * (attempted - failed),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
