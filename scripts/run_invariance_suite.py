#!/usr/bin/env python3
"""Sweep the invariance suite over the whole cost family and print a table.

The factoring costs (det and the quantized variants) should pass every
check; the controls should fail in their characteristic patterns: trace
survives orthogonal conjugation but breaks the commutator equality, and
the identity cost is invariant (the implication check passes) yet fails
determinant factorization and scalar coverage.
"""

import argparse
import time

from affinecost import TrialConfig, cost_from_selector, run_invariance_suite

SELECTORS = ["det", "qdet:0.5", "qdet:1", "qdet:2", "trace", "identity"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--dims", type=int, nargs="+", default=[1, 2, 3, 4, 5, 6])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    cfg = TrialConfig(dims=tuple(args.dims), trials=args.trials, master_seed=args.seed)
    print(f"dims={list(cfg.dims)} trials={cfg.trials} seed={cfg.master_seed} "
          f"rel_tol={cfg.rel_tol}")
    header = f"{'cost':>10} {'verdict':>8} {'coverage':>9}  failures by check"
    print(header)
    print("-" * len(header))
    for selector in SELECTORS:
        cost = cost_from_selector(selector)
        started = time.perf_counter()
        suite = run_invariance_suite(cost, cfg)
        elapsed = time.perf_counter() - started
        fails = ", ".join(
            f"{c.name}={c.failures}" for c in suite.report.checks if c.failures
        ) or "none"
        print(f"{selector:>10} {suite.verdict:>8} "
              f"{suite.surjectivity.covered_fraction:>9.3f}  {fails}  ({elapsed:.1f}s)")


if __name__ == "__main__":
    main()
