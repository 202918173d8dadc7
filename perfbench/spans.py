"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: `install` replaces the
public functions of affinecost where the calling module looks them up
(for example `affinecost.harness.congruence`), and the `__post_init__`
gates of the linalg value types, with wrappers that append one span per
call. Spans stay in flat arrays until the run ends; `summarize` turns them
into per-layer call counts, self times and total times, where a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np


class Tracer:
    """Flat span store: name id, parent span, operation id, start, end."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.op = -1
        self._undo: list = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counts (used after the warm-up)."""
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = {}

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def wrap(self, name: str, fn, on_result=None):
        """Wrap fn so that each call records a span called name."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.op_id.append(self.op)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def summarize(self) -> dict:
        """{span name: {"calls", "self_s", "total_s"}} over recorded spans."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested],
                              minlength=len(duration))
        own = duration - covered
        layers = len(self.names)
        calls = np.bincount(name_id, minlength=layers)
        self_s = np.bincount(name_id, weights=own, minlength=layers)
        total_s = np.bincount(name_id, weights=duration, minlength=layers)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                   "total_s": float(total_s[i])}
            for i, name in enumerate(self.names)
        }


def _count_reports(tracer: Tracer, reports) -> None:
    for report in reports:
        tracer.count("harness.failures", sum(c.failures for c in report.checks))
        tracer.count("harness.counterexamples", len(report.counterexamples))


def _count_subsets(tracer: Tracer, result) -> None:
    tracer.count("mcd.subsets.examined", result.subsets_examined)
    tracer.count("mcd.subsets.degenerate", result.degenerate_subsets)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from affinecost import cli, cost, groups, harness, linalg, mcd

    for cls in (linalg.SymPosDefMatrix, linalg.InvertibleMatrix, linalg.OrthogonalMatrix):
        tracer.patch(cls, "__post_init__", "linalg.gate")
    tracer.patch(cost.CostFunction, "__call__", "cost.eval")
    for attr in ("random_pd", "random_gl", "random_sl", "random_orthogonal"):
        tracer.patch(harness, attr, "linalg.sample")
    tracer.patch(harness, "congruence", "linalg.congruence")
    tracer.patch(groups, "congruence", "linalg.congruence")
    tracer.patch(harness, "svd_decompose", "linalg.svd")
    tracer.patch(harness, "log_det", "linalg.log_det")
    tracer.patch(cost, "log_det", "linalg.log_det")
    tracer.patch(harness, "format_matrix", "linalg.format")
    tracer.patch(cli, "format_matrix", "linalg.format")
    tracer.patch(harness, "run_all_checks", "harness.checks", _count_reports)
    tracer.patch(cli, "check_det_factorization", "harness.checks")
    tracer.patch(harness, "probe_scalar_surjectivity", "harness.probe")
    tracer.patch(cli, "probe_scalar_surjectivity", "harness.probe")
    tracer.patch(cli, "estimate_kernel", "harness.kernel")
    tracer.patch(mcd, "subset_covariance", "mcd.covariance")
    tracer.patch(mcd, "mcd_estimate", "mcd.estimate", _count_subsets)
    tracer.patch(cli, "mcd_estimate", "mcd.estimate", _count_subsets)
    tracer.patch(groups, "elementary", "groups")
    for attr in ("decompose_sl", "elementary", "elementary_as_commutator",
                 "matrix_commutator", "reconstruct_factors"):
        tracer.patch(cli, attr, "groups")
    tracer.patch(cli, "main", "cli")


# Per-layer metrics, each reported per timed operation: (metric, span or
# counter name, field). Field "calls", "self_s" or "total_s" reads a span
# summary; "count" reads a counter.
LAYER_METRICS = (
    ("linalg.sample.calls", "linalg.sample", "calls"),
    ("linalg.sample.self_s", "linalg.sample", "self_s"),
    ("linalg.gate.calls", "linalg.gate", "calls"),
    ("linalg.gate.self_s", "linalg.gate", "self_s"),
    ("linalg.congruence.calls", "linalg.congruence", "calls"),
    ("linalg.congruence.self_s", "linalg.congruence", "self_s"),
    ("linalg.svd.calls", "linalg.svd", "calls"),
    ("linalg.svd.self_s", "linalg.svd", "self_s"),
    ("linalg.log_det.calls", "linalg.log_det", "calls"),
    ("linalg.log_det.self_s", "linalg.log_det", "self_s"),
    ("linalg.format.calls", "linalg.format", "calls"),
    ("linalg.format.self_s", "linalg.format", "self_s"),
    ("cost.eval.calls", "cost.eval", "calls"),
    ("cost.eval.self_s", "cost.eval", "self_s"),
    ("harness.checks.self_s", "harness.checks", "self_s"),
    ("harness.probe.s", "harness.probe", "total_s"),
    ("harness.kernel.s", "harness.kernel", "total_s"),
    ("harness.failures", "harness.failures", "count"),
    ("harness.counterexamples", "harness.counterexamples", "count"),
    ("mcd.covariance.calls", "mcd.covariance", "calls"),
    ("mcd.covariance.self_s", "mcd.covariance", "self_s"),
    ("mcd.estimate.self_s", "mcd.estimate", "self_s"),
    ("mcd.subsets.examined", "mcd.subsets.examined", "count"),
    ("mcd.subsets.degenerate", "mcd.subsets.degenerate", "count"),
    ("groups.self_s", "groups", "self_s"),
    ("cli.self_s", "cli", "self_s"),
)


def layer_totals(tracer: Tracer) -> dict:
    """Totals of every per-layer metric over the recorded spans (not yet
    divided by the number of operations); layers never entered read 0."""
    spans = tracer.summarize()
    totals = {}
    for metric, source, field in LAYER_METRICS:
        if field == "count":
            totals[metric] = tracer.counts.get(source, 0)
        else:
            totals[metric] = spans.get(source, {}).get(field, 0)
    return totals
