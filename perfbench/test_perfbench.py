"""Tests of the benchmark itself: every check rejects a planted wrong
answer, every workload completes one checked operation, and run.py keeps
its output contract.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 11


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    """One cli-session operation: the workload and its collected record."""
    workload = workloads.CliSession(SEED, str(tmp_path_factory.mktemp("session")))
    return workload, workload.collect(0, workload.run(0))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_passes_its_checks_for_one_operation(name, tmp_path):
    workload = workloads.WORKLOADS[name](SEED, str(tmp_path))
    record = workload.collect(0, workload.run(0))
    assert workload.check([record]) == []


def test_shifted_mcd_subset_is_rejected():
    workload = workloads.Mcd(SEED, "")
    points = workload.points[0]
    subset, value = oracle.mcd_argmin(points, workload.H)
    mean = points[list(subset)].mean(axis=0)
    assert oracle.check_mcd(points, workload.H, subset, mean, value) == []
    unused = min(set(range(workload.K)) - set(subset))
    shifted = tuple(sorted(subset[1:] + (unused,)))
    assert oracle.check_mcd(points, workload.H, shifted, mean, value)
    assert oracle.check_mcd(points, workload.H, subset, mean + 1e-6, value)
    # The same subset named as planted outliers must be flagged.
    assert oracle.check_mcd(points, workload.H, subset, mean, value, outliers=subset[:1])


def test_shifted_folded_mcd_subset_is_rejected(session):
    workload, record = session
    report = json.loads(record["files"][4])
    args = (workload.points, workload.MCD_H)
    assert oracle.check_mcd(*args, report["subset"], np.array(report["mean"]),
                            report["cost"], lattice_a=1.0) == []
    unused = min(set(range(len(workload.points))) - set(report["subset"]))
    shifted = sorted(report["subset"][1:] + [unused])
    assert oracle.check_mcd(*args, shifted, np.array(report["mean"]),
                            report["cost"], lattice_a=1.0)


def test_corrupted_counterexample_is_rejected(session):
    _, record = session
    report = json.loads(record["files"][0])
    assert oracle.check_trace_report(report) == []
    example = next(e for e in report["counterexamples"] if e["check"] == "commutator")
    # With B = A the commutator identity holds, so the stored failure is false.
    example["inputs"]["B"] = example["inputs"]["A"]
    assert oracle.check_trace_report(report)


def test_wrong_lattice_constant_is_rejected(session):
    _, record = session
    report = json.loads(record["files"][2])
    assert oracle.check_lattice(report, 0.5) == []
    assert oracle.check_lattice(dict(report, a=report["a"] + 2e-6), 0.5)
    assert oracle.check_lattice(dict(report, variant="trivial", a=None), 0.5)


def test_perturbed_factor_list_is_rejected(session):
    workload, record = session
    lines = record["files"][5].decode().splitlines()
    assert oracle.check_factors("\n".join(lines), workload.matrix) == []
    tag, i, j, lam = lines[0].split()
    perturbed = [f"{tag} {i} {j} {float(lam) + 1e-6!r}"] + lines[1:]
    assert oracle.check_factors("\n".join(perturbed), workload.matrix)
    assert oracle.check_factors("\n".join(lines[1:]), workload.matrix)


def test_wrong_commutator_and_identity_coverage_are_rejected(session):
    workload, record = session
    text = record["files"][6].decode()
    assert oracle.check_commutator(text, 3, workload.i, workload.j, workload.lam) == []
    assert oracle.check_commutator(text, 3, workload.i, workload.j, workload.lam + 1e-9)
    report = json.loads(record["files"][1])
    assert oracle.check_identity_report(report) == []
    report["surjectivity"]["covered_fraction"] = 1.0
    assert oracle.check_identity_report(report)


def test_changed_rerun_output_is_rejected(session):
    workload, record = session
    changed = dict(record, op=1, files=record["files"][:5] + (b"E 1 2 0\n",) + record["files"][6:])
    assert workload.check([record, record]) == []
    assert workload.check([record, changed])


def test_tracer_records_layers_and_uninstalls(tmp_path):
    from affinecost import harness, linalg

    original, gate = harness.congruence, linalg.SymPosDefMatrix.__post_init__
    workload = workloads.CliSession(SEED, str(tmp_path))
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        workload.collect(0, workload.run(0))
        totals = spans.layer_totals(tracer)
        tracer.save(str(tmp_path / "spans.npz"))
    finally:
        tracer.uninstall()
    assert harness.congruence is original
    assert linalg.SymPosDefMatrix.__post_init__ is gate
    for metric in ("linalg.gate.calls", "linalg.format.calls", "cost.eval.calls",
                   "harness.failures", "mcd.subsets.degenerate", "harness.kernel.s",
                   "groups.self_s", "cli.self_s"):
        assert totals[metric] > 0, metric
    # The session's seven calls are the only top-level spans.
    summary = tracer.summarize()
    assert summary["cli"]["calls"] == len(workload.argvs)
    saved = np.load(tmp_path / "spans.npz")
    assert len(saved["start"]) == sum(s["calls"] for s in summary.values())


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_prints_every_metric_in_the_benchmark_file():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, "--workload", "cli-session", "--seed", "3",
                    "--seconds", "0.3", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
        expected = {m["name"]: m["unit"] for m in bench[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
