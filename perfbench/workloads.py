"""The benchmark's three workloads.

Each workload builds its inputs from the benchmark seed, then runs
operations of one fixed shape: `run(i)` is the timed operation on the
i-th entry of a seeded schedule (entries repeat cyclically), `collect`
turns its result into a record outside the timed region, and `check`
compares every record against the independent answers in `oracle`.
Library functions are looked up on their modules at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from affinecost import cli, harness, mcd
from affinecost.cost import DET_COST, cost_from_selector
from affinecost.linalg import format_matrix

import oracle

# Seeded entries per schedule; operation i uses entry i % SCHEDULE_LEN.
SCHEDULE_LEN = 8
REL_TOL = 1e-8


class Sweep:
    """Acceptance criterion 1 in miniature: all five identity checks for
    the four factoring costs over shared samples, one master seed per
    operation. Unit of work: one trial-check, that is one trial of one
    sub-check for one cost in one dimension."""

    name = "sweep"
    COSTS = ("det", "qdet:0.5", "qdet:1", "qdet:2")
    DIMS = (1, 2, 3, 4, 5, 6)
    TRIALS = 100
    SUB_CHECKS = ("implication", "orthogonal", "commutator", "svd_collapse",
                  "sl_conjugation", "scalar_collapse")

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 1])
        self.seeds = [int(s) for s in rng.integers(0, 2**31, SCHEDULE_LEN)]
        self.costs = [cost_from_selector(s) for s in self.COSTS]
        self.work_per_op = len(self.COSTS) * len(self.DIMS) * self.TRIALS * len(self.SUB_CHECKS)

    def run(self, i: int):
        cfg = harness.TrialConfig(dims=self.DIMS, trials=self.TRIALS,
                                  master_seed=self.seeds[i % SCHEDULE_LEN], rel_tol=REL_TOL)
        return harness.run_all_checks(self.costs, cfg)

    def collect(self, i: int, reports) -> dict:
        return {"op": i, "reports": [r.as_dict() for r in reports]}

    def check(self, records) -> list:
        errors = []
        for record in records:
            names = [r["cost"] for r in record["reports"]]
            if names != list(self.COSTS):
                errors.append(f"op {record['op']}: reports for {names}")
            for report in record["reports"]:
                errors.extend(self._check_report(record["op"], report))
        return errors

    def _check_report(self, op: int, report: dict) -> list:
        where = f"op {op} cost {report['cost']}"
        errors = []
        if report["verdict"] != "pass" or report["counterexamples"]:
            errors.append(f"{where}: verdict {report['verdict']}")
        if sorted(c["name"] for c in report["checks"]) != sorted(self.SUB_CHECKS):
            errors.append(f"{where}: sub-checks {[c['name'] for c in report['checks']]}")
        expected_runs = self.TRIALS * len(self.DIMS)
        for c in report["checks"]:
            if c["trials_run"] != expected_runs or c["failures"] != 0:
                errors.append(f"{where} {c['name']}: {c['trials_run']} trials, "
                              f"{c['failures']} failures")
            if not c["worst_discrepancy"] <= REL_TOL:
                errors.append(f"{where} {c['name']}: discrepancy {c['worst_discrepancy']:.3e}")
        return errors


class Mcd:
    """Exhaustive MCD with the determinant cost on seeded datasets of
    Gaussian inliers plus a distant cluster of planted outliers at random
    positions in index order. Unit of work: one of the C(K, H) subsets of
    an estimate, whether or not the estimator scores it."""

    name = "mcd"
    # H = (K + N + 1) // 2, the subset size of highest breakdown point.
    K, H, N = 17, 10, 3
    OUTLIERS = 4
    # The exact argmin must exclude every planted outlier. Over 150 seeded
    # datasets the best subset holding an outlier had at least 2**4.5 times
    # the determinant of the best inlier-only one at distance 100, but only
    # 2**0.7 times at distance 25, where 1 of 960 datasets failed.
    OUTLIER_DISTANCE = 100.0
    OUTLIER_SPREAD = 0.5

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 2])
        self.work_per_op = math.comb(self.K, self.H)
        self.points, self.outliers, self.datasets = [], [], []
        for _ in range(SCHEDULE_LEN):
            inliers = rng.standard_normal((self.K - self.OUTLIERS, self.N))
            direction = rng.standard_normal(self.N)
            center = self.OUTLIER_DISTANCE * direction / np.linalg.norm(direction)
            cluster = center + self.OUTLIER_SPREAD * rng.standard_normal((self.OUTLIERS, self.N))
            order = rng.permutation(self.K)
            points = np.empty((self.K, self.N))
            points[order] = np.vstack([inliers, cluster])
            self.points.append(points)
            self.outliers.append(tuple(sorted(int(j) for j in order[-self.OUTLIERS:])))
            self.datasets.append(mcd.Dataset(points))

    def run(self, i: int):
        return mcd.mcd_estimate(self.datasets[i % SCHEDULE_LEN], self.H, DET_COST)

    def collect(self, i: int, result) -> dict:
        return {"op": i, "subset": result.subset, "mean": result.mean,
                "cost": result.cost_value.canonical}

    def check(self, records) -> list:
        errors = []
        verdicts: dict = {}
        for record in records:
            entry = record["op"] % SCHEDULE_LEN
            key = (entry, record["subset"], tuple(record["mean"]), record["cost"])
            if key not in verdicts:
                verdicts[key] = oracle.check_mcd(
                    self.points[entry], self.H, record["subset"], record["mean"],
                    record["cost"], outliers=self.outliers[entry])
            errors.extend(f"op {record['op']}: {e}" for e in verdicts[key])
        return errors


class CliSession:
    """One fixed session of seven in-process `affinecost` CLI calls that
    write to --output files: the fail and refusal paths of check and
    kernel, MCD with a folded non-monotone cost on data with duplicate and
    collinear points, decompose and commutator. Unit of work: one call."""

    name = "cli-session"
    DIMS = "1..3"
    TRIALS = "10"
    MCD_H = 5
    EXPECTED_CODES = (1, 1, 0, 2, 0, 0, 0)
    OUTPUTS = ("check-trace.json", "check-identity.json", "kernel-qdet.json",
               "kernel-identity.txt", "mcd-qdet.json", "decompose.txt", "commutator.txt")

    def __init__(self, seed: int, workdir: str):
        rng = np.random.default_rng([seed, 3])
        check_seed = str(int(rng.integers(0, 2**31)))
        self.points = self._mcd_points(rng)
        self.matrix = self._sl3(rng)
        pairs = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3) if i != j]
        self.i, self.j = pairs[int(rng.integers(len(pairs)))]
        self.lam = float(rng.uniform(-5.0, 5.0))
        csv_path = os.path.join(workdir, "points.csv")
        with open(csv_path, "w") as handle:
            handle.write("x,y\n")
            handle.writelines(f"{x:.17g},{y:.17g}\n" for x, y in self.points)
        matrix_path = os.path.join(workdir, "sl3.txt")
        with open(matrix_path, "w") as handle:
            handle.write(format_matrix(self.matrix))
        out = [os.path.join(workdir, name) for name in self.OUTPUTS]
        trials = ["--dims", self.DIMS, "--trials", self.TRIALS, "--seed", check_seed]
        self.outputs = out
        self.argvs = [
            ["check", "--cost", "trace", *trials, "--output", out[0]],
            ["check", "--cost", "identity", *trials, "--output", out[1]],
            ["kernel", "--cost", "qdet:0.5", *trials, "--format", "json", "--output", out[2]],
            ["kernel", "--cost", "identity", *trials, "--output", out[3]],
            ["mcd", "--cost", "qdet:1", "--input", csv_path, "--h", str(self.MCD_H),
             "--output", out[4]],
            ["decompose", "--input", matrix_path, "--output", out[5]],
            ["commutator", "--n", "3", "--i", str(self.i), "--j", str(self.j),
             "--lambda", f"{self.lam:.17g}", "--output", out[6]],
        ]
        self.work_per_op = len(self.argvs)

    @staticmethod
    def _mcd_points(rng) -> np.ndarray:
        """Three Gaussian points and five points on the line y = x/2 + 1,
        with every Gaussian point and two line points stored twice in
        adjacent rows; blocks are shuffled. Line coordinates are dyadic,
        so the line points are exactly collinear."""
        gaussian = [2.0 * rng.standard_normal(2) for _ in range(3)]
        xs = rng.choice(np.arange(-16, 17), size=5, replace=False) / 4.0
        line = [np.array([x, x / 2.0 + 1.0]) for x in xs]
        blocks = [[p, p.copy()] for p in gaussian]
        blocks += [[p, p.copy()] for p in line[:2]] + [[p] for p in line[2:]]
        order = rng.permutation(len(blocks))
        return np.array([p for b in order for p in blocks[b]])

    @staticmethod
    def _sl3(rng) -> np.ndarray:
        """Seeded determinant-one 3x3 matrix with condition number <= 30,
        inside the library's invertibility gate."""
        while True:
            g = rng.standard_normal((3, 3))
            g[:, 0] /= np.linalg.det(g)
            s = np.linalg.svd(g, compute_uv=False)
            if s[0] / s[-1] <= 30.0:
                return g

    def run(self, i: int):
        codes, errs = [], []
        with redirect_stdout(io.StringIO()):
            for argv in self.argvs:
                err = io.StringIO()
                with redirect_stderr(err):
                    codes.append(cli.main(argv))
                errs.append(err.getvalue())
        return codes, errs

    def collect(self, i: int, result) -> dict:
        codes, errs = result
        files = []
        for path in self.outputs:
            if os.path.exists(path):
                with open(path, "rb") as handle:
                    files.append(handle.read())
                os.remove(path)
            else:
                files.append(None)
        return {"op": i, "codes": tuple(codes), "stderr": tuple(errs), "files": tuple(files)}

    def check(self, records) -> list:
        first = records[0]
        errors = self.check_session(first)
        for record in records[1:]:
            if (record["codes"], record["stderr"], record["files"]) != (
                    first["codes"], first["stderr"], first["files"]):
                errors.append(f"op {record['op']}: output differs from op {first['op']}")
        return errors

    def check_session(self, record) -> list:
        """Errors in one session's exit codes, diagnostics and reports."""
        codes, errs, files = record["codes"], record["stderr"], record["files"]
        if codes != self.EXPECTED_CODES:
            return [f"exit codes {codes}, expected {self.EXPECTED_CODES}"]
        if any(f is None for i, f in enumerate(files) if i != 3):
            return ["a report file is missing"]
        errors = []
        errors += oracle.check_trace_report(json.loads(files[0]))
        errors += oracle.check_identity_report(json.loads(files[1]))
        errors += oracle.check_lattice(json.loads(files[2]), 0.5)
        if files[3] is not None or errs[3].count("\n") != 1 or not errs[3].strip():
            errors.append(f"kernel identity refusal: report {files[3]!r}, stderr {errs[3]!r}")
        report = json.loads(files[4])
        errors += oracle.check_mcd(self.points, self.MCD_H, report["subset"],
                                   np.array(report["mean"]), report["cost"], lattice_a=1.0)
        errors += oracle.check_factors(files[5].decode(), self.matrix)
        errors += oracle.check_commutator(files[6].decode(), 3, self.i, self.j, self.lam)
        return errors


WORKLOADS = {w.name: w for w in (Sweep, Mcd, CliSession)}
