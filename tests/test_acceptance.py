"""Acceptance suite: every release gate in one module.

Each test prints one [criterion N] PASS/FAIL line (visible with -s or in
captured output). Tolerances are pinned here, not configured elsewhere.
"""

import json
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from affinecost.cli import main as cli_main
from affinecost.cost import (
    COST_REL_TOL,
    DET_COST,
    IDENTITY_COST,
    TRACE_COST,
    KernelSpec,
    factored_cost,
)
from affinecost.groups import (
    decompose_sl,
    elementary,
    elementary_as_commutator,
    kernel_membership,
    reconstruct_factors,
)
from affinecost.harness import (
    TrialConfig,
    check,
    estimate_kernel,
    probe_scalar_surjectivity,
    run_all_checks,
)
from affinecost.linalg import InvertibleMatrix, format_matrix, random_gl, random_sl
from affinecost.mcd import Dataset, check_equivariance, mcd_estimate, subset_covariance

from _oracles import brute_force_mcd
from test_mcd import (
    CLUSTER_2D,
    ONE_D_FIXTURE,
    TRACE_FLIP_A,
    TRACE_FLIP_B,
    TRACE_FLIP_H,
    TRACE_FLIP_POINTS,
)

MASTER_SEED = 20260808
FACTORED_COSTS = [
    DET_COST,
    factored_cost(KernelSpec.lattice(0.5)),
    factored_cost(KernelSpec.lattice(1.0)),
    factored_cost(KernelSpec.lattice(2.0)),
]


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[criterion {number}] {description}: FAIL")
        raise
    print(f"[criterion {number}] {description}: PASS")


def test_criterion_1_invariance_suite():
    with criterion(1, "factoring costs pass all five identity checks"):
        cfg = TrialConfig(dims=(1, 2, 3, 4, 5, 6), trials=1000,
                          master_seed=MASTER_SEED, rel_tol=1e-8)
        started = time.perf_counter()
        reports = run_all_checks(FACTORED_COSTS, cfg)
        elapsed = time.perf_counter() - started
        for report in reports:
            names = {c.name for c in report.checks}
            assert names == {"implication", "orthogonal", "commutator",
                             "svd_collapse", "sl_conjugation", "scalar_collapse"}
            for check in report.checks:
                assert check.failures == 0, (report.cost_name, check)
                assert check.trials_run == 6000
            assert report.verdict == "pass"
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s, budget is 60s"


def test_criterion_2_counterexample_power():
    with criterion(2, "controls fail exactly where they must"):
        trace_cfg = TrialConfig(dims=(2, 3), trials=100, master_seed=MASTER_SEED)
        trace_report = check(TRACE_COST, trace_cfg, "commutator")
        assert trace_report.checks[0].failures >= 1
        assert trace_report.counterexamples, "counterexample must be recorded"
        assert set(trace_report.counterexamples[0].inputs) == {"A", "B"}

        ident_cfg = TrialConfig(dims=(2,), trials=10, master_seed=MASTER_SEED)
        ident_report = check(IDENTITY_COST, ident_cfg, "det_factorization")
        by_name = {c.name: c for c in ident_report.checks}
        assert by_name["scalar_collapse"].failures == by_name["scalar_collapse"].trials_run
        first = [c for c in ident_report.counterexamples
                 if c.check_name == "scalar_collapse"][0]
        assert first.trial == 0, "first non-scalar sample must already fail"

        probe_cfg = TrialConfig(dims=(2, 3), trials=100, master_seed=MASTER_SEED)
        probe = probe_scalar_surjectivity(IDENTITY_COST, probe_cfg)
        assert probe.covered_fraction == 0.0


def test_criterion_3_kernel_recovery():
    with criterion(3, "kernel estimation recovers trivial and lattice kernels"):
        cfg = TrialConfig(dims=(2,), trials=10, master_seed=MASTER_SEED)
        assert estimate_kernel(DET_COST, cfg).variant_guess == "trivial"
        for a in (0.5, 1.0, 2.0):
            estimate = estimate_kernel(factored_cost(KernelSpec.lattice(a)), cfg)
            assert estimate.variant_guess == "lattice"
            assert abs(estimate.a_estimate - a) <= 1e-6, (a, estimate)


def test_criterion_4_commutator_witnesses():
    with criterion(4, "elementary matrices realized as commutators to 1e-12"):
        for n in (2, 3, 4):
            for row in range(n):
                for col in range(n):
                    if row == col:
                        continue
                    for lam in (-2.0, -1.0, 0.5, 1.0, 3.0):
                        pair = elementary_as_commutator(n, row, col, lam)
                        target = elementary(n, row, col, lam)
                        err = np.abs(pair.realize().entries - target.entries).max()
                        assert err <= 1e-12, (n, row, col, lam, err)


def test_criterion_5_sl_generation():
    with criterion(5, "200 random det-1 matrices reconstruct from elementary factors"):
        count = 0
        for n in (2, 3, 4, 5):
            for rep in range(50):
                S = random_sl(n, MASTER_SEED + 100 * n + rep)
                factors = decompose_sl(S)
                rec = reconstruct_factors(factors, n)
                rel = np.linalg.norm(rec - S.entries) / np.linalg.norm(S.entries)
                assert rel <= 1e-8, (n, rep, rel)
                count += 1
        assert count == 200


def test_criterion_6_kernel_subgroup():
    with criterion(6, "500 det-1 samples and det=-1 twists are kernel members"):
        count = 0
        for n in (1, 2, 3, 4, 5):
            twist = np.diag([-1.0] + [1.0] * (n - 1))
            for rep in range(100):
                S = random_sl(n, MASTER_SEED + 1000 * n + rep)
                twisted = InvertibleMatrix(twist @ S.entries)
                for f in FACTORED_COSTS:
                    assert kernel_membership(S, f), (n, rep, f.name)
                    assert kernel_membership(twisted, f), (n, rep, f.name, "twisted")
                count += 1
        assert count == 500


def test_criterion_7_mcd_fixtures():
    with criterion(7, "MCD fixtures match the exhaustive oracle"):
        result = mcd_estimate(ONE_D_FIXTURE, 3, DET_COST)
        subset, _, mean = brute_force_mcd(ONE_D_FIXTURE.points.tolist(), 3)
        assert result.subset == subset == (0, 1, 2)
        assert result.mean == pytest.approx(mean)
        assert result.mean == pytest.approx([0.1])

        result2 = mcd_estimate(CLUSTER_2D, 3, DET_COST)
        subset2, _, _ = brute_force_mcd(CLUSTER_2D.points.tolist(), 3)
        assert result2.subset == subset2 == (0, 1, 2)


def _stable_relative_gap(dataset, h, f):
    """Best-to-runner-up relative cost gap, or None when the trial is
    unusable: a subset whose covariance sits near the positive
    definiteness gate (eigenvalue ratio below 1e-7) can flip between
    eligible and degenerate under a capped transform (condition number at
    most 30, moving the ratio by at most a factor of 900), which changes
    the candidate set rather than the argmin."""
    costs = []
    for subset in combinations(range(dataset.k), h):
        rows = dataset.points[list(subset)]
        centered = rows - rows.mean(axis=0)
        cov = centered.T @ centered / h
        w = np.linalg.eigvalsh((cov + cov.T) / 2.0)
        if w[0] <= 1e-7 * w[-1]:
            return None
        costs.append(f(subset_covariance(dataset, subset)).canonical)
    costs.sort()
    if len(costs) < 2:
        return 0.0
    best, runner_up = costs[0], costs[1]
    return (runner_up - best) / max(1.0, abs(best), abs(runner_up))


def test_criterion_8_affine_equivariance():
    with criterion(8, "det-cost estimates commute with affine maps"):
        rng = np.random.default_rng(MASTER_SEED)
        accepted = 0
        attempts = 0
        while accepted < 200 and attempts < 1000:
            attempts += 1
            n = int(rng.integers(2, 4))
            k = int(rng.integers(n + 3, 11))
            h = int(rng.integers(n + 1, k))
            data = Dataset(rng.standard_normal((k, n)))
            # Tie-gap guard: relative gaps are preserved by the uniform
            # det(A)^2 scaling, so ambiguity is decided on the original.
            gap = _stable_relative_gap(data, h, DET_COST)
            if gap is None or gap <= 10.0 * COST_REL_TOL:
                continue
            A = random_gl(n, int(rng.integers(0, 2**31)))
            b = rng.standard_normal(n)
            chk = check_equivariance(data, h, A, b, DET_COST, rel_tol=1e-8)
            assert chk.subsets_agree, (attempts, n, k, h)
            assert chk.equivariant, (attempts, n, k, h, chk.lhs, chk.rhs)
            accepted += 1
        assert accepted == 200, f"only {accepted} trials passed the gap guard"

        flip = check_equivariance(Dataset(TRACE_FLIP_POINTS), TRACE_FLIP_H,
                                  InvertibleMatrix(TRACE_FLIP_A), TRACE_FLIP_B,
                                  TRACE_COST)
        assert not flip.subsets_agree
        assert not flip.equivariant


def test_criterion_9_cli_determinism(tmp_path, capsys):
    with criterion(9, "identical CLI flags give byte-identical reports"):
        csv_path = tmp_path / "points.csv"
        csv_path.write_text("0\n0.1\n0.2\n10\n")
        matrix_path = tmp_path / "sl4.txt"
        matrix_path.write_text(format_matrix(random_sl(4, MASTER_SEED).entries))
        commands = [
            ["check", "--cost", "det", "--dims", "1,2,3", "--trials", "50", "--seed", "3"],
            ["check", "--cost", "qdet:0.5", "--dims", "2", "--trials", "50",
             "--seed", "3", "--format", "text"],
            ["kernel", "--cost", "qdet:2", "--dims", "2", "--trials", "20"],
            ["mcd", "--input", str(csv_path), "--h", "3"],
            ["decompose", "--input", str(matrix_path)],
            ["commutator", "--n", "3", "--i", "1", "--j", "2", "--lambda", "2.5"],
        ]
        for argv in commands:
            code_a = cli_main(argv)
            first = capsys.readouterr()
            code_b = cli_main(argv)
            second = capsys.readouterr()
            assert code_a == code_b
            assert first.out == second.out, argv
            assert first.err == second.err, argv
            if argv[0] == "check":
                assert code_a == 0

        # JSON reports are valid and carry the echoed seed.
        cli_main(["check", "--cost", "det", "--dims", "2", "--trials", "10", "--seed", "3"])
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 3


# Dimensions of the tolerance table (README, "Numerical conventions").
TOLERANCE_DIMS = (1, 2, 3, 4, 5, 6, 8, 12, 16, 32, 64)


def test_criterion_10_tolerance_against_dimension():
    with criterion(10, "worst discrepancies at the sampler cap stay within 1e-8 to n = 64"):
        costs = FACTORED_COSTS[:2]  # det and qdet:0.5
        for n in TOLERANCE_DIMS:
            cfg = TrialConfig(dims=(n,), trials=20, master_seed=MASTER_SEED)
            det_report, qdet_report = run_all_checks(costs, cfg)
            cells = []
            for det_check, qdet_check in zip(det_report.checks, qdet_report.checks):
                for result in (det_check, qdet_check):
                    assert result.failures == 0, (n, result)
                    assert result.worst_discrepancy <= COST_REL_TOL, (n, result)
                cells.append(f"{det_check.name} {det_check.worst_discrepancy:.1e}"
                             f" / {qdet_check.worst_discrepancy:.1e}")
            print(f"n = {n}: " + ", ".join(cells))
