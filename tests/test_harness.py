import json
import math

import pytest

from affinecost.cost import DET_COST, IDENTITY_COST, TRACE_COST, KernelSpec, factored_cost
from affinecost.harness import (
    ALL_CHECKS,
    MAX_COUNTEREXAMPLES,
    TrialConfig,
    UnrecognizedKernelError,
    check,
    check_det_factorization,
    estimate_kernel,
    probe_scalar_surjectivity,
    run_all_checks,
    run_invariance_suite,
)
from affinecost.linalg import SymPosDefMatrix, parse_matrix

QDET_HALF = factored_cost(KernelSpec.lattice(0.5))
QDET_ONE = factored_cost(KernelSpec.lattice(1.0))
QDET_TWO = factored_cost(KernelSpec.lattice(2.0))


def small_cfg(**overrides):
    base = dict(dims=(1, 2, 3, 4), trials=50, master_seed=11)
    base.update(overrides)
    return TrialConfig(**base)


class TestTrialConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="dims"):
            TrialConfig(dims=())
        with pytest.raises(ValueError, match="dims"):
            TrialConfig(dims=(0,))
        with pytest.raises(ValueError, match="trials"):
            TrialConfig(trials=0)
        for bad in (0.0, -1e-8, math.nan, math.inf):
            with pytest.raises(ValueError, match="rel_tol"):
                TrialConfig(rel_tol=bad)


class TestFactoringCostsPass:
    @pytest.mark.parametrize("cost", [DET_COST, QDET_HALF, QDET_ONE, QDET_TWO],
                             ids=lambda c: c.name)
    def test_all_checks_zero_failures(self, cost):
        cfg = small_cfg()
        for name in ALL_CHECKS:
            report = check(cost, cfg, name)
            assert report.verdict == "pass"
            assert all(c.failures == 0 for c in report.checks)

    def test_surjectivity_fully_covered(self):
        for cost in (DET_COST, QDET_ONE):
            probe = probe_scalar_surjectivity(cost, small_cfg())
            assert probe.covered_fraction == 1.0
            assert probe.uncovered == ()


class TestTraceControl:
    def test_orthogonal_conjugation_alone_cannot_reject(self):
        report = check(TRACE_COST, small_cfg(), "orthogonal")
        assert report.verdict == "pass"

    def test_commutator_counterexample_within_100_trials(self):
        cfg = TrialConfig(dims=(2,), trials=100, master_seed=11)
        report = check(TRACE_COST, cfg, "commutator")
        assert report.checks[0].failures >= 1
        assert report.counterexamples
        first = report.counterexamples[0]
        assert set(first.inputs) == {"A", "B"}

    def test_svd_collapse_counterexample_within_100_trials(self):
        cfg = TrialConfig(dims=(2,), trials=100, master_seed=11)
        report = check(TRACE_COST, cfg, "svd_collapse")
        assert report.checks[0].failures >= 1

    def test_implication_vacuous_pairs_pass(self):
        report = check(TRACE_COST, small_cfg(), "implication")
        assert report.verdict == "pass"


class TestIdentityControl:
    def test_implication_passes(self):
        cfg = TrialConfig(dims=(2, 3), trials=50, master_seed=11)
        report = check(IDENTITY_COST, cfg, "implication")
        assert report.verdict == "pass"

    def test_scalar_collapse_fails_first_nonscalar_sample(self):
        cfg = TrialConfig(dims=(2,), trials=5, master_seed=11)
        report = check(IDENTITY_COST, cfg, "det_factorization")
        by_name = {c.name: c for c in report.checks}
        assert by_name["scalar_collapse"].failures == 5
        first = [c for c in report.counterexamples if c.check_name == "scalar_collapse"][0]
        assert first.trial == 0

    def test_probe_covers_nothing_nonscalar(self):
        cfg = TrialConfig(dims=(2, 3), trials=50, master_seed=11)
        probe = probe_scalar_surjectivity(IDENTITY_COST, cfg)
        assert probe.covered_fraction == 0.0
        assert len(probe.uncovered) == MAX_COUNTEREXAMPLES
        assert probe.as_dict()["uncovered_count"] == probe.samples == 100
        # The trace matches the solved scalar only on 1x1 matrices: for
        # n > 1, AM-GM gives tr(M) > n * det(M)**(1/n) unless M is scalar.
        cfg = TrialConfig(dims=(1, 2, 3), trials=50, master_seed=11)
        probe = probe_scalar_surjectivity(TRACE_COST, cfg)
        assert probe.covered_fraction == 1 / 3
        assert all(c.dim > 1 for c in probe.uncovered)


class TestKernelEstimation:
    def test_trivial_for_det(self):
        est = estimate_kernel(DET_COST, small_cfg())
        assert est.variant_guess == "trivial"
        assert est.a_estimate is None
        assert est.matched_grid_points == 0

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_lattice_recovered_within_1e6(self, a):
        est = estimate_kernel(factored_cost(KernelSpec.lattice(a)), small_cfg())
        assert est.variant_guess == "lattice"
        assert abs(est.a_estimate - a) <= 1e-6

    def test_nondyadic_lattice_via_bisection(self):
        est = estimate_kernel(factored_cost(KernelSpec.lattice(0.3)), small_cfg())
        assert est.variant_guess == "lattice"
        assert abs(est.a_estimate - 0.3) <= 5e-5

    def test_identity_cost_refused(self):
        with pytest.raises(UnrecognizedKernelError):
            estimate_kernel(IDENTITY_COST, small_cfg())

    def test_trace_cost_refused(self):
        # The trace agrees with the determinant on 1x1 matrices only; a
        # scan must not read a kernel off it.
        with pytest.raises(UnrecognizedKernelError, match="does not factor"):
            estimate_kernel(TRACE_COST, small_cfg(dims=(1,)))

    def test_scan_builds_no_matrix(self, monkeypatch):
        built = []
        gate = SymPosDefMatrix.__post_init__

        def counting_gate(self):
            built.append(1)
            gate(self)

        monkeypatch.setattr(SymPosDefMatrix, "__post_init__", counting_gate)
        for f in (DET_COST, QDET_HALF, factored_cost(KernelSpec.lattice(0.3))):
            estimate_kernel(f, small_cfg())
        assert built == []

    def test_scan_ignores_dims(self):
        f = factored_cost(KernelSpec.lattice(0.3))
        low = estimate_kernel(f, small_cfg(dims=(1,)))
        high = estimate_kernel(f, small_cfg(dims=(6,)))
        assert low.a_estimate == high.a_estimate

    @pytest.mark.parametrize("a", [5.0, 8.0])
    def test_constant_past_scan_refused(self, a):
        # No kernel point in (1, 16], but the fold lifts f(1/16) above f(1).
        with pytest.raises(UnrecognizedKernelError, match="past the scan"):
            estimate_kernel(factored_cost(KernelSpec.lattice(a)), small_cfg())

    @pytest.mark.parametrize("a", [1e-9, 1e-7, 1e-6, 6.3e-5])
    def test_constant_below_resolution_refused(self, a):
        # Such lattices alias onto the grid's dyadic spacing.
        with pytest.raises(UnrecognizedKernelError, match="below the scan's resolution"):
            estimate_kernel(factored_cost(KernelSpec.lattice(a)), small_cfg())

    def test_refusal_lists_a_few_points(self):
        with pytest.raises(UnrecognizedKernelError) as info:
            estimate_kernel(factored_cost(KernelSpec.lattice(0.002)), small_cfg())
        assert len(str(info.value)) < 200
        assert str(info.value).startswith("2000 kernel points [0.00200003, ")
        assert ", ...] are not the multiples" in str(info.value)


class TestReports:
    def test_verdict_reflects_failures(self):
        ok = check(DET_COST, small_cfg(), "orthogonal")
        bad = check(TRACE_COST, small_cfg(dims=(2,), trials=20), "commutator")
        assert ok.verdict == "pass"
        assert bad.verdict == "fail"

    def test_counterexample_inputs_round_trip(self):
        cfg = TrialConfig(dims=(2,), trials=20, master_seed=3)
        report = check(TRACE_COST, cfg, "commutator")
        example = report.counterexamples[0]
        for text in example.inputs.values():
            matrix = parse_matrix(text)
            assert matrix.shape == (2, 2)

    def test_reports_deterministic(self):
        cfg = small_cfg(trials=20)
        first = run_invariance_suite(QDET_ONE, cfg).as_dict()
        second = run_invariance_suite(QDET_ONE, cfg).as_dict()
        assert json.dumps(first) == json.dumps(second)

    def test_seed_changes_streams(self):
        a = check(DET_COST, small_cfg(trials=5), "orthogonal").checks[0]
        b = check(DET_COST, small_cfg(trials=5, master_seed=12), "orthogonal").checks[0]
        assert a.worst_discrepancy != b.worst_discrepancy

    def test_multi_cost_runner_matches_single(self):
        cfg = small_cfg(trials=15)
        costs = [DET_COST, QDET_HALF, TRACE_COST]
        merged = run_all_checks(costs, cfg)
        for f, report in zip(costs, merged):
            singles = [check(f, cfg, name) for name in ALL_CHECKS]
            expected = tuple(c for r in singles for c in r.checks)
            assert report.checks == expected
            examples = tuple(e for r in singles for e in r.counterexamples)
            assert report.counterexamples == examples

    def test_det_factorization_wrapper_matches_check(self):
        cfg = small_cfg(trials=5)
        for f in (DET_COST, IDENTITY_COST):
            assert check_det_factorization(f, cfg) == check(f, cfg, "det_factorization")

    def test_unknown_check_name(self):
        with pytest.raises(ValueError, match="unknown check 'sqrt'"):
            check(DET_COST, small_cfg(), "sqrt")

    def test_suite_verdict_includes_probe(self):
        cfg = TrialConfig(dims=(2,), trials=10, master_seed=11)
        suite = run_invariance_suite(IDENTITY_COST, cfg)
        assert suite.verdict == "fail"
        body = suite.as_dict()
        assert body["surjectivity"]["covered_fraction"] == 0.0
