import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from affinecost import harness
from affinecost.cost import (
    DET_COST,
    IDENTITY_COST,
    TRACE_COST,
    CostFunction,
    KernelSpec,
    cost_from_selector,
    factored_cost,
)
from affinecost.harness import (
    ALL_CHECKS,
    MAX_COUNTEREXAMPLES,
    TrialConfig,
    UnrecognizedKernelError,
    _trial_rngs,
    check,
    check_det_factorization,
    estimate_kernel,
    probe_scalar_surjectivity,
    run_all_checks,
    run_invariance_suite,
)
from affinecost.linalg import (
    SymPosDefMatrix,
    congruence,
    congruence_stack,
    parse_matrix,
    random_gl,
    random_gl_stack,
    random_orthogonal,
    random_orthogonal_stack,
    random_pd,
    random_pd_stack,
    random_sl,
)
from affinecost.rng import _seed_states, default_rngs

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
        # Refused before a sampler allocates an n x n stack.
        with pytest.raises(ValueError, match=r"dims must be in \[1, 64\]"):
            TrialConfig(dims=(2, 65))
        with pytest.raises(ValueError, match="trials"):
            TrialConfig(trials=0)
        for bad in (0.0, -1e-8, 1.0, 2.0, math.nan, math.inf):
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
        # Where f(M) != f(N) the guard counts exact agreement.
        assert report.checks[0].worst_discrepancy == 0.0


class TestIdentityControl:
    def test_implication_passes(self):
        cfg = TrialConfig(dims=(2, 3), trials=50, master_seed=11)
        report = check(IDENTITY_COST, cfg, "implication")
        assert report.verdict == "pass"
        assert report.checks[0].worst_discrepancy == 0.0

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
        for key, text in example.as_dict()["inputs"].items():
            matrix = parse_matrix(text)
            assert matrix.shape == (2, 2)
            assert matrix.tobytes() == example.inputs[key].tobytes()

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
            examples = [e.as_dict() for r in singles for e in r.counterexamples]
            assert [e.as_dict() for e in report.counterexamples] == examples

    def test_det_factorization_wrapper_matches_check(self):
        cfg = small_cfg(trials=5)
        for f in (DET_COST, IDENTITY_COST):
            wrapped, checked = check_det_factorization(f, cfg), check(f, cfg, "det_factorization")
            assert wrapped.as_dict() == checked.as_dict()
            assert wrapped.probe.as_dict() == checked.probe.as_dict()

    def test_unknown_check_name(self):
        with pytest.raises(ValueError, match="unknown check 'sqrt'"):
            check(DET_COST, small_cfg(), "sqrt")

    def test_suite_verdict_includes_probe(self):
        cfg = TrialConfig(dims=(2,), trials=10, master_seed=11)
        suite = run_invariance_suite(IDENTITY_COST, cfg)
        assert suite.verdict == "fail"
        assert suite.probe.as_dict()["covered_fraction"] == 0.0



# A scalar cost that is not congruence invariant: f(M) = f(N) holds on
# many SL-congruent pairs, and fails after a GL congruence, so even the
# implication check finds counterexamples.
CORNER_COST = CostFunction("corner", "corner",
                           lambda stack, log_dets: (stack[:, 0, 0] > 1.0).astype(float))

SUB_CHECKS = {
    "implication": ["implication"],
    "orthogonal": ["orthogonal"],
    "commutator": ["commutator"],
    "svd_collapse": ["svd_collapse"],
    "det_factorization": ["sl_conjugation", "scalar_collapse"],
}


class TestTrialFamily:
    @pytest.mark.parametrize("name", ALL_CHECKS)
    def test_check_reports_only_its_sub_checks(self, name):
        cfg = TrialConfig(dims=(2, 3), trials=20, master_seed=5)
        for f in (CORNER_COST, IDENTITY_COST):
            report = check(f, cfg, name)
            assert [c.name for c in report.checks] == SUB_CHECKS[name]
            assert {e.check_name for e in report.counterexamples} <= set(SUB_CHECKS[name])
        assert check(CORNER_COST, cfg, name).counterexamples

    @pytest.mark.parametrize("seed", [0, 41, 12345])
    def test_probe_is_scalar_collapse(self, seed):
        cfg = TrialConfig(dims=(1, 2, 3), trials=30, master_seed=seed)
        for f in (DET_COST, QDET_HALF, TRACE_COST, IDENTITY_COST):
            scalar = {c.name: c for c in check(f, cfg, "det_factorization").checks}
            probe = probe_scalar_surjectivity(f, cfg)
            assert probe.as_dict()["uncovered_count"] == scalar["scalar_collapse"].failures
            assert probe.samples == scalar["scalar_collapse"].trials_run
            suite = run_invariance_suite(f, cfg)
            assert suite.probe.as_dict() == probe.as_dict()
            assert suite.as_dict() == run_all_checks([f], cfg)[0].as_dict()

    def test_sub_checks_share_the_trial_family(self):
        # One stream per trial: the matrices a trial's sub-checks name are
        # the same draws.
        cfg = TrialConfig(dims=(2, 3), trials=10, master_seed=7)
        suite = run_invariance_suite(IDENTITY_COST, cfg)
        by_trial = {}
        for example in suite.counterexamples + suite.probe.uncovered:
            by_trial.setdefault((example.dim, example.trial), {})[example.check_name] = (
                example.inputs)
        shared = 0
        for found in by_trial.values():
            for first, second, key in [("orthogonal", "commutator", "A"),
                                       ("commutator", "svd_collapse", "A"),
                                       ("commutator", "svd_collapse", "B"),
                                       ("sl_conjugation", "scalar_collapse", "M"),
                                       ("scalar_collapse", "surjectivity", "M")]:
                if first in found and second in found:
                    assert found[first][key].tobytes() == found[second][key].tobytes()
                    shared += 1
        assert shared >= 10

    def test_counterexample_inputs_keep_their_keys(self):
        cfg = TrialConfig(dims=(2, 3), trials=20, master_seed=9)
        keys = {}
        for f in (CORNER_COST, IDENTITY_COST):
            suite = run_invariance_suite(f, cfg)
            for example in suite.counterexamples + suite.probe.uncovered:
                keys.setdefault(example.check_name, set()).add(tuple(sorted(example.inputs)))
        assert keys == {
            "implication": {("A", "M", "N")},
            "orthogonal": {("A", "Q")},
            "commutator": {("A", "B")},
            "svd_collapse": {("A", "B")},
            "sl_conjugation": {("M", "S")},
            "scalar_collapse": {("M", "sI")},
            "surjectivity": {("M",)},
        }

    def test_suite_and_kernel_gate_once_per_chunk(self, monkeypatch, capsys):
        from affinecost.cli import main

        calls = []

        def counted(stack):
            calls.append(stack.shape)
            return gate(stack)

        gate = harness.gate_pd
        monkeypatch.setattr(harness, "gate_pd", counted)
        # At n = 64 the family's 10 stacks fill a chunk with one trial, so
        # dims (1, 2, 64) at 3 trials make 1 + 1 + 3 chunks.
        cfg = TrialConfig(dims=(1, 2, 64), trials=3, master_seed=2)
        assert run_invariance_suite(QDET_HALF, cfg).verdict == "pass"
        assert len(calls) == 5
        calls.clear()
        argv = ["kernel", "--cost", "qdet:0.5", "--dims", "1,2,64", "--trials", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "Lattice a=0.500000\n"
        assert len(calls) == 5


STACK_DIMS = (1, 2, 3, 4, 5, 6, 8, 16, 64)
SELECTORS = ("det", "qdet:0.5", "qdet:1", "qdet:2", "trace", "identity")


class TestStackedEvaluation:
    @pytest.mark.parametrize("n", STACK_DIMS)
    def test_stack_of_one_is_a_slice(self, n):
        # Each one-matrix sampler is a stack of one over its stacked
        # builder, and every matrix of a stack has the bits of its own
        # stack of one: a matrix does not depend on its stack.
        samplers = [
            (random_pd, random_pd_stack),
            (random_gl, random_gl_stack),
            (random_sl, lambda n, rngs: random_gl_stack(n, rngs, unit_det=True)),
            (random_orthogonal, random_orthogonal_stack),
        ]
        for one, stacked in samplers:
            stack = stacked(n, _trial_rngs(5, n, range(7)))
            for t in range(7):
                single = one(n, _trial_rngs(5, n, (t,))[0]).entries
                assert single.tobytes() == stack[t].tobytes()
        ms = random_pd_stack(n, _trial_rngs(6, n, range(7)))
        gs = random_gl_stack(n, _trial_rngs(7, n, range(7)))
        stack = congruence_stack(ms, gs)
        for t in range(7):
            single = congruence(random_pd(n, _trial_rngs(6, n, (t,))[0]),
                                random_gl(n, _trial_rngs(7, n, (t,))[0]))
            assert single.entries.tobytes() == stack[t].tobytes()

    def test_reports_do_not_depend_on_chunking(self, monkeypatch):
        costs = [cost_from_selector(s) for s in SELECTORS]
        cfg = TrialConfig(dims=(1, 2, 3, 4, 5, 6, 64), trials=10, master_seed=3)
        default = harness.CHUNK_ENTRIES
        assert cfg.trials > default // 64**2, "n = 64 must span chunks at the default"
        bodies = []
        for chunk in (1, 7, default):
            monkeypatch.setattr(harness, "CHUNK_ENTRIES", chunk)
            reports = run_all_checks(costs, cfg)
            probes = [probe_scalar_surjectivity(f, cfg) for f in costs]
            bodies.append(json.dumps([[r.as_dict(), p.as_dict()]
                                      for r, p in zip(reports, probes)]))
        assert bodies[0] == bodies[1] == bodies[2]
        # The controls fail, so counterexamples took part in the comparison.
        assert '"counterexamples": [{' in bodies[0]

    def test_memory_bounded_by_chunk(self):
        # A pass holds about 11 stacks of at most CHUNK_ENTRIES entries;
        # unchunked, these 300 trials at n = 64 peaked near 80 MB.
        cfg = TrialConfig(dims=(64,), trials=300)
        tracemalloc.start()
        try:
            report = check(DET_COST, cfg, "implication")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdict == "pass"
        assert peak < 16 * 8 * harness.CHUNK_ENTRIES

    def test_memory_bounded_for_the_batched_pass(self):
        # Every check's stacks at a dimension share one chunk, sized by
        # the entries it scores over all of them.
        cfg = TrialConfig(dims=(64,), trials=300)
        tracemalloc.start()
        try:
            (report,) = run_all_checks([DET_COST], cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdict == "pass"
        assert peak < 16 * 8 * harness.CHUNK_ENTRIES

    def test_one_gate_and_one_seeding_pass_per_dimension(self, monkeypatch):
        # At these sizes each dimension is one chunk: every check's trials
        # are seeded together, and their stacks are gated and scored once.
        from affinecost import rng

        calls = {"gate": 0, "seed": 0, "values": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(harness, "gate_pd", counted("gate", harness.gate_pd))
        monkeypatch.setattr(rng, "default_rngs", counted("seed", rng.default_rngs))
        monkeypatch.setattr(CostFunction, "values", counted("values", CostFunction.values))
        costs = [DET_COST, QDET_HALF, TRACE_COST]
        cfg = TrialConfig(dims=(1, 2, 3), trials=10, master_seed=4)
        reports = run_all_checks(costs, cfg)
        assert calls == {"gate": 3, "seed": 3, "values": 3 * len(costs)}
        assert [r.verdict for r in reports] == ["pass", "pass", "fail"]

    @pytest.mark.parametrize("name", sorted(harness._CHECKS))
    def test_kinds_stage_the_stacks_they_declare(self, name):
        # Every check kind reads the one trial family: the chunk size counts
        # on the family's declared stacks per trial, and the family yields
        # every sub-check the kind reports.
        staged = []

        def stage(stack):
            staged.append(stack.shape)
            return slice(0, 0)

        rngs = _trial_rngs(1, 3, range(5))
        yielded = [sub[0] for sub in harness._trial_family(3, rngs, stage)]
        assert staged == [(5, 3, 3)] * harness.FAMILY_STACKS
        assert set(harness._CHECKS[name]) <= set(yielded)


def blake2b_key(master_seed, dim, trial) -> int:
    # A trial's 64-bit key, written out independently of the harness.
    text = f"{master_seed}|{dim}|{trial}".encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big")


EDGE_KEYS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


class TestTrialSeeding:
    def test_states_match_seed_sequence(self):
        keys = [blake2b_key(seed, dim, trial)
                for seed in (0, 41, 12345) for dim in range(1, 65) for trial in range(60)]
        assert len(keys) >= 10_000
        # Keys below 2**32 have one 32-bit word; they share the batch with
        # keys of two.
        keys[5000:5000] = EDGE_KEYS
        states = _seed_states(np.array(keys, dtype=np.uint64))
        for key, row in zip(keys, states):
            expected = np.random.SeedSequence(key).generate_state(4, np.uint64)
            assert row.tobytes() == expected.tobytes(), key

    def test_rows_are_contiguous_uint64_words(self):
        # PCG64 reads the four words of a row from its memory directly.
        states = _seed_states(np.array(EDGE_KEYS, dtype=np.uint64))
        assert states.shape == (len(EDGE_KEYS), 4)
        for row in states:
            assert row.dtype == np.uint64
            assert row.shape == (4,)
            assert row.flags.c_contiguous

    def test_edge_keys_match_default_rng(self):
        for key, rng in zip(EDGE_KEYS, default_rngs(EDGE_KEYS)):
            reference = np.random.default_rng(key)
            assert rng.bit_generator.state == reference.bit_generator.state
            assert rng.standard_normal(9).tobytes() == reference.standard_normal(9).tobytes()

    @pytest.mark.parametrize("seed, dim", [(0, 1), (41, 6), (12345, 64)])
    def test_generators_match_default_rng(self, seed, dim):
        for trial, rng in enumerate(_trial_rngs(seed, dim, range(40))):
            reference = np.random.default_rng(blake2b_key(seed, dim, trial))
            assert rng.bit_generator.state == reference.bit_generator.state
            for draw in (lambda g: g.standard_normal(9), lambda g: g.uniform(-1.7, 1.7, 5),
                         lambda g: g.random(3)):
                assert draw(rng).tobytes() == draw(reference).tobytes()

    def test_chunk_matches_one_by_one(self):
        chunk = _trial_rngs(7, 3, range(5, 40))
        for trial, rng in zip(range(5, 40), chunk):
            single = _trial_rngs(7, 3, (trial,))[0]
            assert rng.bit_generator.state == single.bit_generator.state
            assert rng.standard_normal(4).tobytes() == single.standard_normal(4).tobytes()

    def test_sweep_builds_one_generator_per_trial(self, monkeypatch):
        # Every trial stream comes from the batched seed states; the
        # harness never seeds through default_rng.
        built = []
        generator = np.random.Generator

        def counting(bit_generator):
            built.append(1)
            return generator(bit_generator)

        def refused(seed=None):
            raise AssertionError("default_rng called")

        monkeypatch.setattr(np.random, "Generator", counting)
        monkeypatch.setattr(np.random, "default_rng", refused)
        cfg = TrialConfig(dims=(1, 2, 3, 4, 5, 6), trials=100, master_seed=2026)
        reports = run_all_checks([DET_COST, QDET_HALF, QDET_ONE, QDET_TWO], cfg)
        assert all(r.verdict == "pass" for r in reports)
        # One stream per trial, shared by every check.
        assert len(built) == 6 * 100

    def test_commands_that_draw_nothing_leave_numpy_random_unloaded(self, tmp_path):
        # The seeding module and numpy.random load on the first draw only.
        points = tmp_path / "points.csv"
        points.write_text("0\n0.1\n0.2\n10\n")
        script = (
            "import sys\n"
            "from affinecost.cli import main\n"
            f"assert main(['mcd', '--input', {str(points)!r}, '--h', '3']) == 0\n"
            "assert 'numpy.random' not in sys.modules\n"
            "assert 'affinecost.rng' not in sys.modules\n"
        )
        src = os.path.dirname(os.path.dirname(harness.__file__))
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert result.returncode == 0, result.stderr
