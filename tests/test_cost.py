import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from affinecost.cost import (
    COST_REL_TOL,
    DET_COST,
    CostValue,
    KernelSpec,
    cost_from_selector,
    cost_value_discrepancy,
    cost_values_match,
    det_cost,
    factored_cost,
    identity_cost,
    quantize_log2_det,
    quantized_det_cost,
    trace_cost,
)
from affinecost.linalg import (
    InvertibleMatrix,
    SymPosDefMatrix,
    congruence,
    log_det,
    random_pd,
    random_sl,
)

from _oracles import enumerate_quantizer

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestDetCost:
    def test_identity(self):
        assert det_cost(SymPosDefMatrix.identity(3)).canonical == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_product(self):
        assert det_cost(SymPosDefMatrix.diagonal([2.0, 3.0])).canonical == pytest.approx(6.0, rel=1e-12)

    @given(seed=seeds, n=st.integers(min_value=1, max_value=5))
    def test_sl_congruence_invariance(self, seed, n):
        M = random_pd(n, seed)
        S = random_sl(n, seed + 7)
        assert cost_values_match(det_cost(M), det_cost(congruence(M, S)))


class TestLogDetReuse:
    def test_cholesky_runs_once_per_matrix(self, monkeypatch):
        calls = []
        cholesky = np.linalg.cholesky

        def counted(a):
            calls.append(a)
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        M = random_pd(4, 3)
        first = log_det(M)
        for selector in ("det", "qdet:0.5", "qdet:2"):
            cost_from_selector(selector)(M)
        assert log_det(M) == first
        assert len(calls) == 1
        # A new instance with equal entries factors its own matrix.
        assert log_det(SymPosDefMatrix(M.entries)) == first
        assert len(calls) == 2


class TestQuantizedDetCost:
    def test_identity_any_constant(self):
        for a in (0.3, 0.5, 1.0, 2.0, 5.0):
            k, canonical = quantize_log2_det(0.0, a)
            assert k == 0
            assert canonical == 1.0
            v = quantized_det_cost(SymPosDefMatrix.identity(4), a)
            assert v.canonical == pytest.approx(1.0, abs=1e-12)

    def test_det_six_a_one(self):
        # Enumeration oracle: exactly one k puts 2**k * 6 inside [1, 2).
        k_expect, folded_expect = enumerate_quantizer(6.0, 1.0)
        assert (k_expect, folded_expect) == (-2, 1.5)
        k, canonical = quantize_log2_det(math.log2(6.0), 1.0)
        assert k == k_expect
        assert canonical == pytest.approx(folded_expect, rel=1e-12)
        v = quantized_det_cost(SymPosDefMatrix.diagonal([6.0]), 1.0)
        assert v.canonical == pytest.approx(1.5, rel=1e-12)

    def test_det_half_a_two(self):
        k_expect, folded_expect = enumerate_quantizer(0.5, 2.0)
        assert (k_expect, folded_expect) == (1, 2.0)
        k, canonical = quantize_log2_det(math.log2(0.5), 2.0)
        assert k == k_expect
        assert canonical == pytest.approx(2.0, rel=1e-12)
        assert 1.0 <= canonical < 4.0

    @given(seed=seeds, n=st.integers(min_value=1, max_value=5),
           a=st.sampled_from([0.5, 1.0, 2.0]))
    def test_agrees_with_enumeration(self, seed, n, a):
        M = random_pd(n, seed)
        det = math.exp(sum(math.log(w) for w in np.linalg.eigvalsh(M.entries)))
        k_expect, folded_expect = enumerate_quantizer(det, a)
        k, canonical = quantize_log2_det(math.log2(det), a)
        assert k == k_expect
        assert canonical == pytest.approx(folded_expect, rel=1e-9)

    def test_range_property_ten_thousand(self):
        # Canonical value in [1, 2**a) over 10^4 random inputs per constant.
        for a in (0.5, 1.0, 2.0):
            hi = 2.0 ** a
            for trial in range(10_000):
                n = 1 + trial % 5
                v = quantized_det_cost(random_pd(n, trial), a)
                assert 1.0 <= v.canonical < hi

    def test_boundary_snaps_to_lower_edge(self):
        # A determinant exactly on a lattice point folds to 1, not 2**a.
        for a in (0.5, 1.0, 2.0):
            k, canonical = quantize_log2_det(3.0 * a, a)
            assert k == -3
            assert canonical == pytest.approx(1.0, abs=1e-12)

    def test_kernel_shift_invariance(self):
        # Scaling the determinant by exactly 2**(a*j) via a scalar
        # congruence leaves the folded value fixed.
        for a in (0.5, 1.0, 2.0):
            for j in (-2, -1, 1, 3):
                for seed in range(10):
                    n = 2 + seed % 3
                    M = random_pd(n, 400 + seed)
                    shift = InvertibleMatrix(2.0 ** (a * j / (2 * n)) * np.eye(n))
                    shifted = congruence(M, shift)
                    u = quantized_det_cost(M, a)
                    v = quantized_det_cost(shifted, a)
                    assert cost_values_match(u, v)

    def test_rejects_nonpositive_constant(self):
        with pytest.raises(ValueError, match="positive"):
            quantized_det_cost(SymPosDefMatrix.identity(2), 0.0)


class TestFactoredCost:
    def test_trivial_is_det(self):
        f = factored_cost(KernelSpec.trivial())
        for seed in range(10):
            M = random_pd(3, seed)
            assert cost_values_match(f(M), det_cost(M))

    def test_lattice_dispatch(self):
        f = factored_cost(KernelSpec.lattice(1.0))
        assert f(SymPosDefMatrix.diagonal([6.0])).canonical == pytest.approx(1.5, rel=1e-12)
        assert f.kernel.a == 1.0

    def test_det_scaling_by_kernel_element(self):
        # Multiplying M by 2**(a/n) multiplies its determinant by exactly
        # 2**a, a kernel element, so the value is unchanged.
        a = 1.5
        f = factored_cost(KernelSpec.lattice(a))
        for seed in range(10):
            n = 2 + seed % 3
            M = random_pd(n, 100 + seed)
            scaled = SymPosDefMatrix(2.0 ** (a / n) * M.entries)
            assert cost_values_match(f(M), f(scaled))

    def test_equal_dets_equal_costs(self):
        for f in (DET_COST, factored_cost(KernelSpec.lattice(0.5))):
            for seed in range(25):
                n = 1 + seed % 4
                M = random_pd(n, seed)
                N = congruence(M, random_sl(n, 900 + seed))
                assert cost_values_match(f(M), f(N))

    def test_value_equals_gram_of_square_root(self):
        # Every M is the Gram matrix of its own PD square root, so the
        # value of any cost at M equals its value at (M^1/2)^T M^1/2.
        for f in (DET_COST, factored_cost(KernelSpec.lattice(1.0))):
            for seed in range(15):
                n = 1 + seed % 4
                M = random_pd(n, 300 + seed)
                w, v = np.linalg.eigh(M.entries)
                root = InvertibleMatrix((v * np.sqrt(w)) @ v.T)
                gram = congruence(SymPosDefMatrix.identity(n), root)
                assert cost_values_match(f(M), f(gram))


class TestIdentityCost:
    def test_reflexive(self):
        M = random_pd(3, 1)
        assert cost_values_match(identity_cost(M), identity_cost(M))

    def test_distinct_matrices_differ(self):
        u = identity_cost(SymPosDefMatrix.identity(2))
        v = identity_cost(SymPosDefMatrix.scalar(2, 2.0))
        assert not cost_values_match(u, v)

    def test_equivalence_relation_on_samples(self):
        values = [identity_cost(random_pd(3, seed)) for seed in range(8)]
        copies = [identity_cost(random_pd(3, seed)) for seed in range(8)]
        for i, u in enumerate(values):
            assert cost_values_match(u, copies[i])
            assert cost_values_match(copies[i], u)
            for j, v in enumerate(values):
                if i != j:
                    assert not cost_values_match(u, v)
        # transitivity across the exact-copy chain
        third = [identity_cost(random_pd(3, seed)) for seed in range(8)]
        for a, b, c in zip(values, copies, third):
            assert cost_values_match(a, b) and cost_values_match(b, c) and cost_values_match(a, c)

    def test_fingerprint_is_deterministic(self):
        M = random_pd(4, 9)
        assert identity_cost(M).canonical == identity_cost(M).canonical


class TestTraceCost:
    def test_identity(self):
        assert trace_cost(SymPosDefMatrix.identity(3)).canonical == 3.0

    def test_diagonal(self):
        assert trace_cost(SymPosDefMatrix.diagonal([2.0, 3.0])).canonical == 5.0


class TestCostValueComparison:
    def test_mismatched_tags_raise(self):
        M = SymPosDefMatrix.identity(2)
        with pytest.raises(ValueError, match="not comparable"):
            cost_values_match(det_cost(M), trace_cost(M))
        with pytest.raises(ValueError, match="not comparable"):
            cost_value_discrepancy(det_cost(M), identity_cost(M))

    def test_distinct_quantization_constants_do_not_compare(self):
        M = SymPosDefMatrix.diagonal([6.0])
        with pytest.raises(ValueError, match="not comparable"):
            cost_values_match(quantized_det_cost(M, 1.0), quantized_det_cost(M, 2.0))

    def test_relative_tolerance(self):
        u = CostValue(100.0, "det")
        v = CostValue(100.0 * (1 + 5e-9), "det")
        w = CostValue(100.0 * (1 + 5e-8), "det")
        assert cost_values_match(u, v, COST_REL_TOL)
        assert not cost_values_match(u, w, COST_REL_TOL)


class TestKernelSpec:
    def test_lattice_requires_positive_constant(self):
        with pytest.raises(ValueError, match="a > 0"):
            KernelSpec.lattice(0.0)
        with pytest.raises(ValueError, match="a > 0"):
            KernelSpec.lattice(-1.0)

    def test_trivial_takes_no_constant(self):
        with pytest.raises(ValueError, match="no lattice constant"):
            KernelSpec("trivial", 1.0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown"):
            KernelSpec("something")


class TestSelectorGrammar:
    def test_known_selectors(self):
        assert cost_from_selector("det").name == "det"
        assert cost_from_selector("trace").name == "trace"
        assert cost_from_selector("identity").name == "identity"
        f = cost_from_selector("qdet:0.5")
        assert f.kernel.a == 0.5
        assert f.name == "qdet:0.5"

    @pytest.mark.parametrize("bad", ["qdet:", "qdet:x", "qdet:-1", "qdet:0", "frobenius", ""])
    def test_bad_selectors(self, bad):
        with pytest.raises(ValueError):
            cost_from_selector(bad)
