import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from affinecost.cost import (
    COST_REL_TOL,
    DET_COST,
    IDENTITY_COST,
    TRACE_COST,
    CostValue,
    KernelSpec,
    cost_from_selector,
    cost_value_discrepancy,
    cost_values_match,
    factored_cost,
    quantize_log2_det,
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


def qdet(a):
    return factored_cost(KernelSpec.lattice(a))


class TestDetCost:
    def test_identity(self):
        assert DET_COST(SymPosDefMatrix.identity(3)).canonical == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_product(self):
        assert DET_COST(SymPosDefMatrix.diagonal([2.0, 3.0])).canonical == pytest.approx(6.0, rel=1e-12)

    @given(seed=seeds, n=st.integers(min_value=1, max_value=5))
    def test_sl_congruence_invariance(self, seed, n):
        M = random_pd(n, seed)
        S = random_sl(n, seed + 7)
        assert cost_values_match(DET_COST(M), DET_COST(congruence(M, S)))

    @pytest.mark.parametrize("s", [1e-160, 1e160])
    def test_value_outside_float64_range_raises(self, s):
        # det = s**2 is subnormal (1e-320) or overflows (1e320); the
        # folded cost reads the same log-det and stays in range.
        M = SymPosDefMatrix.scalar(2, s)
        with pytest.raises(ValueError, match="float64 range"):
            DET_COST(M)
        assert 1.0 <= qdet(1.0)(M).canonical < 2.0


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
            v = qdet(a)(SymPosDefMatrix.identity(4))
            assert v.canonical == pytest.approx(1.0, abs=1e-12)

    def test_det_six_a_one(self):
        # Enumeration oracle: exactly one k puts 2**k * 6 inside [1, 2).
        k_expect, folded_expect = enumerate_quantizer(6.0, 1.0)
        assert (k_expect, folded_expect) == (-2, 1.5)
        k, canonical = quantize_log2_det(math.log2(6.0), 1.0)
        assert k == k_expect
        assert canonical == pytest.approx(folded_expect, rel=1e-12)
        v = qdet(1.0)(SymPosDefMatrix.diagonal([6.0]))
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
                v = qdet(a)(random_pd(n, trial))
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
                    u = qdet(a)(M)
                    v = qdet(a)(shifted)
                    assert cost_values_match(u, v)

    def test_rejects_nonpositive_constant(self):
        for a in (0.0, -1.0):
            with pytest.raises(ValueError, match="requires a > 0"):
                qdet(a)(SymPosDefMatrix.identity(2))


class TestFactoredCost:
    def test_trivial_is_det(self):
        f = factored_cost(KernelSpec.trivial())
        for seed in range(10):
            M = random_pd(3, seed)
            assert cost_values_match(f(M), DET_COST(M))

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
        assert cost_values_match(IDENTITY_COST(M), IDENTITY_COST(M))

    def test_distinct_matrices_differ(self):
        u = IDENTITY_COST(SymPosDefMatrix.identity(2))
        v = IDENTITY_COST(SymPosDefMatrix.scalar(2, 2.0))
        assert not cost_values_match(u, v)

    def test_equivalence_relation_on_samples(self):
        values = [IDENTITY_COST(random_pd(3, seed)) for seed in range(8)]
        copies = [IDENTITY_COST(random_pd(3, seed)) for seed in range(8)]
        for i, u in enumerate(values):
            assert cost_values_match(u, copies[i])
            assert cost_values_match(copies[i], u)
            for j, v in enumerate(values):
                if i != j:
                    assert not cost_values_match(u, v)
        # transitivity across the exact-copy chain
        third = [IDENTITY_COST(random_pd(3, seed)) for seed in range(8)]
        for a, b, c in zip(values, copies, third):
            assert cost_values_match(a, b) and cost_values_match(b, c) and cost_values_match(a, c)

    def test_fingerprint_is_deterministic(self):
        M = random_pd(4, 9)
        assert IDENTITY_COST(M).canonical == IDENTITY_COST(M).canonical


class TestTraceCost:
    def test_identity(self):
        assert TRACE_COST(SymPosDefMatrix.identity(3)).canonical == 3.0

    def test_diagonal(self):
        assert TRACE_COST(SymPosDefMatrix.diagonal([2.0, 3.0])).canonical == 5.0


class TestCostValueComparison:
    def test_mismatched_tags_raise(self):
        M = SymPosDefMatrix.identity(2)
        with pytest.raises(ValueError, match="not comparable"):
            cost_values_match(DET_COST(M), TRACE_COST(M))
        with pytest.raises(ValueError, match="not comparable"):
            cost_value_discrepancy(DET_COST(M), IDENTITY_COST(M))

    def test_distinct_quantization_constants_do_not_compare(self):
        M = SymPosDefMatrix.diagonal([6.0])
        with pytest.raises(ValueError, match="not comparable"):
            cost_values_match(qdet(1.0)(M), qdet(2.0)(M))

    def test_relative_tolerance(self):
        u = CostValue(100.0, "det")
        v = CostValue(100.0 * (1 + 5e-9), "det")
        w = CostValue(100.0 * (1 + 5e-8), "det")
        assert cost_values_match(u, v, COST_REL_TOL)
        assert not cost_values_match(u, w, COST_REL_TOL)

    def test_absolute_below_one(self):
        # The band is rel_tol * max(1, |u|, |v|), so below 1 it is absolute.
        assert cost_values_match(CostValue(1e-9, "det"), CostValue(5e-9, "det"))
        assert cost_value_discrepancy(CostValue(0.5, "det"), CostValue(0.25, "det")) == 0.25


class TestKernelSpec:
    def test_lattice_requires_positive_constant(self):
        with pytest.raises(ValueError, match="a > 0"):
            KernelSpec.lattice(0.0)
        with pytest.raises(ValueError, match="a > 0"):
            KernelSpec.lattice(-1.0)

    @pytest.mark.parametrize("a", [1024.0, 2000.0, 1e6, math.inf, math.nan])
    def test_lattice_constant_bounded_above(self, a):
        with pytest.raises(ValueError, match="a < 1024"):
            KernelSpec.lattice(a)

    def test_largest_constants_fold_to_finite_values(self):
        # Just below the bound the fold of a determinant below 1 lands
        # near 2**a, still finite.
        f = factored_cost(KernelSpec.lattice(1023.9))
        value = f.value(None, -0.5)
        assert math.isfinite(value) and value > 2.0 ** 1023

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
