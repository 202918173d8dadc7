import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from affinecost.cost import (
    COST_REL_TOL,
    DET_COST,
    IDENTITY_COST,
    QUANT_BOUNDARY_SNAP,
    TRACE_COST,
    CostValues,
    KernelSpec,
    cost_from_selector,
    factored_cost,
    fold_log2_dets,
    value_discrepancies,
    values_match,
)
from affinecost.linalg import (
    InvertibleMatrix,
    SymPosDefMatrix,
    congruence,
    log_det,
    random_pd,
    random_sl,
)
from affinecost.mcd import Dataset, mcd_estimate

from _oracles import enumerate_quantizer

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def qdet(a):
    return factored_cost(KernelSpec.lattice(a))


def values_at(f, M) -> CostValues:
    """f's values on the stack of one holding M."""
    return f.values(M.entries[None], np.array([log_det(M)]))


class TestDetCost:
    def test_identity(self):
        assert DET_COST(SymPosDefMatrix(np.eye(3))).canonical == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_product(self):
        assert DET_COST(SymPosDefMatrix(np.diag([2.0, 3.0]))).canonical == pytest.approx(6.0, rel=1e-12)

    @given(seed=seeds, n=st.integers(min_value=1, max_value=5))
    def test_sl_congruence_invariance(self, seed, n):
        M = random_pd(n, seed)
        S = random_sl(n, seed + 7)
        assert values_match(values_at(DET_COST, M), values_at(DET_COST, congruence(M, S)))

    @pytest.mark.parametrize("s", [1e-160, 1e160])
    def test_value_outside_float64_range_raises(self, s):
        # det = s**2 is subnormal (1e-320) or overflows (1e320); the
        # folded cost reads the same log-det and stays in range.
        M = SymPosDefMatrix(s * np.eye(2))
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
            (k,), (canonical,) = fold_log2_dets(np.array([0.0]), a)
            assert k == 0
            assert canonical == 1.0
            v = qdet(a)(SymPosDefMatrix(np.eye(4)))
            assert v.canonical == pytest.approx(1.0, abs=1e-12)

    def test_det_six_a_one(self):
        # Enumeration oracle: exactly one k puts 2**k * 6 inside [1, 2).
        k_expect, folded_expect = enumerate_quantizer(6.0, 1.0)
        assert (k_expect, folded_expect) == (-2, 1.5)
        (k,), (canonical,) = fold_log2_dets(np.array([math.log2(6.0)]), 1.0)
        assert k == k_expect
        assert canonical == pytest.approx(folded_expect, rel=1e-12)
        v = qdet(1.0)(SymPosDefMatrix(np.diag([6.0])))
        assert v.canonical == pytest.approx(1.5, rel=1e-12)

    def test_det_half_a_two(self):
        k_expect, folded_expect = enumerate_quantizer(0.5, 2.0)
        assert (k_expect, folded_expect) == (1, 2.0)
        (k,), (canonical,) = fold_log2_dets(np.array([math.log2(0.5)]), 2.0)
        assert k == k_expect
        assert canonical == pytest.approx(2.0, rel=1e-12)
        assert 1.0 <= canonical < 4.0

    @given(seed=seeds, n=st.integers(min_value=1, max_value=5),
           a=st.sampled_from([0.5, 1.0, 2.0]))
    def test_agrees_with_enumeration(self, seed, n, a):
        M = random_pd(n, seed)
        det = math.exp(sum(math.log(w) for w in np.linalg.eigvalsh(M.entries)))
        k_expect, folded_expect = enumerate_quantizer(det, a)
        (k,), (canonical,) = fold_log2_dets(np.array([math.log2(det)]), a)
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
            (k,), (canonical,) = fold_log2_dets(np.array([3.0 * a]), a)
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
                    u = values_at(qdet(a), M)
                    v = values_at(qdet(a), shifted)
                    assert values_match(u, v)

    def test_rejects_nonpositive_constant(self):
        for a in (0.0, -1.0):
            with pytest.raises(ValueError, match="requires a > 0"):
                qdet(a)(SymPosDefMatrix(np.eye(2)))


class TestFactoredCost:
    def test_trivial_is_det(self):
        f = factored_cost(KernelSpec.trivial())
        for seed in range(10):
            M = random_pd(3, seed)
            assert values_match(values_at(f, M), values_at(DET_COST, M))

    def test_lattice_dispatch(self):
        f = factored_cost(KernelSpec.lattice(1.0))
        assert f(SymPosDefMatrix(np.diag([6.0]))).canonical == pytest.approx(1.5, rel=1e-12)
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
            assert values_match(values_at(f, M), values_at(f, scaled))

    def test_equal_dets_equal_costs(self):
        for f in (DET_COST, factored_cost(KernelSpec.lattice(0.5))):
            for seed in range(25):
                n = 1 + seed % 4
                M = random_pd(n, seed)
                N = congruence(M, random_sl(n, 900 + seed))
                assert values_match(values_at(f, M), values_at(f, N))

    def test_value_equals_gram_of_square_root(self):
        # Every M is the Gram matrix of its own PD square root, so the
        # value of any cost at M equals its value at (M^1/2)^T M^1/2.
        for f in (DET_COST, factored_cost(KernelSpec.lattice(1.0))):
            for seed in range(15):
                n = 1 + seed % 4
                M = random_pd(n, 300 + seed)
                w, v = np.linalg.eigh(M.entries)
                root = InvertibleMatrix((v * np.sqrt(w)) @ v.T)
                gram = congruence(SymPosDefMatrix(np.eye(n)), root)
                assert values_match(values_at(f, M), values_at(f, gram))


class TestIdentityCost:
    def test_reflexive(self):
        M = random_pd(3, 1)
        assert values_match(values_at(IDENTITY_COST, M), values_at(IDENTITY_COST, M))

    def test_distinct_matrices_differ(self):
        u = values_at(IDENTITY_COST, SymPosDefMatrix(np.eye(2)))
        v = values_at(IDENTITY_COST, SymPosDefMatrix(2.0 * np.eye(2)))
        assert not values_match(u, v)

    def test_equivalence_relation_on_samples(self):
        values = [values_at(IDENTITY_COST, random_pd(3, seed)) for seed in range(8)]
        copies = [values_at(IDENTITY_COST, random_pd(3, seed)) for seed in range(8)]
        for i, u in enumerate(values):
            assert values_match(u, copies[i])
            assert values_match(copies[i], u)
            for j, v in enumerate(values):
                if i != j:
                    assert not values_match(u, v)
        # transitivity across the exact-copy chain
        third = [values_at(IDENTITY_COST, random_pd(3, seed)) for seed in range(8)]
        for a, b, c in zip(values, copies, third):
            assert values_match(a, b) and values_match(b, c) and values_match(a, c)

    def test_fingerprint_is_deterministic(self):
        M = random_pd(4, 9)
        assert IDENTITY_COST(M).canonical == IDENTITY_COST(M).canonical


class TestTraceCost:
    def test_identity(self):
        assert TRACE_COST(SymPosDefMatrix(np.eye(3))).canonical == 3.0

    def test_diagonal(self):
        assert TRACE_COST(SymPosDefMatrix(np.diag([2.0, 3.0]))).canonical == 5.0


class TestCostValueComparison:
    def test_mismatched_tags_raise(self):
        M = SymPosDefMatrix(np.eye(2))
        with pytest.raises(ValueError, match="not comparable"):
            values_match(values_at(DET_COST, M), values_at(TRACE_COST, M))
        with pytest.raises(ValueError, match="not comparable"):
            value_discrepancies(values_at(DET_COST, M), values_at(IDENTITY_COST, M))

    def test_distinct_quantization_constants_do_not_compare(self):
        M = SymPosDefMatrix(np.diag([6.0]))
        with pytest.raises(ValueError, match="not comparable"):
            values_match(values_at(qdet(1.0), M), values_at(qdet(2.0), M))

    def test_relative_tolerance(self):
        u = CostValues(np.array([100.0]), "det")
        v = CostValues(np.array([100.0 * (1 + 5e-9)]), "det")
        w = CostValues(np.array([100.0 * (1 + 5e-8)]), "det")
        assert values_match(u, v, COST_REL_TOL)
        assert not values_match(u, w, COST_REL_TOL)

    def test_absolute_below_one(self):
        # The band is rel_tol * max(1, |u|, |v|), so below 1 it is absolute.
        tiny, small = CostValues(np.array([1e-9]), "det"), CostValues(np.array([5e-9]), "det")
        assert values_match(tiny, small)
        half, quarter = CostValues(np.array([0.5]), "det"), CostValues(np.array([0.25]), "det")
        assert value_discrepancies(half, quarter).tolist() == [0.25]


# Inputs on which numpy's SIMD exp and power (AVX-512 builds) differ from
# libm's exp and pow in the last bit: log-dets for exp, and log2
# determinants in [0, 0.3), which every constant below folds to
# themselves, for pow. The array maps must keep libm's bits on them.
EXP_DIFFERS = [float.fromhex(x) for x in (
    "-0x1.963b413866568p+7", "0x1.62e9cdd8a2c10p+6", "-0x1.04a6cb720f584p+8",
    "0x1.192d5ff2b4036p+8", "0x1.14e15de03e730p+5", "0x1.729db056be3b0p+8")]
POW_DIFFERS = [float.fromhex(x) for x in (
    "0x1.37f9aac4f1bcfp-3", "0x1.3eef21d6f7d57p-3", "0x1.0830a88e320c1p-3",
    "0x1.6d5fd7a86a627p-3")]
PARITY_CONSTANTS = [0.3, 0.5, 1.0, 2.0]


def scalar_fold(d, a):
    """The quantizer one float at a time, as Python arithmetic."""
    r = d / a
    nearest = round(r)
    k = -int(nearest) if abs(r - nearest) <= QUANT_BOUNDARY_SNAP else -math.floor(r)
    return 2.0 ** (a * k + d)


def same_bits(got, expected):
    return np.asarray(got, dtype=np.float64).tobytes() == np.array(expected).tobytes()


class TestArrayMapParity:
    # The array maps return, bit for bit, what math.exp and float pow give
    # element by element: reports and goldens carry libm's bits.

    def test_det_is_libm_exp(self):
        rng = np.random.default_rng(20)
        log_dets = np.concatenate([rng.uniform(-700.0, 700.0, 100_000),
                                   rng.standard_normal(20_000) * 10.0,
                                   EXP_DIFFERS, [0.0, -0.0]])
        assert same_bits(DET_COST.value(None, log_dets), [math.exp(x) for x in log_dets.tolist()])

    @pytest.mark.parametrize("a", PARITY_CONSTANTS)
    def test_qdet_is_libm_pow(self, a):
        rng = np.random.default_rng([21, int(10 * a)])
        # d/a at +-0.5 and +-2 snap widths of integers: inside and outside
        # the quantizer's boundary snap.
        near = [a * (j + s * QUANT_BOUNDARY_SNAP) for j in range(-4, 5) for s in (-2, -0.5, 0.5, 2)]
        log2_dets = np.concatenate([rng.uniform(-60.0, 60.0, 100_000), near,
                                    POW_DIFFERS, [0.0, -0.0]])
        _, folded = fold_log2_dets(log2_dets, a)
        expected = [scalar_fold(d, a) for d in log2_dets.tolist()]
        assert same_bits(folded, expected)
        log_dets = log2_dets * math.log(2.0)
        assert same_bits(cost_from_selector(f"qdet:{a:g}").value(None, log_dets),
                         [scalar_fold(x / math.log(2.0), a) for x in log_dets.tolist()])

    def test_snap_window_edges(self):
        # Half a snap width from an integer folds to the lower edge (up to
        # the offset); two widths below folds to the top of the interval.
        for a in PARITY_CONSTANTS:
            _, folded = fold_log2_dets(np.array([a * (3 - 0.5 * QUANT_BOUNDARY_SNAP),
                                                 a * (3 - 2 * QUANT_BOUNDARY_SNAP)]), a)
            assert folded[0] == pytest.approx(1.0, abs=1e-5)
            assert folded[1] == pytest.approx(2.0 ** a, rel=1e-4)

    def test_signed_zero_folds_to_one(self):
        for a in PARITY_CONSTANTS:
            k, folded = fold_log2_dets(np.array([0.0, -0.0]), a)
            assert folded.tolist() == [1.0, 1.0]
            assert k.tolist() == [0, 0]

    def test_controls_map_stacks(self):
        stack = np.array([random_pd(3, seed).entries for seed in range(5)])
        assert TRACE_COST.value(stack, None).tolist() == [
            TRACE_COST(SymPosDefMatrix(e)).canonical for e in stack]
        assert IDENTITY_COST.value(stack, None).tolist() == [
            IDENTITY_COST(SymPosDefMatrix(e)).canonical for e in stack]

    def test_discrepancies_match_one_value_rule(self):
        rng = np.random.default_rng(22)
        u, v = rng.uniform(0.0, 3.0, 500), rng.uniform(0.0, 3.0, 500)
        disc = value_discrepancies(CostValues(u, "det"), CostValues(v, "det"))
        assert same_bits(disc, [abs(x - y) / max(1.0, abs(x), abs(y))
                                for x, y in zip(u.tolist(), v.tolist())])


class TestDetRange:
    @pytest.mark.parametrize("log_det", [800.0, -800.0, math.inf, -math.inf, math.nan])
    def test_out_of_range_log_det_raises_value_error(self, log_det):
        # Checked before exponentiating: math.exp(800) alone would raise
        # OverflowError, which no caller turns into a one-line exit.
        with pytest.raises(ValueError, match="float64 range"):
            DET_COST.value(None, np.array([0.0, log_det, 1.0]))

    def test_first_offender_is_reported(self):
        with pytest.raises(ValueError, match=r"exp\(-720\) is outside"):
            DET_COST.value(None, np.array([1.0, -720.0, 720.0]))

    def test_range_edges(self):
        # The largest and smallest log-dets with a normal float64 exp
        # pass; their neighbours outside raise.
        lo, hi = math.log(sys.float_info.min), math.log(sys.float_info.max)
        values = DET_COST.value(None, np.array([lo, hi]))
        assert sys.float_info.min <= values[0] and values[1] <= sys.float_info.max
        for outside in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)):
            with pytest.raises(ValueError, match="float64 range"):
                DET_COST.value(None, np.array([outside]))

    @pytest.mark.parametrize("scale,log_det", [(1e150, "1380.92"), (1e-100, "-921.669")])
    def test_scaled_data_message(self, scale, log_det):
        # The same one-line message as before the array maps, naming the
        # first subset's log-det in enumeration order.
        data = Dataset(np.random.default_rng(3).standard_normal((8, 2)) * scale)
        with pytest.raises(ValueError) as info:
            mcd_estimate(data, 4, DET_COST)
        assert str(info.value) == (f"determinant exp({log_det}) is outside the positive normal "
                                   "float64 range [2.23e-308, 1.8e+308]")


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
        (value,) = f.value(None, np.array([-0.5])).tolist()
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

    @pytest.mark.parametrize("bad", ["qdet:", "qdet:x", "qdet:-1", "qdet:0", "qdet:5e-324",
                                     "frobenius", ""])
    def test_bad_selectors(self, bad):
        with pytest.raises(ValueError):
            cost_from_selector(bad)
