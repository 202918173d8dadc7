import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from affinecost.cost import (
    DET_COST,
    TRACE_COST,
    CostValues,
    KernelSpec,
    factored_cost,
    values_match,
)
from affinecost.groups import (
    CommutatorPair,
    ElementaryMatrix,
    commutator,
    decompose_sl,
    elementary,
    elementary_as_commutator,
    kernel_membership,
    reconstruct_factors,
    transpose_commutator,
)
from affinecost.linalg import (
    InvertibleMatrix,
    parse_matrix,
    random_gl,
    random_orthogonal,
    random_pd,
    random_sl,
)

from _oracles import det_permutation

seeds = st.integers(min_value=0, max_value=2**32 - 1)

FACTORED_COSTS = [
    DET_COST,
    factored_cost(KernelSpec.lattice(0.5)),
    factored_cost(KernelSpec.lattice(1.0)),
    factored_cost(KernelSpec.lattice(2.0)),
]


class TestElementary:
    def test_zero_scale_is_identity(self):
        assert np.array_equal(elementary(2, 0, 1, 0.0).entries, np.eye(2))

    def test_entry_placement(self):
        E = elementary(3, 0, 2, 2.0)
        expected = np.eye(3)
        expected[0, 2] = 2.0
        assert np.array_equal(E.entries, expected)

    @given(lam=st.floats(min_value=-30.0, max_value=30.0, allow_nan=False))
    def test_determinant_exactly_one(self, lam):
        E = elementary(4, 2, 0, lam)
        assert det_permutation(E.entries) == 1.0

    @given(lam=st.floats(min_value=-1e12, max_value=1e12, allow_nan=False))
    def test_determinant_exactly_one_unrealized(self, lam):
        # The raw matrix keeps determinant 1 for any scale; the oracle
        # reads its entries directly, with no gate in between.
        assert det_permutation(ElementaryMatrix(4, 2, 0, lam).matrix()) == 1.0

    def test_diagonal_position_rejected(self):
        with pytest.raises(ValueError, match="off-diagonal"):
            elementary(3, 1, 1, 2.0)

    def test_index_range(self):
        with pytest.raises(ValueError, match="range"):
            elementary(2, 0, 2, 1.0)

    def test_dimension_bounded_before_allocation(self):
        # np.eye(10**9) would need 8e18 bytes; the bound comes first.
        with pytest.raises(ValueError, match="2 <= n <= 64"):
            ElementaryMatrix(10**9, 0, 1, 1.0)

    def test_inverse_negates_scale(self):
        E = ElementaryMatrix(3, 1, 2, 4.0)
        product = E.matrix() @ E.inverse().matrix()
        assert np.array_equal(product, np.eye(3))


class TestCommutator:
    def test_self_commutator_is_identity(self):
        A = random_gl(3, 4)
        out = commutator(A, A)
        assert np.abs(out.entries - np.eye(3)).max() < 1e-12

    def test_diagonals_commute(self):
        D1 = InvertibleMatrix(np.diag([2.0, 3.0]))
        D2 = InvertibleMatrix(np.diag([0.5, 5.0]))
        out = commutator(D1, D2)
        assert np.abs(out.entries - np.eye(2)).max() < 1e-14

    @example(seed=7237495, n=3)
    @given(seed=seeds, n=st.integers(min_value=1, max_value=6))
    def test_determinant_one(self, seed, n):
        A = random_gl(n, seed)
        B = random_gl(n, seed + 13)
        det = np.linalg.det(commutator(A, B).entries)
        assert abs(det - 1.0) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            commutator(random_gl(2, 0), random_gl(3, 0))


class TestTransposeCommutator:
    def test_symmetric_right_factor_collapses(self):
        # With A = I the element is B^T B^-1, the identity exactly when
        # B is symmetric.
        B = InvertibleMatrix(random_pd(3, 11).entries)
        out = transpose_commutator(InvertibleMatrix(np.eye(3)), B)
        assert np.abs(out.entries - np.eye(3)).max() < 1e-12

    def test_identity_left_factor_stays_in_kernel(self):
        B = random_gl(3, 11)
        out = transpose_commutator(InvertibleMatrix(np.eye(3)), B)
        for f in FACTORED_COSTS:
            assert kernel_membership(out, f)

    @given(seed=seeds, n=st.integers(min_value=1, max_value=6))
    def test_determinant_one(self, seed, n):
        A = random_gl(n, seed)
        B = random_gl(n, seed + 1)
        det = np.linalg.det(transpose_commutator(A, B).entries)
        assert abs(det - 1.0) <= 1e-9

    def test_kernel_membership_for_every_factored_cost(self):
        # Normality witness: B^T A^T B^-1 A^-1 always lands in the kernel.
        for seed in range(30):
            n = 1 + seed % 6
            A = random_gl(n, seed)
            B = random_gl(n, 700 + seed)
            W = transpose_commutator(A, B)
            for f in FACTORED_COSTS:
                assert kernel_membership(W, f)


# Transpose commutators W = transpose_commutator(A, B) of Gaussian
# draws, in the matrix text format, keyed by the seed they came from.
# Each has condition number 8e4 to 2e5 and det 1 to within 3e-12, but
# W^T W is so ill conditioned that a Cholesky of it read a log-det off 0
# (seed 88) or failed the positive definiteness gate (the other three).
ILL_CONDITIONED_MEMBERS = {
    88: """5
-101.15868428250204 17.706329689859192 -113.7284674294101 -69.65245399086534 48.625806157949413
99.697473068577523 -17.252038094851763 111.01956141474277 66.617238655370159 -47.526778179829662
35.054335283578297 -7.2024961907711909 39.184977504296988 22.747616415232496 -16.702851040840681
40.174142089410829 -8.2029254953154513 44.612846464932666 26.332770537719163 -18.723131450954071
0.16014954150312613 -0.033716375148255706 1.0045731326000582 0.99315716150236877 -0.68637037959362379
""",
    848: """3
-243.85059471177172 -198.32684997154752 91.655307115205545
125.59881451430128 101.73465332318658 -48.049302056028004
-94.86114924284098 -76.625088559280712 36.728425634588902
""",
    866: """3
-132.63091023657046 -89.523681931816853 48.956337321344428
-37.817246581666751 -25.658409775074546 13.93561651518238
-47.303542400201515 -28.451827535441321 18.131475135345774
""",
    1220: """3
-261.93066728630839 -4.0546713235093099 8.2209936894307614
191.60521963529251 3.6390847230548142 -5.1499675343990967
-12.203370554047881 0.065985754891072335 0.70447153446445965
""",
}


class TestIllConditionedKernelMembers:
    @pytest.mark.parametrize("seed", sorted(ILL_CONDITIONED_MEMBERS))
    def test_member_for_every_factored_cost(self, seed):
        W = InvertibleMatrix(parse_matrix(ILL_CONDITIONED_MEMBERS[seed]))
        for f in FACTORED_COSTS:
            assert kernel_membership(W, f)

    def test_nonfactoring_cost_refused(self):
        with pytest.raises(ValueError, match="does not factor"):
            kernel_membership(InvertibleMatrix(np.eye(2)), TRACE_COST)


class TestElementaryAsCommutator:
    def test_three_dim_example(self):
        pair = elementary_as_commutator(3, 0, 1, 5.0)
        assert np.array_equal(pair.a_factor.entries, elementary(3, 0, 2, 5.0).entries)
        assert np.array_equal(pair.b_factor.entries, elementary(3, 2, 1, 1.0).entries)
        target = elementary(3, 0, 1, 5.0)
        realized = commutator(pair.a_factor, pair.b_factor)
        assert np.abs(realized.entries - target.entries).max() <= 1e-12

    def test_two_dim_example(self):
        pair = elementary_as_commutator(2, 0, 1, 3.0)
        assert np.array_equal(pair.a_factor.entries, np.diag([2.0, 0.5]))
        assert np.array_equal(pair.b_factor.entries, elementary(2, 0, 1, 1.0).entries)
        target = elementary(2, 0, 1, 3.0)
        realized = commutator(pair.a_factor, pair.b_factor)
        assert np.abs(realized.entries - target.entries).max() <= 1e-12

    def test_zero_scale_gives_identity(self):
        for n in (2, 3):
            pair = elementary_as_commutator(n, 0, 1, 0.0)
            realized = commutator(pair.a_factor, pair.b_factor)
            assert np.abs(realized.entries - np.eye(n)).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_witness_grid(self, n):
        for row in range(n):
            for col in range(n):
                if row == col:
                    continue
                for lam in (-2.0, -1.0, 0.5, 1.0, 3.0):
                    pair = elementary_as_commutator(n, row, col, lam)
                    target = elementary(n, row, col, lam)
                    realized = commutator(pair.a_factor, pair.b_factor)
                    err = np.abs(realized.entries - target.entries).max()
                    assert err <= 1e-12, (n, row, col, lam, err)

    def test_pair_type(self):
        pair = elementary_as_commutator(4, 1, 3, 2.0)
        assert isinstance(pair, CommutatorPair)


class TestDecomposeSl:
    def test_identity_decomposes_to_nothing(self):
        assert decompose_sl(InvertibleMatrix(np.eye(3))) == []

    def test_single_elementary(self):
        E = elementary(3, 1, 0, 4.0)
        factors = decompose_sl(E)
        assert np.abs(reconstruct_factors(factors, 3) - E.entries).max() <= 1e-12

    def test_zero_pivot_repaired(self):
        # Rotation by 90 degrees: zero diagonal forces the pivot-fix path.
        A = InvertibleMatrix(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        factors = decompose_sl(A)
        assert np.abs(reconstruct_factors(factors, 2) - A.entries).max() <= 1e-10

    def test_determinant_gate(self):
        with pytest.raises(ValueError, match="determinant gate"):
            decompose_sl(InvertibleMatrix(2.0 * np.eye(2)))

    def test_factors_are_unit_elementary(self):
        S = random_sl(4, 77)
        for factor in decompose_sl(S):
            assert isinstance(factor, ElementaryMatrix)
            assert det_permutation(factor.matrix()) == 1.0

    # seed=115169, n=5 has a small nonzero first-column pivot (-0.0089);
    # repairing only near-zero pivots left a residual of 5.8e-8 there.
    @given(seed=seeds, n=st.integers(min_value=1, max_value=6))
    @example(seed=115169, n=5)
    def test_reconstruction(self, seed, n):
        S = random_sl(n, seed)
        factors = decompose_sl(S)
        rec = reconstruct_factors(factors, n)
        assert np.linalg.norm(rec - S.entries) <= 1e-8 * np.linalg.norm(S.entries)


class TestKernelMembership:
    def test_orthogonal_always_member_of_det_kernel(self):
        for seed in range(10):
            Q = random_orthogonal(3, seed)
            assert kernel_membership(Q, DET_COST)

    def test_scaled_identity_not_member(self):
        assert not kernel_membership(InvertibleMatrix(2.0 * np.eye(2)), DET_COST)

    @pytest.mark.parametrize("scale", [1e100, 1e-100, 1e150])
    def test_determinant_past_float64_not_member(self, scale):
        # det(A^T A) = scale**4 is outside float64's range; the trivial
        # kernel answers in log space instead of refusing the determinant.
        A = InvertibleMatrix(scale * np.eye(2))
        for f in FACTORED_COSTS:
            assert not kernel_membership(A, f)

    @pytest.mark.parametrize("rel_tol", [1e-12, 1e-8, 1e-3, 0.5])
    def test_trivial_band_is_the_det_cost_band(self, rel_tol):
        # Membership holds exactly where values_match(det(A^T A), 1)
        # holds; compared a hair inside and outside the band's edge.
        edge = -math.log1p(-rel_tol)
        for l in (edge * (1 - 1e-6), edge * (1 + 1e-6)):
            for sign in (1.0, -1.0):
                A = InvertibleMatrix(np.diag([math.exp(sign * l / 2), 1.0]))
                gram = CostValues(np.array([math.exp(2 * np.linalg.slogdet(A.entries)[1])]), "det")
                one = CostValues(np.array([1.0]), "det")
                expected = bool(values_match(gram, one, rel_tol)[0])
                assert kernel_membership(A, DET_COST, rel_tol) == expected

    def test_sl_members_under_factored_costs(self):
        for seed in range(50):
            n = 1 + seed % 5
            S = random_sl(n, seed)
            for f in FACTORED_COSTS:
                assert kernel_membership(S, f)

    def test_closure_under_product_and_inverse(self):
        # Kernel members form a subgroup: closed under products and inverses.
        for seed in range(100):
            n = 2 + seed % 3
            A = random_sl(n, seed)
            B = random_sl(n, 5_000 + seed)
            assert kernel_membership(A, DET_COST)
            assert kernel_membership(B, DET_COST)
            assert kernel_membership(InvertibleMatrix(A.entries @ B.entries), DET_COST)
            assert kernel_membership(InvertibleMatrix(np.linalg.inv(A.entries)), DET_COST)

    def test_negative_determinant_members(self):
        # det^2 = 1 suffices; det = -1 matrices belong too.
        twist = np.diag([-1.0] + [1.0] * 2)
        for seed in range(20):
            S = random_sl(3, seed)
            member = InvertibleMatrix(twist @ S.entries)
            assert abs(np.linalg.det(member.entries) + 1.0) <= 1e-9
            for f in FACTORED_COSTS:
                assert kernel_membership(member, f)
