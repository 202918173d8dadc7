import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from affinecost.cost import DET_COST, KernelSpec, factored_cost
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


class TestElementaryAsCommutator:
    def test_three_dim_example(self):
        pair = elementary_as_commutator(3, 0, 1, 5.0)
        assert np.array_equal(pair.a_factor.entries, elementary(3, 0, 2, 5.0).entries)
        assert np.array_equal(pair.b_factor.entries, elementary(3, 2, 1, 1.0).entries)
        target = elementary(3, 0, 1, 5.0)
        assert np.abs(pair.realize().entries - target.entries).max() <= 1e-12

    def test_two_dim_example(self):
        pair = elementary_as_commutator(2, 0, 1, 3.0)
        assert np.array_equal(pair.a_factor.entries, np.diag([2.0, 0.5]))
        assert np.array_equal(pair.b_factor.entries, elementary(2, 0, 1, 1.0).entries)
        target = elementary(2, 0, 1, 3.0)
        assert np.abs(pair.realize().entries - target.entries).max() <= 1e-12

    def test_zero_scale_gives_identity(self):
        for n in (2, 3):
            pair = elementary_as_commutator(n, 0, 1, 0.0)
            assert np.abs(pair.realize().entries - np.eye(n)).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_witness_grid(self, n):
        for row in range(n):
            for col in range(n):
                if row == col:
                    continue
                for lam in (-2.0, -1.0, 0.5, 1.0, 3.0):
                    pair = elementary_as_commutator(n, row, col, lam)
                    target = elementary(n, row, col, lam)
                    err = np.abs(pair.realize().entries - target.entries).max()
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

    @given(seed=seeds, n=st.integers(min_value=1, max_value=5))
    def test_reconstruction(self, seed, n):
        S = random_sl(n, seed)
        factors = decompose_sl(S)
        rec = reconstruct_factors(factors, n)
        assert np.linalg.norm(rec - S.entries) <= 1e-8 * np.linalg.norm(S.entries)


class TestKernelMembership:
    def test_orthogonal_always_member_of_det_kernel(self):
        for seed in range(10):
            Q = random_orthogonal(3, seed)
            assert kernel_membership(Q.as_invertible(), DET_COST)

    def test_scaled_identity_not_member(self):
        assert not kernel_membership(InvertibleMatrix(2.0 * np.eye(2)), DET_COST)

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
            assert kernel_membership(A.inverse(), DET_COST)

    def test_negative_determinant_members(self):
        # det^2 = 1 suffices; det = -1 matrices belong too.
        twist = np.diag([-1.0] + [1.0] * 2)
        for seed in range(20):
            S = random_sl(3, seed)
            member = InvertibleMatrix(twist @ S.entries)
            assert abs(np.linalg.det(member.entries) + 1.0) <= 1e-9
            for f in FACTORED_COSTS:
                assert kernel_membership(member, f)
