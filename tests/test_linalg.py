import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from affinecost.linalg import (
    SAMPLER_CONDITION_CAP,
    InvertibleMatrix,
    NotPositiveDefiniteError,
    OrthogonalMatrix,
    SymPosDefMatrix,
    congruence,
    format_matrix,
    gate_stack,
    log_det,
    parse_matrix,
    random_gl,
    random_orthogonal,
    random_pd,
    random_sl,
    svd_decompose,
)

from _oracles import det_exact, det_permutation

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=6)


class TestConstructionGates:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            SymPosDefMatrix([[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            SymPosDefMatrix([[1.0, 0.0], [0.0, -1.0]])

    def test_rejects_near_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            SymPosDefMatrix([[1.0, 0.0], [0.0, 1e-12]])

    def test_rejects_oversized_dimension(self):
        with pytest.raises(ValueError, match="64"):
            SymPosDefMatrix(np.eye(65))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            SymPosDefMatrix(np.ones((2, 3)))

    def test_invertible_rejects_singular(self):
        with pytest.raises(ValueError, match="invertibility"):
            InvertibleMatrix([[1.0, 2.0], [2.0, 4.0]])

    def test_orthogonal_rejects_skewed(self):
        with pytest.raises(ValueError, match="orthogonal"):
            OrthogonalMatrix([[1.0, 0.1], [0.0, 1.0]])

    def test_entries_read_only(self):
        M = SymPosDefMatrix.identity(3)
        with pytest.raises(ValueError):
            M.entries[0, 0] = 2.0


class TestCongruence:
    def test_identity_transform(self):
        M = random_pd(3, 5)
        out = congruence(M, InvertibleMatrix(np.eye(3)))
        assert np.abs(out.entries - M.entries).max() < 1e-15

    def test_identity_input_gives_gram(self):
        A = random_gl(3, 9)
        out = congruence(SymPosDefMatrix.identity(3), A)
        expected = A.entries.T @ A.entries
        assert np.abs(out.entries - expected).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            congruence(SymPosDefMatrix.identity(2), random_gl(3, 1))

    @example(seed=293, n=6)
    @given(seed=seeds, n=dims)
    def test_det_multiplies_against_exact_oracle(self, seed, n):
        M = random_pd(n, seed)
        A = random_gl(n, seed + 1)
        out = congruence(M, A)
        lhs = det_exact(out.entries)
        rhs = det_exact(A.entries) ** 2 * det_exact(M.entries)
        assert abs(lhs - rhs) <= 1e-9 * max(1, abs(rhs))

    def test_det_identity_sweep(self):
        # 1000 seeded trials across n <= 6 at relative 1e-8.
        trial = 0
        for n in range(1, 7):
            for rep in range(167):
                M = random_pd(n, 10_000 + trial)
                A = random_gl(n, 20_000 + trial)
                out = congruence(M, A)
                lhs = np.linalg.det(out.entries)
                rhs = np.linalg.det(A.entries) ** 2 * np.linalg.det(M.entries)
                assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))
                trial += 1
        assert trial >= 1000


class TestLogDet:
    def test_identity_is_zero(self):
        assert log_det(SymPosDefMatrix.identity(5)) == 0.0

    def test_diagonal(self):
        assert log_det(SymPosDefMatrix.diagonal([2.0, 3.0])) == pytest.approx(math.log(6.0), abs=1e-12)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 10.0])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_scalar_matrices(self, s, n):
        assert abs(log_det(SymPosDefMatrix.scalar(n, s)) - n * math.log(s)) <= 1e-12

    @given(seed=seeds, n=dims)
    def test_gram_against_permutation_oracle(self, seed, n):
        A = random_gl(n, seed)
        gram = congruence(SymPosDefMatrix.identity(n), A)
        expected = 2.0 * math.log(abs(det_permutation(A.entries)))
        assert abs(log_det(gram) - expected) <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_stacked_log_dets_match_log_det(self, n):
        # One formula serves both: a stacked log-det has log_det's bits.
        matrices = [random_pd(n, seed) for seed in range(50)]
        positions, log_dets = gate_stack(np.array([M.entries for M in matrices]))
        assert positions.tolist() == list(range(50))
        assert log_dets.tolist() == [log_det(M) for M in matrices]


class TestSvd:
    def test_identity(self):
        singular = svd_decompose(InvertibleMatrix(np.eye(3)))
        assert all(abs(s - 1.0) <= 1e-12 for s in singular)

    def test_diagonal_singular_values(self):
        singular = svd_decompose(InvertibleMatrix(np.diag([3.0, 2.0])))
        assert tuple(singular) == pytest.approx((3.0, 2.0), abs=1e-12)

    @given(seed=seeds, n=dims)
    def test_reconstruction(self, seed, n):
        # The values alone reconstruct A's orthogonal invariants: the sum
        # of their squares is ||A||_F^2 and their product is |det A|.
        A = random_gl(n, seed)
        singular = svd_decompose(A)
        assert len(singular) == n
        assert all(singular[i] >= singular[i + 1] for i in range(n - 1))
        frobenius = float(np.sum(A.entries ** 2))
        assert abs(float(np.sum(singular ** 2)) - frobenius) <= 1e-12 * frobenius
        exact = abs(float(det_exact(A.entries)))
        assert abs(float(np.prod(singular)) - exact) <= 1e-12 * exact


class TestSamplers:
    @pytest.mark.parametrize("sampler", [random_pd, random_gl, random_orthogonal, random_sl])
    def test_deterministic_per_seed(self, sampler):
        a = sampler(4, 123)
        b = sampler(4, 123)
        c = sampler(4, 124)
        assert np.array_equal(a.entries, b.entries)
        assert not np.array_equal(a.entries, c.entries)

    def test_random_pd_passes_gates(self):
        for seed in range(25):
            M = random_pd(3, seed)
            assert np.array_equal(M.entries, M.entries.T)

    def test_random_pd_conditioning_sweep(self):
        # Empirical check that the diagonal shift caps the spectrum ratio.
        for n in range(1, 7):
            for seed in range(1000):
                M = random_pd(n, seed)
                w = np.linalg.eigvalsh(M.entries)
                assert w[-1] / w[0] <= 1e6

    def test_random_sl_determinant(self):
        for n in (1, 2, 4, 6, 8, 16, 64):
            for seed in range(20):
                S = random_sl(n, seed)
                assert abs(np.linalg.det(S.entries) - 1.0) <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 16, 64])
    def test_cap_holds_by_construction(self, n):
        # The cap holds in every dimension, past n = 6 included.
        for seed in range(10):
            for sampler in (random_gl, random_sl):
                singular = np.linalg.svd(sampler(n, seed).entries, compute_uv=False)
                assert singular[0] / singular[-1] <= SAMPLER_CONDITION_CAP * (1.0 + 1e-12)

    def test_singular_values_log_uniform(self):
        # log s is uniform on [-L/2, L/2), L = ln 30: mean 0 and variance
        # L^2/12, so the mean of 6000 values stays within 3 sigma of 0.
        width = math.log(SAMPLER_CONDITION_CAP)
        logs = np.concatenate([
            np.log(np.linalg.svd(random_gl(3, seed).entries, compute_uv=False))
            for seed in range(2000)
        ])
        assert np.abs(logs).max() <= width / 2 + 1e-12
        assert abs(logs.mean()) <= 3.0 * width / math.sqrt(12 * logs.size)
        assert abs(logs.var() - width ** 2 / 12) <= 0.1 * width ** 2 / 12

    def test_random_orthogonal_gate(self):
        for n in (1, 2, 5):
            for seed in range(20):
                Q = random_orthogonal(n, seed)
                defect = np.abs(Q.entries.T @ Q.entries - np.eye(n)).max()
                assert defect <= 1e-10

    def test_random_orthogonal_haar_symmetry(self):
        # Entries of a Haar orthogonal column have mean 0; for n = 2 the
        # first entry is cos(theta) with variance 1/2, so the empirical
        # mean over 10^4 draws stays within 3 sigma = 3 * sqrt(0.5 / 1e4).
        draws = 10_000
        total = 0.0
        for seed in range(draws):
            total += random_orthogonal(2, seed).entries[0, 0]
        assert abs(total / draws) <= 3.0 * math.sqrt(0.5 / draws)


class TestMatrixTextFormat:
    @given(seed=seeds, n=dims)
    def test_round_trip(self, seed, n):
        A = random_gl(n, seed)
        again = parse_matrix(format_matrix(A.entries))
        assert np.array_equal(again, A.entries)

    def test_format_shape(self):
        text = format_matrix(np.eye(2))
        assert text.splitlines()[0] == "2"
        assert len(text.splitlines()) == 3

    def test_parse_bad_dimension(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_matrix("x\n1 0\n0 1\n")

    def test_parse_bad_token(self):
        with pytest.raises(ValueError, match="line 2.*bogus"):
            parse_matrix("2\n1 bogus\n0 1\n")

    def test_parse_row_count(self):
        with pytest.raises(ValueError, match="rows"):
            parse_matrix("2\n1 0\n")
