import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from affinecost.linalg import _pd_eigenvalues  # the eigvalsh gate, as reference
from affinecost.linalg import (
    MAX_DIM,
    PD_EIG_RATIO,
    PD_SHIFT,
    SAMPLER_CONDITION_CAP,
    InvertibleMatrix,
    NotPositiveDefiniteError,
    OrthogonalMatrix,
    SymPosDefMatrix,
    congruence,
    congruence_stack,
    format_matrix,
    gate_invertible,
    gate_orthogonal,
    gate_pd,
    log_det,
    parse_matrix,
    pd_log_dets,
    random_gl,
    random_gl_stack,
    random_orthogonal,
    random_orthogonal_stack,
    random_pd,
    random_pd_stack,
    random_sl,
    stack_log_dets,
    svd_decompose,
)

from _oracles import det_exact, det_permutation

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=6)


class TestStackGates:
    # The stacked gates raise as the value types do on the first matrix
    # of the stack that fails.
    def test_pd_gate_names_the_failing_matrix(self):
        stack = np.array([np.eye(2), np.diag([1.0, -3.0]), np.eye(2)])
        with pytest.raises(NotPositiveDefiniteError, match=r"\[-3.000e\+00, 1.000e\+00\]"):
            gate_pd(stack)
        assert gate_pd(stack[[0, 2]]) is not None

    def test_pd_gate_rejects_asymmetric_and_nonfinite(self):
        with pytest.raises(ValueError, match="symmetric"):
            gate_pd(np.array([np.eye(2), [[1.0, 0.5], [0.2, 1.0]]]))
        with pytest.raises(ValueError, match="finite"):
            gate_pd(np.array([np.eye(2), [[1.0, 0.0], [0.0, np.inf]]]))

    def test_invertible_and_orthogonal_gates(self):
        with pytest.raises(ValueError, match="invertibility"):
            gate_invertible(np.array([np.eye(2), [[1.0, 2.0], [2.0, 4.0]]]))
        with pytest.raises(ValueError, match="orthogonal"):
            gate_orthogonal(np.array([np.eye(2), [[1.0, 0.1], [0.0, 1.0]]]))
        with pytest.raises(ValueError, match="64"):
            gate_invertible(np.eye(65)[None])


# Smallest over largest eigenvalue of the planted spectra: certified,
# uncertified, both sides of PD_EIG_RATIO within rounding, and failing
# although Cholesky succeeds.
PLANTED_RATIOS = [1e-12, 1e-11, 1e-10 * (1 - 1e-6), 1e-10 * (1 + 1e-6), 2e-10, 1e-9, 1e-8, 1.0]


def planted_stack(n, scale, seed, per_ratio=3):
    """Symmetric matrices Q diag(s) Q^T in random orthogonal bases, with
    largest eigenvalue scale and each of PLANTED_RATIOS as smallest over
    largest (the rest log-uniform between), per_ratio of each."""
    rng = np.random.default_rng([seed, n])
    stack = []
    for ratio in PLANTED_RATIOS:
        for _ in range(per_ratio):
            inner = np.exp(rng.uniform(math.log(ratio), 0.0, max(n - 2, 0)))
            spectrum = scale * np.concatenate(([ratio], inner, [1.0]))[-n:]
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            m = (q * spectrum) @ q.T
            stack.append((m + m.T) / 2.0)
    return np.array(stack)


def certified(stack):
    """The certificate, recomputed: a Cholesky log-det of at least
    log(10 * PD_EIG_RATIO) + n log(trace), with the trace at least 1e-200."""
    trace = np.trace(stack, axis1=1, axis2=2)
    bound = math.log(10.0 * PD_EIG_RATIO) + stack.shape[-1] * np.log(trace)
    return (trace >= 1e-200) & (stack_log_dets(stack) >= bound)


@pytest.fixture
def eigvalsh_inputs(monkeypatch):
    """Every stack np.linalg.eigvalsh is called on, in order."""
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def recording(stack):
        seen.append(np.array(stack))
        return eigvalsh(stack)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return seen


class TestCertifiedPdGate:
    # pd_log_dets decides the gate from one Cholesky where its certificate
    # holds and by eigvalsh elsewhere; its decisions must be eigvalsh's.

    @pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 16, 64])
    def test_planted_spectra_match_eigvalsh(self, n, scale):
        stack = planted_stack(n, scale, seed=0)
        passes, log_dets = pd_log_dets(stack)
        assert passes.tolist() == _pd_eigenvalues(stack)[1].tolist()
        assert log_dets.tobytes() == stack_log_dets(stack[passes]).tobytes()
        if n > 1:
            # Cholesky accepts matrices the gate refuses, and refuses none here.
            assert not passes.all()
            np.linalg.cholesky(stack)

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_certificate_spares_eigvalsh(self, n, eigvalsh_inputs):
        # The certificate decides most of these stacks, and eigvalsh sees
        # exactly the matrices it leaves open.
        stack = planted_stack(n, 1.0, seed=1)
        passes, _ = pd_log_dets(stack)
        uncertified = stack[~certified(stack)]
        assert 0 < len(uncertified) < len(stack)
        assert np.concatenate(eigvalsh_inputs).tobytes() == uncertified.tobytes()
        assert passes[certified(stack)].all()

    @pytest.mark.parametrize("entries", [1e-250, 1e308])
    def test_extreme_traces_go_to_eigvalsh(self, entries, eigvalsh_inputs):
        # A trace below 1e-200 or past float64's range certifies nothing,
        # and the overflowing trace warns nothing (tier-1 fails on warnings).
        stack = np.array([entries * np.eye(3), entries * np.diag([1.0, 1.0, 0.5])])
        passes, log_dets = pd_log_dets(stack)
        assert passes.all()
        assert np.concatenate(eigvalsh_inputs).tobytes() == stack.tobytes()
        assert log_dets.tobytes() == stack_log_dets(stack).tobytes()

    def test_mcd_shape_needs_no_eigvalsh(self, eigvalsh_inputs):
        # 13 Gaussian inliers and 4 outliers at distance 100 in R^3, with
        # h = 10: every one of the C(17, 10) covariances is certified.
        from affinecost.cost import DET_COST
        from affinecost.mcd import Dataset, mcd_estimate

        rng = np.random.default_rng(14)
        points = np.vstack([rng.standard_normal((13, 3)),
                            [100.0, 0.0, 0.0] + 0.5 * rng.standard_normal((4, 3))])
        result = mcd_estimate(Dataset(points), 10, DET_COST)
        assert max(result.subset) < 13
        assert result.degenerate_subsets == 0
        assert sum(len(s) for s in eigvalsh_inputs) == 0

    @pytest.mark.parametrize("bad", ["singular", "indefinite", "zero"])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_mixed_stacks_match_eigvalsh(self, n, bad):
        # A matrix Cholesky refuses sends the whole stack to eigvalsh: the
        # positions and log-dets, and gate_pd's message, are as before.
        rng = np.random.default_rng([2, n])
        v = rng.standard_normal((n, 1))
        bad_matrix = {"singular": v @ v.T if n > 1 else np.zeros((1, 1)),
                      "indefinite": np.diag(np.linspace(-1.0, 2.0, n)) if n > 1 else -np.eye(1),
                      "zero": np.zeros((n, n))}[bad]
        good = [random_pd(n, seed).entries for seed in range(3)]
        stack = np.array([good[0], bad_matrix, good[1], good[2]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(stack)
        passes, log_dets = pd_log_dets(stack)
        eigenvalues, expected = _pd_eigenvalues(stack)
        assert passes.tolist() == expected.tolist() == [True, False, True, True]
        assert log_dets.tobytes() == stack_log_dets(stack[passes]).tobytes()
        low, high = eigenvalues[1][[0, -1]]
        message = ("matrix is not positive definite within tolerance "
                   f"(eigenvalue range [{low:.3e}, {high:.3e}])")
        with pytest.raises(NotPositiveDefiniteError, match=re.escape(message)):
            gate_pd(stack)

    def test_gate_pd_log_dets_are_log_det(self):
        stack = np.array([random_pd(4, seed).entries for seed in range(5)])
        assert gate_pd(stack).tolist() == [log_det(SymPosDefMatrix(m)) for m in stack]

    # What the fallback relies on, pinned for every numpy the package
    # accepts: stacked Cholesky raises if any matrix fails, and reads the
    # lower triangle, as eigvalsh does.
    def test_stacked_cholesky_raises_on_any_failure(self):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(np.array([np.eye(2), np.eye(2), np.diag([1.0, -1.0])]))

    def test_cholesky_reads_the_lower_triangle_as_eigvalsh(self):
        lower = np.array([[4.0, 100.0], [2.0, 5.0]])
        symmetric = np.array([[4.0, 2.0], [2.0, 5.0]])
        assert np.linalg.cholesky(lower).tolist() == np.linalg.cholesky(symmetric).tolist()
        assert np.linalg.eigvalsh(lower).tolist() == np.linalg.eigvalsh(symmetric).tolist()


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
        M = SymPosDefMatrix(np.eye(3))
        with pytest.raises(ValueError):
            M.entries[0, 0] = 2.0


class TestCongruence:
    def test_identity_transform(self):
        M = random_pd(3, 5)
        out = congruence(M, InvertibleMatrix(np.eye(3)))
        assert np.abs(out.entries - M.entries).max() < 1e-15

    def test_identity_input_gives_gram(self):
        A = random_gl(3, 9)
        out = congruence(SymPosDefMatrix(np.eye(3)), A)
        expected = A.entries.T @ A.entries
        assert np.abs(out.entries - expected).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            congruence(SymPosDefMatrix(np.eye(2)), random_gl(3, 1))

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
        assert log_det(SymPosDefMatrix(np.eye(5))) == 0.0

    def test_diagonal(self):
        assert log_det(SymPosDefMatrix(np.diag([2.0, 3.0]))) == pytest.approx(math.log(6.0), abs=1e-12)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 10.0])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_scalar_matrices(self, s, n):
        assert abs(log_det(SymPosDefMatrix(s * np.eye(n))) - n * math.log(s)) <= 1e-12

    @given(seed=seeds, n=dims)
    def test_gram_against_permutation_oracle(self, seed, n):
        A = random_gl(n, seed)
        gram = congruence(SymPosDefMatrix(np.eye(n)), A)
        expected = 2.0 * math.log(abs(det_permutation(A.entries)))
        assert abs(log_det(gram) - expected) <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_stacked_log_dets_match_log_det(self, n):
        # One formula serves both: a stacked log-det has log_det's bits.
        matrices = [random_pd(n, seed) for seed in range(50)]
        passes, log_dets = pd_log_dets(np.array([M.entries for M in matrices]))
        assert passes.all()
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


# The samplers written with one sized draw per call, as (m, n, n) and
# (m, n) blocks filled trial by trial: the reference the stacked samplers'
# in-place draws must match bit for bit.

def _reference_gaussians(n, rngs):
    g = np.empty((len(rngs), n, n))
    for j, rng in enumerate(rngs):
        g[j] = rng.standard_normal((n, n))
    return g


def _reference_pd(n, rngs):
    g = _reference_gaussians(n, rngs)
    gram = g.transpose(0, 2, 1) @ g
    gram = (gram + gram.transpose(0, 2, 1)) / 2.0
    shift = PD_SHIFT * np.trace(gram, axis1=1, axis2=2) / n
    return gram + shift[:, None, None] * np.eye(n)


def _reference_gl(n, rngs, unit_det=False):
    half_width = 0.5 * math.log(SAMPLER_CONDITION_CAP)
    g = np.empty((len(rngs), n, n))
    log_s = np.empty((len(rngs), n))
    for j, rng in enumerate(rngs):
        g[j] = rng.standard_normal((n, n))
        log_s[j] = rng.uniform(-half_width, half_width, n)
    p, _, qt = np.linalg.svd(g)
    if unit_det:
        log_s -= log_s.sum(-1, keepdims=True) / n
    s = np.exp(log_s)
    if unit_det:
        s[np.linalg.det(g) < 0.0, 0] *= -1.0
    return (p * s[:, None, :]) @ qt


def _reference_orthogonal(n, rngs):
    q, r = np.linalg.qr(_reference_gaussians(n, rngs))
    return q * np.where(r.diagonal(0, -2, -1) >= 0.0, 1.0, -1.0)[:, None, :]


class TestDrawParity:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 16, 64])
    def test_stacked_draws_match_sized_draws(self, n):
        samplers = [
            (random_pd_stack, _reference_pd),
            (random_gl_stack, _reference_gl),
            (lambda n, rngs: random_gl_stack(n, rngs, unit_det=True),
             lambda n, rngs: _reference_gl(n, rngs, unit_det=True)),
            (random_orthogonal_stack, _reference_orthogonal),
        ]
        trials = 3 if n == 64 else 25
        for k, (stacked, reference) in enumerate(samplers):
            seeds = [[k, n, t] for t in range(trials)]
            rngs = [np.random.default_rng(seed) for seed in seeds]
            expected_rngs = [np.random.default_rng(seed) for seed in seeds]
            # Twice over the same streams: the second call starts where the
            # first left each stream.
            for _ in range(2):
                got = stacked(n, rngs)
                assert got.tobytes() == reference(n, expected_rngs).tobytes()
            for rng, expected in zip(rngs, expected_rngs):
                assert rng.bit_generator.state == expected.bit_generator.state
                assert rng.random() == expected.random()


class TestSamplerGuarantees:
    # The harness gates only the stacks it scores: its GL, SL and Haar
    # draws, and their grams A^T I A, hold their gates by construction.
    # Margins on these draws: condition numbers up to 29.87 against the
    # cap of 30, orthogonality defects up to 1.8e-15 against 1e-10, and
    # gram eigenvalue ratios down to 1.1e-3 against 1e-10.
    def test_draws_pass_their_gates(self):
        for n in range(1, MAX_DIM + 1):
            trials = 100 if n <= 16 else 20
            rngs = [np.random.default_rng([3, n, t]) for t in range(trials)]
            for unit_det in (False, True):
                A = random_gl_stack(n, rngs, unit_det=unit_det)
                assert gate_invertible(A) is A
                assert (np.linalg.cond(A) < SAMPLER_CONDITION_CAP).all()
                gate_pd(congruence_stack(np.eye(n)[None], A))
            Q = random_orthogonal_stack(n, rngs)
            assert gate_orthogonal(Q) is Q


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
