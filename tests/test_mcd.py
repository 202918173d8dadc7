import math
from itertools import combinations

import numpy as np
import pytest

from affinecost.cost import (
    COST_REL_TOL,
    DET_COST,
    IDENTITY_COST,
    TRACE_COST,
    KernelSpec,
    factored_cost,
)
from affinecost.linalg import InvertibleMatrix, random_gl
from affinecost.mcd import (
    CHUNK_SUBSETS,
    Dataset,
    DegenerateSubsetError,
    affine_transform_dataset,
    check_equivariance,
    mcd_estimate,
    parse_dataset_csv,
    subset_covariance,
    subset_mean,
)

from _oracles import brute_force_mcd

ONE_D_FIXTURE = Dataset([[0.0], [0.1], [0.2], [10.0]])
CLUSTER_2D = Dataset([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [5.0, 5.0], [5.1, 5.0]])

# Frozen by random search: trace-cost subset selection flips under this
# affine map while the determinant cost keeps the same winners.
TRACE_FLIP_POINTS = [
    [0.09671912405619901, -1.5591518413922796],
    [-0.26870603364939344, -1.3448111474077982],
    [-1.2707778590591046, -0.346953600730839],
    [0.85530027587691, 0.6308565040330028],
    [-0.6046580474158655, -0.7104208239983351],
    [-0.8274098970826956, 0.14274021925565974],
    [0.936650038779724, 0.01804985703847165],
    [0.6927666696591163, 0.3154090546513482],
]
TRACE_FLIP_A = [
    [1.5041856647552274, -2.0066907365561706],
    [-2.1310340831936396, -0.19843957784596147],
]
TRACE_FLIP_B = [0.6365395187683154, -0.410549281758414]
TRACE_FLIP_H = 5


class TestDataset:
    def test_shape_and_accessors(self):
        assert ONE_D_FIXTURE.k == 4
        assert ONE_D_FIXTURE.n == 1

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            Dataset([[1.0, 2.0], [3.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dataset(np.empty((0, 2)))


class TestSubsetMean:
    def test_single_point(self):
        assert subset_mean(ONE_D_FIXTURE, [3]) == pytest.approx([10.0])

    def test_three_points(self):
        assert subset_mean(ONE_D_FIXTURE, [0, 1, 2]) == pytest.approx([0.1])

    def test_full_dataset_is_centroid(self):
        got = subset_mean(CLUSTER_2D, range(5))
        assert got == pytest.approx(CLUSTER_2D.points.mean(axis=0))

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            subset_mean(ONE_D_FIXTURE, [])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            subset_mean(ONE_D_FIXTURE, [4])


class TestSubsetCovariance:
    def test_one_dimensional_hand_value(self):
        # (1/3) * (0.01 + 0 + 0.01) = 0.006667 to three significant figures.
        cov = subset_covariance(ONE_D_FIXTURE, [0, 1, 2])
        assert cov.entries[0, 0] == pytest.approx(0.00667, abs=5e-6)

    def test_standard_basis_triple(self):
        data = Dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        cov = subset_covariance(data, [0, 1, 2])
        expected = np.array([[2.0 / 3.0, -1.0 / 3.0], [-1.0 / 3.0, 2.0 / 3.0]]) / 3.0
        assert np.abs(cov.entries - expected).max() < 1e-15

    def test_equal_points_degenerate(self):
        data = Dataset([[1.0], [1.0], [1.0]])
        with pytest.raises(DegenerateSubsetError):
            subset_covariance(data, [0, 1, 2])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            subset_covariance(CLUSTER_2D, [0, 1])

    def test_sample_normalization(self):
        by_h = subset_covariance(ONE_D_FIXTURE, [0, 1, 2], normalization="h")
        by_h1 = subset_covariance(ONE_D_FIXTURE, [0, 1, 2], normalization="h-1")
        assert by_h1.entries[0, 0] == pytest.approx(by_h.entries[0, 0] * 3.0 / 2.0)

    def test_unknown_normalization(self):
        with pytest.raises(ValueError, match="normalization"):
            subset_covariance(ONE_D_FIXTURE, [0, 1, 2], normalization="n")


class TestMcdEstimate:
    def test_one_dimensional_fixture(self):
        result = mcd_estimate(ONE_D_FIXTURE, 3, DET_COST)
        oracle_subset, oracle_det, oracle_mean = brute_force_mcd(
            ONE_D_FIXTURE.points.tolist(), 3
        )
        assert result.subset == oracle_subset == (0, 1, 2)
        assert result.mean == pytest.approx(oracle_mean)
        assert result.mean == pytest.approx([0.1])
        assert result.cost_value.canonical == pytest.approx(oracle_det, rel=1e-9)
        assert result.subsets_examined == 4

    def test_two_dimensional_cluster(self):
        result = mcd_estimate(CLUSTER_2D, 3, DET_COST)
        oracle_subset, _, oracle_mean = brute_force_mcd(CLUSTER_2D.points.tolist(), 3)
        assert result.subset == oracle_subset == (0, 1, 2)
        assert result.mean == pytest.approx(oracle_mean)
        assert result.subsets_examined == 10

    def test_h_equal_k_examines_single_subset(self):
        result = mcd_estimate(ONE_D_FIXTURE, 4, DET_COST)
        assert result.subset == (0, 1, 2, 3)
        assert result.subsets_examined == 1
        assert result.mean == pytest.approx(ONE_D_FIXTURE.points.mean(axis=0))

    def test_h_bounds(self):
        with pytest.raises(ValueError, match="h must satisfy"):
            mcd_estimate(ONE_D_FIXTURE, 1, DET_COST)
        with pytest.raises(ValueError, match="h must satisfy"):
            mcd_estimate(ONE_D_FIXTURE, 5, DET_COST)

    def test_combinatorial_guard(self):
        big = Dataset(np.random.default_rng(0).standard_normal((40, 1)))
        with pytest.raises(ValueError, match="guard"):
            mcd_estimate(big, 20, DET_COST)

    def test_all_degenerate(self):
        flat = Dataset([[1.0], [1.0], [1.0]])
        with pytest.raises(ValueError, match="degenerate"):
            mcd_estimate(flat, 2, DET_COST)

    def test_degenerate_subsets_skipped_and_counted(self):
        data = Dataset([[0.0], [0.0], [1.0], [2.0]])
        result = mcd_estimate(data, 2, DET_COST)
        assert result.degenerate_subsets == 1  # the pair of equal points
        assert result.subsets_examined == 6

    def test_deterministic(self):
        a = mcd_estimate(CLUSTER_2D, 3, DET_COST)
        b = mcd_estimate(CLUSTER_2D, 3, DET_COST)
        assert a.subset == b.subset
        assert np.array_equal(a.mean, b.mean)

    def test_normalization_never_changes_winner(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            data = Dataset(rng.standard_normal((8, 2)))
            by_h = mcd_estimate(data, 4, DET_COST, normalization="h")
            by_h1 = mcd_estimate(data, 4, DET_COST, normalization="h-1")
            assert by_h.subset == by_h1.subset

    def test_mean_recomputable_from_subset(self):
        result = mcd_estimate(CLUSTER_2D, 3, DET_COST)
        assert np.array_equal(result.mean, subset_mean(CLUSTER_2D, result.subset))

    def test_quantized_cost_accepted(self):
        result = mcd_estimate(CLUSTER_2D, 3, factored_cost(KernelSpec.lattice(1.0)))
        assert len(result.subset) == 3


def reference_mcd(dataset, h, f, normalization="h"):
    """The estimator as a plain loop: f(subset_covariance(...)) for every
    h-subset in lexicographic order, under the same tie-band scan.
    Returns (subset, cost value, examined, degenerate)."""
    best_subset, best_value = None, None
    examined = degenerate = 0
    for subset in combinations(range(dataset.k), h):
        examined += 1
        try:
            value = f(subset_covariance(dataset, subset, normalization))
        except DegenerateSubsetError:
            degenerate += 1
            continue
        if best_value is None:
            best_subset, best_value = subset, value
            continue
        gap = best_value.canonical - value.canonical
        if gap > COST_REL_TOL * max(abs(best_value.canonical), abs(value.canonical)):
            best_subset, best_value = subset, value
    return best_subset, best_value, examined, degenerate


PARITY_COSTS = [DET_COST, factored_cost(KernelSpec.lattice(1.0)), TRACE_COST, IDENTITY_COST]
# (n, k, h): every shape but the first spans more than one chunk.
PARITY_SHAPES = [(1, 9, 4), (1, 11, 5), (2, 11, 5), (3, 12, 6), (4, 12, 7)]


def parity_dataset(n, k, h, seed):
    """Gaussian points with h + 1 of them moved onto the hyperplane
    x_0 = 0.5 (to a single point when n = 1), so h + 1 subsets are
    degenerate, and with the last point a copy of the first."""
    rng = np.random.default_rng([seed, n, k, h])
    points = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-2, 2)
    points[rng.choice(k - 1, size=h + 1, replace=False), 0] = 0.5
    points[-1] = points[0]
    return Dataset(points)


class TestChunkedParity:
    @pytest.mark.parametrize("normalization", ["h", "h-1"])
    @pytest.mark.parametrize("f", PARITY_COSTS, ids=[f.name for f in PARITY_COSTS])
    @pytest.mark.parametrize("n,k,h", PARITY_SHAPES)
    def test_matches_reference_loop(self, n, k, h, f, normalization):
        for seed in range(2):
            data = parity_dataset(n, k, h, seed)
            subset, value, examined, degenerate = reference_mcd(data, h, f, normalization)
            result = mcd_estimate(data, h, f, normalization)
            assert result.subset == subset
            assert result.subsets_examined == examined == math.comb(k, h)
            assert result.degenerate_subsets == degenerate
            if n == 1:
                assert degenerate >= 1
            assert result.cost_value.canonical == value.canonical
            assert result.cost_value.class_tag == value.class_tag

    def test_exact_tie_across_chunks_keeps_smallest_subset(self):
        # Pairs (0, 17) and (17, 19) both have variance exactly 0.25, and
        # every other pair is further apart; with 24 points they are
        # scored in different chunks.
        points = [10.0 * (i + 1) for i in range(24)]
        points[0], points[17], points[19] = 0.0, 1.0, 2.0
        data = Dataset([[x] for x in points])
        order = list(combinations(range(24), 2))
        assert order.index((0, 17)) // CHUNK_SUBSETS != order.index((17, 19)) // CHUNK_SUBSETS
        tied = [subset_covariance(data, s).entries for s in [(0, 17), (17, 19)]]
        assert tied[0][0, 0] == tied[1][0, 0] == 0.25
        for f in PARITY_COSTS[:3]:
            result = mcd_estimate(data, 2, f)
            assert result.subset == (0, 17)
            assert result.subset == reference_mcd(data, 2, f)[0]

    def test_reported_cost_is_a_lone_evaluation(self):
        # The report carries the CostValue of a lone evaluation of the
        # winner's covariance.
        data = Dataset(np.random.default_rng([6258, 7]).standard_normal((7, 2)))
        result = mcd_estimate(data, 4, DET_COST)
        assert result.subset == (0, 1, 2, 5)
        lone = DET_COST(subset_covariance(data, result.subset))
        assert result.cost_value.canonical == lone.canonical

    @pytest.mark.parametrize("scale", [1e-2, 1e-3])
    def test_winner_is_scale_invariant(self, scale):
        # Scaling the data scales every determinant by scale**4, so the
        # relative tie band keeps the winner; a band absolute below 1
        # would tie small determinants and pick the first subset.
        points = np.random.default_rng(3).standard_normal((10, 2))
        assert mcd_estimate(Dataset(points), 5, DET_COST).subset == (2, 5, 7, 8, 9)
        assert mcd_estimate(Dataset(points * scale), 5, DET_COST).subset == (2, 5, 7, 8, 9)

    @pytest.mark.parametrize("scale", [1e150, 1e-100])
    def test_determinant_outside_float64_range_raises(self, scale):
        # Determinants near 1e1200 overflow and near 1e-800 underflow to
        # 0.0, where every subset would tie.
        data = Dataset(np.random.default_rng(3).standard_normal((8, 2)) * scale)
        with pytest.raises(ValueError, match="float64 range"):
            mcd_estimate(data, 4, DET_COST)
        assert mcd_estimate(data, 4, factored_cost(KernelSpec.lattice(1.0))).subsets_examined == 70

    @pytest.mark.filterwarnings("error")
    def test_overflowing_covariance_raises(self):
        # Covariance entries near 1e400 overflow to inf: the stack must
        # raise like SymPosDefMatrix, not count the subsets degenerate, and
        # without a numpy overflow warning.
        data = Dataset(np.random.default_rng(3).standard_normal((8, 2)) * 1e200)
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            mcd_estimate(data, 4, DET_COST)


class TestAffineTransform:
    def test_identity_no_shift(self):
        out = affine_transform_dataset(CLUSTER_2D, InvertibleMatrix(np.eye(2)), [0.0, 0.0])
        assert np.array_equal(out.points, CLUSTER_2D.points)

    def test_shift_translates_centroid(self):
        out = affine_transform_dataset(CLUSTER_2D, InvertibleMatrix(np.eye(2)), [1.0, -2.0])
        expected = CLUSTER_2D.points.mean(axis=0) + np.array([1.0, -2.0])
        assert out.points.mean(axis=0) == pytest.approx(expected)

    def test_covariance_transforms_by_congruence(self):
        rng = np.random.default_rng(4)
        data = Dataset(rng.standard_normal((6, 3)))
        A = random_gl(3, 21)
        moved = affine_transform_dataset(data, A, rng.standard_normal(3))
        cov = subset_covariance(data, range(6)).entries
        moved_cov = subset_covariance(moved, range(6)).entries
        expected = A.entries @ cov @ A.entries.T
        assert np.abs(moved_cov - expected).max() <= 1e-9 * max(1.0, np.abs(expected).max())

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            affine_transform_dataset(CLUSTER_2D, InvertibleMatrix(np.eye(3)), [0.0] * 3)


class TestEquivariance:
    def test_identity_transform_trivially_equivariant(self):
        chk = check_equivariance(CLUSTER_2D, 3, InvertibleMatrix(np.eye(2)), [0.0, 0.0], DET_COST)
        assert chk.equivariant
        assert chk.subsets_agree

    def test_det_cost_equivariant_random_trials(self):
        rng = np.random.default_rng(77)
        accepted = 0
        attempts = 0
        while accepted < 30 and attempts < 200:
            attempts += 1
            n = int(rng.integers(2, 4))
            k = int(rng.integers(n + 3, 11))
            data = Dataset(rng.standard_normal((k, n)))
            h = int(rng.integers(n + 1, k))
            if math.comb(k, h) > 300:
                continue
            A = random_gl(n, int(rng.integers(0, 2**31)))
            b = rng.standard_normal(n)
            chk = check_equivariance(data, h, A, b, DET_COST)
            accepted += 1
            assert chk.equivariant and chk.subsets_agree, (n, k, h)
        assert accepted == 30

    def test_trace_cost_frozen_flip(self):
        data = Dataset(TRACE_FLIP_POINTS)
        A = InvertibleMatrix(TRACE_FLIP_A)
        chk = check_equivariance(data, TRACE_FLIP_H, A, TRACE_FLIP_B, TRACE_COST)
        assert not chk.subsets_agree
        assert not chk.equivariant
        det_chk = check_equivariance(data, TRACE_FLIP_H, A, TRACE_FLIP_B, DET_COST)
        assert det_chk.subsets_agree and det_chk.equivariant


class TestDatasetCsv:
    def test_plain_rows(self):
        data = parse_dataset_csv("0\n0.1\n0.2\n10\n")
        assert data.k == 4 and data.n == 1

    def test_header_skipped(self):
        data = parse_dataset_csv("x,y\n1,2\n3,4\n")
        assert data.k == 2 and data.n == 2

    def test_column_count_diagnostic(self):
        with pytest.raises(ValueError, match="line 3: expected 2 columns"):
            parse_dataset_csv("1,2\n3,4\n5\n")

    def test_bad_token_diagnostic(self):
        with pytest.raises(ValueError, match="line 2, column 2"):
            parse_dataset_csv("1,2\n3,oops\n")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_dataset_csv("\n\n")

    def test_header_only_rejected(self):
        with pytest.raises(ValueError, match="no data rows"):
            parse_dataset_csv("x,y\n")
