import math
import re
from itertools import chain, combinations, islice

import numpy as np
import pytest

from affinecost import mcd as mcd_module
from affinecost.cost import (
    COST_REL_TOL,
    DET_COST,
    IDENTITY_COST,
    TRACE_COST,
    CostFunction,
    KernelSpec,
    factored_cost,
)
from affinecost.linalg import InvertibleMatrix, random_gl
from affinecost.mcd import (
    CHUNK_SUBSETS,
    Dataset,
    DegenerateSubsetError,
    _covariance_stack,
    _lex_chunks,
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

    def test_too_few_points_for_any_h(self):
        # k < n + 1 leaves no valid h; the message names the point count
        # instead of an empty range of h.
        for points, needed in (([[1.0, 2.0]], "n + 1 = 3 points in 2 dimensions"),
                               ([[1.0]], "n + 1 = 2 points in 1 dimension,")):
            for h in (1, 2, 3):
                with pytest.raises(ValueError, match="MCD needs at least") as info:
                    mcd_estimate(Dataset(points), h, DET_COST)
                assert needed in str(info.value)
                assert str(info.value).endswith("the input has 1")

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

    def test_mean_recomputable_from_subset(self):
        result = mcd_estimate(CLUSTER_2D, 3, DET_COST)
        assert np.array_equal(result.mean, subset_mean(CLUSTER_2D, result.subset))

    def test_quantized_cost_accepted(self):
        result = mcd_estimate(CLUSTER_2D, 3, factored_cost(KernelSpec.lattice(1.0)))
        assert len(result.subset) == 3

    def test_subset_is_a_tuple_of_ints(self):
        # Not numpy integers: the subset is serialized and compared as is.
        for data, h in [(ONE_D_FIXTURE, 3), (CLUSTER_2D, 3)]:
            subset = mcd_estimate(data, h, DET_COST).subset
            assert type(subset) is tuple
            assert all(type(i) is int for i in subset)


def reference_mcd(dataset, h, f):
    """The estimator as a plain loop: f(subset_covariance(...)) for every
    h-subset in lexicographic order, under the same tie-band scan.
    Returns (subset, cost value, examined, degenerate)."""
    best_subset, best_value = None, None
    examined = degenerate = 0
    for subset in combinations(range(dataset.k), h):
        examined += 1
        try:
            value = f(subset_covariance(dataset, subset))
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
    # "h-1" scales the points by sqrt(h / (h - 1)), so their covariances
    # are the sample covariances (divided by h - 1) of the unscaled ones.
    @pytest.mark.parametrize("normalization", ["h", "h-1"])
    @pytest.mark.parametrize("f", PARITY_COSTS, ids=[f.name for f in PARITY_COSTS])
    @pytest.mark.parametrize("n,k,h", PARITY_SHAPES)
    def test_matches_reference_loop(self, n, k, h, f, normalization):
        for seed in range(2):
            data = parity_dataset(n, k, h, seed)
            if normalization == "h-1":
                data = Dataset(data.points * math.sqrt(h / (h - 1)))
            subset, value, examined, degenerate = reference_mcd(data, h, f)
            result = mcd_estimate(data, h, f)
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
        assert chunk_number(24, 2, (0, 17)) != chunk_number(24, 2, (17, 19))
        tied = [subset_covariance(data, s).entries for s in [(0, 17), (17, 19)]]
        assert tied[0][0, 0] == tied[1][0, 0] == 0.25
        for f in PARITY_COSTS[:3]:
            result = mcd_estimate(data, 2, f)
            assert result.subset == (0, 17)
            assert result.subset == reference_mcd(data, 2, f)[0]

    @pytest.mark.parametrize("n,k,h", [(1, 68, 67), (2, 70, 68)])
    def test_leave_few_out_on_many_points(self, n, k, h):
        # The lookup tables stay small when h is near k, but the tail runs
        # of heads that cannot occur would not fit in int64.
        points = np.random.default_rng([k, h]).standard_normal((k, n))
        points[-1] = points[0]
        data = Dataset(points)
        subset, value, examined, degenerate = reference_mcd(data, h, DET_COST)
        result = mcd_estimate(data, h, DET_COST)
        assert result.subset == subset
        assert result.subsets_examined == examined == math.comb(k, h)
        assert result.degenerate_subsets == degenerate
        assert result.cost_value.canonical == value.canonical

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


class TestCholeskyFallback:
    # A chunk holding a degenerate subset whose covariance Cholesky
    # refuses is gated by eigvalsh as a whole; the PD subsets beside it
    # keep their log-dets, whatever the chunk size.

    @pytest.mark.parametrize("chunk", [1, 3, CHUNK_SUBSETS])
    @pytest.mark.parametrize("f", PARITY_COSTS, ids=[f.name for f in PARITY_COSTS])
    def test_refused_chunks_match_reference_loop(self, chunk, f, monkeypatch):
        monkeypatch.setattr("affinecost.mcd.CHUNK_SUBSETS", chunk)
        n, k, h = 2, 10, 5
        for seed in range(2):
            data = parity_dataset(n, k, h, seed)
            subset, value, examined, degenerate = reference_mcd(data, h, f)
            result = mcd_estimate(data, h, f)
            assert result.subset == subset
            assert result.degenerate_subsets == degenerate >= 1
            assert result.cost_value.canonical == value.canonical
            if chunk > 1:
                assert mixed_refused_chunks(data, h, chunk) >= 1


def mixed_refused_chunks(dataset, h, chunk):
    """Chunks of chunk subsets, as mcd_estimate forms them, on whose
    covariance stack Cholesky raises and which hold both degenerate and
    positive definite subsets."""
    found = 0
    for rows in _lex_chunks(dataset.k, h, chunk):
        stack = _covariance_stack(dataset.points, rows)
        try:
            np.linalg.cholesky(stack)
            continue
        except np.linalg.LinAlgError:
            pass
        flags = []
        for s in rows.tolist():
            try:
                subset_covariance(dataset, s)
                flags.append(False)
            except DegenerateSubsetError:
                flags.append(True)
        found += any(flags) and not all(flags)
    return found


def ladder_cost(dataset, h, values):
    """A control cost whose value on each subset covariance is the next
    of values, in lexicographic subset order; degenerate subsets take
    none, and a covariance met again keeps its first value."""
    table = {}
    ladder = iter(values)
    for subset in combinations(range(dataset.k), h):
        try:
            entries = subset_covariance(dataset, subset).entries
        except DegenerateSubsetError:
            continue
        table.setdefault(entries.tobytes(), next(ladder))
    return CostFunction("ladder", "ladder",
                        lambda stack, log_dets: np.array([table[e.tobytes()] for e in stack]))


def band_ladders(count, scale, seed):
    """Descending ladders with steps of 0 to 1.3 tie bands, some exactly
    0, each starting within two bands of the previous ladder's foot, with
    a far value between ladders."""
    rng = np.random.default_rng(seed)
    values, top = [], scale
    while len(values) < count:
        steps = rng.uniform(0.0, 1.3, int(rng.integers(2, 9)))
        steps[rng.random(len(steps)) < 0.2] = 0.0
        ladder = top * np.cumprod(1.0 - COST_REL_TOL * steps)
        values.extend(ladder.tolist() + [5.0 * scale])
        top = ladder[-1] * (1.0 + COST_REL_TOL * rng.uniform(-2.0, 2.0))
    return values[:count]


class TestRunningMinimaFilter:
    # mcd_estimate visits only strict running minima of each chunk's
    # values; reference_mcd runs the tie chain over every subset.

    @pytest.mark.parametrize("chunk", [1, 2, 3, CHUNK_SUBSETS])
    @pytest.mark.parametrize("n,k,h", [(1, 9, 4), (2, 10, 5)])
    def test_matches_unfiltered_chain(self, n, k, h, chunk, monkeypatch):
        monkeypatch.setattr("affinecost.mcd.CHUNK_SUBSETS", chunk)
        chain_not_argmin = 0
        for seed in range(3):
            data = parity_dataset(n, k, h, seed)
            for scale in (1.0, 1e-6):
                values = band_ladders(math.comb(k, h), scale, [seed, n, k])
                f = ladder_cost(data, h, values)
                subset, value, examined, degenerate = reference_mcd(data, h, f)
                result = mcd_estimate(data, h, f)
                assert degenerate >= 1
                assert result.subset == subset
                assert result.cost_value.canonical == value.canonical
                assert result.degenerate_subsets == degenerate
                chain_not_argmin += value.canonical != min(values)
        # The tie band decides: the chain's winner is often not the minimum.
        assert chain_not_argmin >= 3

    def test_band_chain_pinned(self):
        # Today's chain: (0, 1, 3) is within the band of (0, 1, 2) and does
        # not replace it; (0, 2, 3) is more than a band below and does.
        # ROADMAP item 4's lexicographic rule changes this on purpose, to
        # (0, 1, 3), the smallest subset within the band of the minimum.
        data = Dataset([[0.0], [1.0], [3.0], [7.0]])
        f = ladder_cost(data, 3, [1.0, 1.0 - 0.6e-8, 1.0 - 1.2e-8, 5.0])
        assert mcd_estimate(data, 3, f).subset == (0, 2, 3)
        assert reference_mcd(data, 3, f)[0] == (0, 2, 3)


def chunk_number(k, h, subset):
    """The number of the chunk mcd_estimate scores subset in."""
    for number, chunk in enumerate(_lex_chunks(k, h, CHUNK_SUBSETS)):
        if list(subset) in chunk.tolist():
            return number
    raise AssertionError(f"{subset} is in no chunk")


def reference_covariance_stack(points, subsets):
    """The covariance formula the goldens were written under: an (m, h, n)
    fancy gather, its mean over axis 1, and a new array at each step."""
    rows = points[subsets]
    m, h, n = rows.shape
    centered = np.empty((m, h * n + h * n % 2))[:, :h * n].reshape(m, h, n)
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(rows, rows.mean(axis=1, keepdims=True), out=centered)
        cov = centered.transpose(0, 2, 1) @ centered / h
        stack = (cov + cov.transpose(0, 2, 1)) / 2.0
    if not np.isfinite(stack).all():
        raise ValueError("subset covariance overflows float64; matrix entries must be finite")
    return stack


class TestCovarianceStackBits:
    # Every covariance keeps the reference formula's bits, or goldens and
    # answers move. Its mean sums the h points pairwise when n = 1 and
    # h >= 8, and in index order otherwise.

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_reference_formula(self, n):
        rng = np.random.default_rng([27, n])
        overflows = 0
        for trial in range(60):
            k = int(rng.integers(max(n + 1, 9 if n == 1 else 0), 21))
            h = int(rng.integers(max(n + 1, 8 if n == 1 and trial % 2 else 0), k + 1))
            m = int(rng.integers(1, 300))
            subsets = np.sort(rng.random((m, k)).argsort(axis=1)[:, :h], axis=1)
            scale = 10.0 ** (rng.uniform(160, 200) if trial % 10 == 9 else rng.uniform(-100, 100))
            points = rng.standard_normal((k, n)) * scale
            points[rng.random((k, n)) < 0.1] = -0.0
            points[-1] = points[0]
            try:
                expected = reference_covariance_stack(points, subsets).tobytes()
            except ValueError as exc:
                overflows += 1
                with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                    _covariance_stack(points, subsets)
                continue
            assert _covariance_stack(points, subsets).tobytes() == expected
        assert overflows >= 3


BUILD_TABLE = mcd_module._combinations


class TestLexChunks:
    # The tie chain runs in scan order, so the chunks must join to
    # itertools' lexicographic order exactly, whatever the chunk size.

    @staticmethod
    def joins_to_combinations(k, h, size, monkeypatch):
        built = []

        def recorded(lo, hi, r):
            table = BUILD_TABLE(lo, hi, r)
            built.append(len(table))
            return table

        monkeypatch.setattr(mcd_module, "_combinations", recorded)
        expected = combinations(range(k), h)
        chunks = list(_lex_chunks(k, h, size))
        for number, chunk in enumerate(chunks):
            m = len(chunk)
            assert m == size or number == len(chunks) - 1
            rows = np.fromiter(chain.from_iterable(islice(expected, m)), np.intp, m * h)
            assert np.array_equal(chunk, rows.reshape(m, h))
        assert next(expected, None) is None
        # No lookup table outgrows the enumeration it serves.
        assert len(built) == 2 and max(built) <= math.comb(k, h)

    @pytest.mark.parametrize("size", [1, 7, CHUNK_SUBSETS], ids=["1", "7", "default"])
    def test_every_small_shape(self, size, monkeypatch):
        # One subset per chunk is slow, so that size stops at k = 10.
        for k in range(1, 17 if size > 1 else 11):
            for h in range(1, k + 1):
                self.joins_to_combinations(k, h, size, monkeypatch)

    # At k = 68 and over, C(k - 1, h // 2) exceeds int64 when h is near k,
    # though no head ends early enough to take that many tails.
    @pytest.mark.parametrize("k,h", [(22, 11), (24, 20), (40, 3), (68, 67), (1000, 999)])
    def test_large_shapes(self, k, h, monkeypatch):
        self.joins_to_combinations(k, h, CHUNK_SUBSETS, monkeypatch)


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
