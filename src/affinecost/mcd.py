"""Minimum covariance determinant mean estimation, with pluggable costs.

The estimator enumerates every size-h subset of the data, scores each
subset by a cost of its covariance matrix (the determinant by default),
and returns the mean of the best one. Enumeration is exhaustive by design:
the contract is the exact argmin over subsets, so heuristic search is out
of scope and a combinatorial guard keeps runs at desk scale.

Subsets are scored in lexicographic chunks of CHUNK_SUBSETS. A chunk's
index array is looked up in two small lexicographic tables, of the
subsets' first and last indices, with no Python step per subset
(_lex_chunks). Its covariances are built as one stack from one
point-major gather, each with the same bits in any stack
(_covariance_stack), and one batched Cholesky both passes
it through SymPosDefMatrix's gate and gives its log-dets
(linalg.pd_log_dets). eigvalsh decides only the covariances the
Cholesky's certificate leaves open, or the whole chunk when Cholesky
refuses one of its covariances, as it does most degenerate ones; either
way the gate decides as eigvalsh alone would. One call of the cost's
array map f.value(stack, log_dets) then scores every passing covariance
of the chunk, with no per-subset matrix or cost value.

Ties are settled by a chain in scan order: the first nondegenerate
subset is the incumbent, and a later subset replaces it only when lower
by more than COST_REL_TOL * max(|best|, |value|). The answer does not
depend on the chunking, and scaling the data (every determinant by one
factor) keeps the winner. It is not always the lexicographically
smallest subset within the band of the minimum: with the values 1,
1 - 0.6e-8, 1 - 1.2e-8 and 5 on the subsets (0, 1, 2), (0, 1, 3),
(0, 2, 3) and (1, 2, 3), (0, 1, 3) is within the band of the incumbent
(0, 1, 2) and does not replace it, (0, 2, 3) is more than a band below
it and does, and the answer is (0, 2, 3), though (0, 1, 3) is within the
band of that minimum. ROADMAP item 4 plans the lexicographic rule. Cost
values are nonnegative, so a subset that replaces the incumbent is below
every value scored before it, and the chain visits only those strict
running minima. The reported CostValue is f(subset_covariance(best)),
built for the winner alone.

With the determinant cost the estimator is affine equivariant:
transforming the data by x -> A x + b moves the estimate the same way.
check_equivariance verifies that directly for a given dataset.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .cost import CostFunction, CostValue, COST_REL_TOL
from .linalg import MAX_DIM, NotPositiveDefiniteError, SymPosDefMatrix, is_float, pd_log_dets

MAX_SUBSETS = 10**6

# Subsets scored per covariance stack. On the mcd benchmark's inputs
# (C(17, 10) subsets of points in R^3) an estimate peaks at 36.6 MB RSS.
# Larger chunks run faster (ROADMAP small mends), but six test ids embed
# this value, so a change renames them.
CHUNK_SUBSETS = 256


class DegenerateSubsetError(ValueError):
    """Subset covariance failed the positive definiteness gate."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ordered point cloud in R^n, stored as a (k, n) float array."""

    points: np.ndarray

    def __post_init__(self):
        arr = np.array(self.points, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected a (k, n) point array, got shape {arr.shape}")
        k, n = arr.shape
        if k < 1:
            raise ValueError("dataset needs at least one point")
        if not 1 <= n <= MAX_DIM:
            raise ValueError(f"point dimension must be in [1, {MAX_DIM}], got {n}")
        if not np.isfinite(arr).all():
            raise ValueError("dataset entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    @property
    def k(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """Estimator output: the mean of the winning subset, the subset itself
    (strictly increasing indices), its cost, and how much work was done."""

    mean: np.ndarray
    subset: tuple
    cost_value: CostValue
    subsets_examined: int
    degenerate_subsets: int


def _check_indices(dataset: Dataset, indices) -> tuple:
    subset = tuple(int(i) for i in indices)
    if not subset:
        raise ValueError("index subset must be nonempty")
    for i in subset:
        if not 0 <= i < dataset.k:
            raise ValueError(f"index {i} out of range for {dataset.k} points")
    return subset


def subset_mean(dataset: Dataset, indices) -> np.ndarray:
    """Arithmetic mean of the selected points."""
    subset = _check_indices(dataset, indices)
    return dataset.points[list(subset)].mean(axis=0)


def _covariance_stack(points: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Covariances of the index rows of an (m, h) array, each about its own
    mean, divided by h and symmetrized as (C + C^T)/2, as one (m, n, n)
    stack.

    The points are gathered point-major, as an (h, m, n) array, so that
    the sums and differences run over long contiguous rows. Each mean is
    its points' sum divided by h, added in index order for n > 1; for
    n = 1 the sum runs along a contiguous h axis, which numpy adds
    pairwise from h = 8 on. These are the orders of numpy's mean over the
    h axis of an (m, h, n) gather, under which the goldens were written.

    Points are finite, so a non-finite covariance can only come from
    float64 overflow; that raises ValueError instead of a numpy warning.
    Each centered matrix starts on a 16-byte boundary (np.empty's buffer
    is malloc's, and its rows have an even length), so that OpenBLAS's SSE
    kernels (Prescott), whose summation order follows the operand's
    alignment, give a covariance the same bits in any stack.
    """
    m, h = subsets.shape
    n = points.shape[1]
    rows = np.take(points, subsets.T, axis=0)
    centered = np.empty((m, h * n + h * n % 2))[:, :h * n].reshape(m, h, n)
    with np.errstate(over="ignore", invalid="ignore"):
        if n == 1:
            sums = np.take(points[:, 0], subsets).sum(axis=1, keepdims=True)
        else:
            sums = rows.sum(axis=0)
        rows -= sums / h
        centered[...] = rows.transpose(1, 0, 2)
        stack = centered.transpose(0, 2, 1) @ centered
        stack /= h
        # numpy buffers the overlapping operand: this adds C and C^T.
        stack += stack.transpose(0, 2, 1)
        stack /= 2.0
    if not np.isfinite(stack).all():
        raise ValueError("subset covariance overflows float64; matrix entries must be finite")
    return stack


def _combinations(lo: int, hi: int, r: int) -> np.ndarray:
    """The r-subsets of range(lo, hi) in lexicographic order, as the rows
    of a (C(hi - lo, r), r) index array."""
    count = math.comb(hi - lo, r)
    return np.fromiter(chain.from_iterable(combinations(range(lo, hi), r)), np.intp,
                       count * r).reshape(count, r)


def _lex_chunks(k: int, h: int, size: int):
    """The h-subsets of range(k) in lexicographic order, in consecutive
    (m, h) index arrays of size rows (the last may be shorter).

    A subset is a head, its first h - t indices, and a tail, its last
    t = h // 2. The subsets of a head ending in L are that head with each
    of the last C(k - 1 - L, t) rows of the tail table, the tails whose
    first index exceeds L. Each chunk looks up the head and tail of its
    positions, with no Python step per subset; neither table has more
    than C(k, h) rows.
    """
    t = h // 2
    heads = _combinations(0, k - t, h - t)
    tails = _combinations(h - t, k, t)
    # A head ends in some L from h - t - 1 to k - t - 1, so no run is
    # longer than the tail table; smaller L would overflow int64.
    low = h - t - 1
    runs = np.array([math.comb(k - 1 - last, t) for last in range(low, k - t)],
                    np.intp)[heads[:, -1] - low]
    ends = np.cumsum(runs)
    total = int(ends[-1])
    # Position p under head i is p - (ends[i] - runs[i]) into the head's
    # run of tails, which starts at row len(tails) - runs[i].
    shift = len(tails) - ends
    for first in range(0, total, size):
        position = np.arange(first, min(first + size, total))
        head = np.searchsorted(ends, position, side="right")
        yield np.concatenate((heads[head], tails[position + shift[head]]), axis=1)


def subset_covariance(dataset: Dataset, indices) -> SymPosDefMatrix:
    """Covariance of the selected points about their own mean, divided by
    the number of points h (the scatter-matrix convention).

    Requires at least n + 1 points; raises DegenerateSubsetError when the
    points do not span (covariance not positive definite).
    """
    subset = _check_indices(dataset, indices)
    n = dataset.n
    h = len(subset)
    if h <= n:
        raise ValueError(f"need at least {n + 1} points for a full-rank covariance, got {h}")
    cov = _covariance_stack(dataset.points, np.array([subset]))[0]
    try:
        return SymPosDefMatrix(cov)
    except NotPositiveDefiniteError as exc:
        raise DegenerateSubsetError(f"degenerate subset {subset}: {exc}") from exc


def mcd_estimate(dataset: Dataset, h: int, f: CostFunction) -> EstimateResult:
    """Exhaustive minimum-cost-covariance estimate.

    Enumerates all h-subsets in lexicographic order, skips degenerate
    ones, and minimizes f over subset covariances. The dataset needs at
    least n + 1 points, and n + 1 <= h <= k. A later subset replaces the
    incumbent only when lower by more than the relative band
    COST_REL_TOL, the scan-order chain of the module docstring, which
    does not always keep the lexicographically smallest subset within
    the band of the minimum. The reported cost is
    f(subset_covariance(dataset, best)), and the subset a tuple of ints.
    """
    k, n = dataset.k, dataset.n
    if k < n + 1:
        # Otherwise the bounds below would name an empty range.
        raise ValueError(f"MCD needs at least n + 1 = {n + 1} points in {n} "
                         f"dimension{'s' * (n != 1)}, and the input has {k}")
    if not (n + 1 <= h <= k):
        raise ValueError(f"h must satisfy {n + 1} <= h <= {k}, got {h}")
    total = math.comb(k, h)
    if total > MAX_SUBSETS:
        raise ValueError(f"C({k}, {h}) = {total} subsets exceeds the {MAX_SUBSETS} guard")
    best_subset = best = None
    degenerate = 0
    lowest = math.inf
    for chunk in _lex_chunks(k, h, CHUNK_SUBSETS):
        stack = _covariance_stack(dataset.points, chunk)
        passes, log_dets = pd_log_dets(stack)
        positions = np.flatnonzero(passes)
        degenerate += len(chunk) - len(positions)
        values = f.value(stack if len(positions) == len(chunk) else stack[positions], log_dets)
        # Costs are nonnegative, so a value that replaces the incumbent lies
        # below every value since the last replacement: only strict
        # running minima can win.
        running = np.minimum.accumulate(np.concatenate(([lowest], values)))
        minima = np.flatnonzero(values < running[:-1])
        for j, value in zip(positions[minima].tolist(), values[minima].tolist()):
            if best_subset is None or best - value > COST_REL_TOL * max(abs(best), abs(value)):
                best_subset, best = tuple(chunk[j].tolist()), value
        lowest = float(running[-1])
    if best_subset is None:
        raise ValueError("every subset is degenerate; no estimate exists")
    return EstimateResult(
        mean=subset_mean(dataset, best_subset),
        subset=best_subset,
        cost_value=f(subset_covariance(dataset, best_subset)),
        subsets_examined=total,
        degenerate_subsets=degenerate,
    )


def affine_transform_dataset(dataset: Dataset, A, shift) -> Dataset:
    """Apply x -> A x + shift to every point."""
    b = np.asarray(shift, dtype=np.float64)
    if A.n != dataset.n or b.shape != (dataset.n,):
        raise ValueError(
            f"transform dimension mismatch: points are {dataset.n}-dimensional, "
            f"A is {A.n}x{A.n}, shift has shape {b.shape}"
        )
    return Dataset(dataset.points @ A.entries.T + b)


@dataclass(frozen=True, eq=False)
class EquivarianceCheck:
    equivariant: bool
    lhs: np.ndarray
    rhs: np.ndarray
    subsets_agree: bool


def check_equivariance(dataset: Dataset, h: int, A, shift, f: CostFunction,
                       rel_tol: float = 1e-8) -> EquivarianceCheck:
    """Compare the estimate of the transformed data (lhs) against the
    transformed estimate A * T(X) + shift (rhs)."""
    base = mcd_estimate(dataset, h, f)
    moved = mcd_estimate(affine_transform_dataset(dataset, A, shift), h, f)
    rhs = A.entries @ base.mean + np.asarray(shift, dtype=np.float64)
    lhs = moved.mean
    err = float(np.abs(lhs - rhs).max())
    ok = err <= rel_tol * max(1.0, float(np.abs(rhs).max()))
    return EquivarianceCheck(ok, lhs, rhs, base.subset == moved.subset)


def parse_dataset_csv(text: str) -> Dataset:
    """Parse dataset CSV: one point per row, n columns, optional header.

    A first row with any non-numeric field is treated as a header. Errors
    carry line and column positions.
    """
    rows = []
    reader = csv.reader(io.StringIO(text))
    raw = [(lineno, row) for lineno, row in enumerate(reader, start=1)
           if any(field.strip() for field in row)]
    if not raw:
        raise ValueError("empty dataset")
    start = 0
    if not all(is_float(field) for field in raw[0][1]):
        start = 1
        if len(raw) == 1:
            raise ValueError("dataset has a header but no data rows")
    width = len(raw[start][1])
    for lineno, row in raw[start:]:
        if len(row) != width:
            raise ValueError(f"line {lineno}: expected {width} columns, got {len(row)}")
        values = []
        for colno, field in enumerate(row, start=1):
            try:
                values.append(float(field))
            except ValueError:
                raise ValueError(
                    f"line {lineno}, column {colno}: not a number: {field.strip()!r}"
                ) from None
        rows.append(values)
    return Dataset(np.array(rows, dtype=np.float64))
