"""Minimum covariance determinant mean estimation, with pluggable costs.

The estimator enumerates every size-h subset of the data, scores each
subset by a cost of its covariance matrix (the determinant by default),
and returns the mean of the best one. Enumeration is exhaustive by design:
the contract is the exact argmin over subsets, so heuristic search is out
of scope and a combinatorial guard keeps runs at desk scale.

Subsets are scored in lexicographic chunks of CHUNK_SUBSETS: each chunk's
covariances are built as one stack, which one batched eigvalsh passes
through SymPosDefMatrix's gate and one batched Cholesky gives log-dets.
The float map f.value(entries, log_det) then scores each passing
covariance in order, with no per-subset matrix or cost value. A later
subset wins only when lower by more than COST_REL_TOL * max(|best|,
|value|), so the lexicographically smallest subset wins ties whatever the
chunking, and scaling the data (every determinant by one factor) keeps
the winner. The reported CostValue is f(subset_covariance(best)), built
for the winner alone.

With the determinant cost the estimator is affine equivariant:
transforming the data by x -> A x + b moves the estimate the same way.
check_equivariance verifies that directly for a given dataset.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .cost import CostFunction, CostValue, COST_REL_TOL
from .linalg import MAX_DIM, NotPositiveDefiniteError, SymPosDefMatrix, gate_stack, is_float

MAX_SUBSETS = 10**6

# Subsets scored per covariance stack. Larger chunks run no faster and
# hold more memory: on the mcd benchmark's inputs, chunks of 2,048 raised
# peak RSS from 36.5 MB to 40.4 MB.
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


def _denominator(h: int, normalization: str) -> int:
    if normalization == "h":
        return h
    if normalization == "h-1":
        return h - 1
    raise ValueError(f"unknown normalization {normalization!r}")


def _covariance_stack(points: np.ndarray, subsets: np.ndarray, denom: int) -> np.ndarray:
    """Covariances of the index rows of an (m, h) array, each about its own
    mean and symmetrized as (C + C^T)/2, as one (m, n, n) stack.

    Points are finite, so a non-finite covariance can only come from
    float64 overflow; that raises ValueError instead of a numpy warning.
    """
    rows = points[subsets]
    with np.errstate(over="ignore", invalid="ignore"):
        centered = rows - rows.mean(axis=1, keepdims=True)
        cov = centered.transpose(0, 2, 1) @ centered / denom
        stack = (cov + cov.transpose(0, 2, 1)) / 2.0
    if not np.isfinite(stack).all():
        raise ValueError("subset covariance overflows float64; matrix entries must be finite")
    return stack


def subset_covariance(dataset: Dataset, indices, normalization: str = "h") -> SymPosDefMatrix:
    """Covariance of the selected points about their own mean.

    normalization is "h" (scatter-matrix convention, the default) or
    "h-1" (sample covariance); the choice rescales every subset's
    determinant by the same factor, so it never changes an argmin.
    Requires at least n + 1 points; raises DegenerateSubsetError when the
    points do not span (covariance not positive definite).
    """
    subset = _check_indices(dataset, indices)
    n = dataset.n
    h = len(subset)
    if h <= n:
        raise ValueError(f"need at least {n + 1} points for a full-rank covariance, got {h}")
    denom = _denominator(h, normalization)
    cov = _covariance_stack(dataset.points, np.array([subset]), denom)[0]
    try:
        return SymPosDefMatrix(cov)
    except NotPositiveDefiniteError as exc:
        raise DegenerateSubsetError(f"degenerate subset {subset}: {exc}") from exc


def mcd_estimate(dataset: Dataset, h: int, f: CostFunction,
                 normalization: str = "h") -> EstimateResult:
    """Exhaustive minimum-cost-covariance estimate.

    Enumerates all h-subsets in lexicographic order, skips degenerate
    ones, and minimizes f.value over subset covariances. Ties within the
    relative band COST_REL_TOL keep the lexicographically smallest subset.
    The reported cost is f(subset_covariance(dataset, best)).
    """
    k, n = dataset.k, dataset.n
    if not (n + 1 <= h <= k):
        raise ValueError(f"h must satisfy {n + 1} <= h <= {k}, got {h}")
    total = math.comb(k, h)
    if total > MAX_SUBSETS:
        raise ValueError(f"C({k}, {h}) = {total} subsets exceeds the {MAX_SUBSETS} guard")
    denom = _denominator(h, normalization)
    best_subset = best = None
    degenerate = 0
    subsets = combinations(range(k), h)
    while chunk := list(islice(subsets, CHUNK_SUBSETS)):
        stack = _covariance_stack(dataset.points, np.array(chunk), denom)
        positions, log_dets = gate_stack(stack)
        degenerate += len(chunk) - len(positions)
        for j, ld in zip(positions.tolist(), log_dets.tolist()):
            value = f.value(stack[j], ld)
            if best_subset is None or best - value > COST_REL_TOL * max(abs(best), abs(value)):
                best_subset, best = chunk[j], value
    if best_subset is None:
        raise ValueError("every subset is degenerate; no estimate exists")
    return EstimateResult(
        mean=subset_mean(dataset, best_subset),
        subset=best_subset,
        cost_value=f(subset_covariance(dataset, best_subset, normalization)),
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
