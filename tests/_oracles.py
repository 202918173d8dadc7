"""Independent oracles used to freeze expected test values.

Everything here deliberately avoids the library's own computation paths:
determinants come from the Leibniz permutation expansion or from exact
rational elimination, quantization indices from brute-force enumeration,
and the robust-mean reference from a plain-Python exhaustive search.
"""

from fractions import Fraction
from itertools import combinations, permutations


def det_permutation(matrix) -> float:
    """Determinant via the Leibniz sum over permutations; exact paths only,
    intended for n <= 7."""
    rows = [list(map(float, row)) for row in matrix]
    n = len(rows)
    if n > 7:
        raise ValueError("permutation determinant is for small matrices only")
    total = 0.0
    for perm in permutations(range(n)):
        sign = _permutation_sign(perm)
        prod = 1.0
        for i, j in enumerate(perm):
            prod *= rows[i][j]
        total += sign * prod
    return total


def det_exact(matrix) -> Fraction:
    """Exact determinant of the float entries, by Gaussian elimination in
    rational arithmetic. Nothing is rounded, so the result judges
    ill-conditioned inputs where the floating Leibniz sum cannot."""
    rows = [[Fraction(float(x)) for x in row] for row in matrix]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, n):
            factor = rows[r][c] / rows[c][c]
            for j in range(c + 1, n):
                rows[r][j] -= factor * rows[c][j]
    return det


def _permutation_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def enumerate_quantizer(det_value: float, a: float, k_range: int = 60):
    """The unique integer k with 2**(a*k) * det in [1, 2**a), found by
    scanning k in [-k_range, k_range]; returns (k, folded value)."""
    hits = []
    for k in range(-k_range, k_range + 1):
        folded = (2.0 ** (a * k)) * det_value
        if 1.0 <= folded < 2.0 ** a:
            hits.append((k, folded))
    if len(hits) != 1:
        raise AssertionError(f"expected exactly one k, found {hits}")
    return hits[0]


def brute_force_mcd(points, h: int):
    """Exhaustive reference: the h-subset minimizing the determinant of the
    (1/h)-normalized covariance, lexicographic order breaking ties.

    Pure-Python arithmetic throughout; returns (subset, determinant, mean).
    """
    k = len(points)
    n = len(points[0])
    best = None
    for subset in combinations(range(k), h):
        rows = [points[i] for i in subset]
        mean = [sum(r[d] for r in rows) / h for d in range(n)]
        cov = [[0.0] * n for _ in range(n)]
        for r in rows:
            for i in range(n):
                for j in range(n):
                    cov[i][j] += (r[i] - mean[i]) * (r[j] - mean[j]) / h
        det = det_permutation(cov)
        if det <= 0.0:
            continue
        if best is None or det < best[1] - 1e-12 * max(1.0, abs(det), abs(best[1])):
            best = (subset, det, mean)
    if best is None:
        raise AssertionError("all subsets degenerate")
    return best
