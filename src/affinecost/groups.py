"""Constructive group theory for the determinant-one subgroup.

Elementary matrices (identity plus one off-diagonal entry), explicit
commutator witnesses realizing each elementary matrix, a row-addition-only
Gaussian decomposition of determinant-one matrices into elementary factors,
and membership in the kernel subgroup {A : f(A^T A) = f(I)} of a cost
function.

Row/column indices are 0-based throughout, following Python convention;
the command-line surface converts from the 1-based form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import COST_REL_TOL, TRIVIAL, CostFunction, values_match
# congruence stays importable here: perfbench's tracer wraps groups.congruence.
from .linalg import MAX_DIM, InvertibleMatrix, congruence

SL_DET_TOL = 1e-8
PIVOT_TOL = 1e-10


@dataclass(frozen=True)
class ElementaryMatrix:
    """E(row, col, scale): identity except entry (row, col) = scale.

    Unit triangular up to permutation similarity, so its determinant is
    exactly 1 for every scale.
    """

    n: int
    row: int
    col: int
    scale: float

    def __post_init__(self):
        if not 2 <= self.n <= MAX_DIM:
            raise ValueError(f"elementary matrices need 2 <= n <= {MAX_DIM}, got {self.n}")
        if not (0 <= self.row < self.n and 0 <= self.col < self.n):
            raise ValueError(f"indices out of range for n = {self.n}")
        if self.row == self.col:
            raise ValueError("the nonzero entry must be off-diagonal")

    def matrix(self) -> np.ndarray:
        m = np.eye(self.n)
        m[self.row, self.col] = self.scale
        return m

    def as_invertible(self) -> InvertibleMatrix:
        return InvertibleMatrix(self.matrix())

    def inverse(self) -> "ElementaryMatrix":
        return ElementaryMatrix(self.n, self.row, self.col, -self.scale)


def elementary(n: int, row: int, col: int, scale: float) -> InvertibleMatrix:
    """Realized elementary matrix; scale = 0 gives the identity."""
    return ElementaryMatrix(n, row, col, float(scale)).as_invertible()


def commutator(A: InvertibleMatrix, B: InvertibleMatrix) -> InvertibleMatrix:
    """A B A^-1 B^-1."""
    if A.n != B.n:
        raise ValueError(f"dimension mismatch: {A.n} vs {B.n}")
    a, b = A.entries, B.entries
    return InvertibleMatrix(a @ b @ np.linalg.inv(a) @ np.linalg.inv(b))


def transpose_commutator(A: InvertibleMatrix, B: InvertibleMatrix) -> InvertibleMatrix:
    """B^T A^T B^-1 A^-1, the product whose kernel membership witnesses
    that the kernel subgroup is normal."""
    if A.n != B.n:
        raise ValueError(f"dimension mismatch: {A.n} vs {B.n}")
    a, b = A.entries, B.entries
    return InvertibleMatrix(b.T @ a.T @ np.linalg.inv(b) @ np.linalg.inv(a))


@dataclass(frozen=True)
class CommutatorPair:
    """Pair (A, B) whose commutator realizes a target elementary matrix."""

    a_factor: InvertibleMatrix
    b_factor: InvertibleMatrix


def elementary_as_commutator(n: int, row: int, col: int, scale: float) -> CommutatorPair:
    """Witness pair (A, B) with [A, B] = E(row, col, scale).

    For n >= 3, pick an index k unused by (row, col); then
    [E(row, k, scale), E(k, col, 1)] = E(row, col, scale).
    For n = 2 use a diagonal conjugator: with D scaling entry (row, col)
    by c**2 = 4, D E(mu) D^-1 E(mu)^-1 = E(3 mu), so B carries scale/3.
    """
    probe = ElementaryMatrix(n, row, col, float(scale))  # validates indices
    if n >= 3:
        k = next(idx for idx in range(n) if idx not in (row, col))
        a = elementary(n, row, k, scale)
        b = elementary(n, k, col, 1.0)
    else:
        d = np.eye(2)
        d[probe.row, probe.row] = 2.0
        d[probe.col, probe.col] = 0.5
        a = InvertibleMatrix(d)
        b = elementary(2, row, col, scale / 3.0)
    return CommutatorPair(a, b)


def decompose_sl(A: InvertibleMatrix) -> list:
    """Factor a determinant-one matrix into elementary matrices.

    The left-to-right product of the returned factors reconstructs A
    (within 1e-8 relative Frobenius error for well-conditioned inputs).
    Gaussian elimination restricted to row additions. A pivot smaller in
    magnitude than some lower entry of its column is first repaired by
    adding the lower row with the largest entry there, with the sign that
    makes the two entries add; this is partial pivoting without a row
    swap, and keeps every elimination multiplier at most 1 in magnitude.
    The matrix is then reduced to diag(1, ..., 1, det) by pairwise
    diagonal collapses, and the final diagonal entry (= 1 within the
    determinant gate) is absorbed.

    Raises ValueError when |det(A) - 1| > SL_DET_TOL or when no usable
    pivot exists (input numerically singular).
    """
    n = A.n
    # A determinant past float64's range fails the gate as inf.
    with np.errstate(over="ignore"):
        det = float(np.linalg.det(A.entries))
    if abs(det - 1.0) > SL_DET_TOL:
        raise ValueError(f"determinant gate failed: det = {det!r}, expected 1")
    w = A.entries.copy()
    factors: list = []

    def apply(row: int, col: int, lam: float) -> None:
        # w <- E(row, col, lam) @ w; record the move unless it is a no-op.
        if lam == 0.0:
            return
        w[row] += lam * w[col]
        factors.append(ElementaryMatrix(n, row, col, lam))

    # Forward elimination.
    for c in range(n):
        block = np.abs(w[c:, c])
        scale = float(block.max())
        if scale <= PIVOT_TOL:
            raise ValueError(f"pivot unreachable in column {c}: input is numerically singular")
        if abs(w[c, c]) < scale:
            r = c + 1 + int(np.argmax(np.abs(w[c + 1:, c])))
            apply(c, r, 1.0 if w[c, c] * w[r, c] >= 0.0 else -1.0)
        for r in range(c + 1, n):
            if w[r, c] != 0.0:
                apply(r, c, -w[r, c] / w[c, c])
                w[r, c] = 0.0
    # Back elimination above the diagonal.
    for c in range(n - 1, 0, -1):
        for r in range(c - 1, -1, -1):
            if w[r, c] != 0.0:
                apply(r, c, -w[r, c] / w[c, c])
                w[r, c] = 0.0
    # Collapse diag(d_0, ..., d_{n-1}) to diag(1, ..., 1, prod d_i) one
    # adjacent pair at a time, using row additions only.
    for i in range(n - 1):
        if w[i, i] == 1.0:
            continue
        apply(i + 1, i, 1.0)
        apply(i, i + 1, (1.0 - w[i, i]) / w[i + 1, i])
        apply(i + 1, i, -w[i + 1, i] / w[i, i])
        apply(i, i + 1, -w[i, i + 1] / w[i + 1, i + 1])
        w[i, i] = 1.0
        w[i + 1, i] = 0.0
        w[i, i + 1] = 0.0
    # The recorded moves reduce A to the identity (the residual final
    # diagonal entry is det = 1 within the gate), so A is the product of
    # their inverses in application order.
    return [f.inverse() for f in factors]


def reconstruct_factors(factors, n: int) -> np.ndarray:
    """Left-to-right product of elementary factors (identity when empty)."""
    out = np.eye(n)
    for f in factors:
        out = out @ f.matrix()
    return out


def kernel_membership(A: InvertibleMatrix, f: CostFunction,
                      rel_tol: float = COST_REL_TOL) -> bool:
    """True iff f(A^T A) equals f(I) under f's own equality.

    f must factor through the determinant, so it is read at
    l = log det(A^T A) = 2 log|det A|, taken from A by slogdet: a Cholesky
    of A^T A would square A's conditioning. The trivial kernel stays in
    log space, where the det cost's band |e^l - 1| / max(1, e^l) =
    1 - e^-|l| holds iff |l| <= -log1p(-rel_tol).
    """
    if f.kernel is None:
        raise ValueError(f"cost {f.name!r} does not factor through the determinant")
    log_gram_det = 2.0 * float(np.linalg.slogdet(A.entries)[1])
    if f.kernel.variant == TRIVIAL:
        return rel_tol >= 1.0 or abs(log_gram_det) <= -math.log1p(-rel_tol)
    gram, identity = (f.values(None, np.array([ld])) for ld in (log_gram_det, 0.0))
    return bool(values_match(gram, identity, rel_tol)[0])
