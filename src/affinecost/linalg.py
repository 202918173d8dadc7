"""Dense linear algebra for small positive definite matrices.

Value types carry their defining gates (symmetry, positive definiteness,
orthogonality, invertibility) and refuse construction when a gate fails.
Conditioning is not a gate: the GL/SL samplers build it in, choosing
singular values whose ratio stays below their cap.
Everything here is a pure function of its inputs; randomness enters only
through explicit seeds (an int, or a numpy Generator that the sampler
draws from), so each sampler is a deterministic function of (n, seed)
and values are safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

MAX_DIM = 64

SYMMETRY_TOL = 1e-10
PD_EIG_RATIO = 1e-10
ORTHOGONALITY_TOL = 1e-10

# Relative diagonal shift keeping random PD samples well conditioned.
PD_SHIFT = 1e-3

# Condition-number cap of the GL/SL samplers, held by construction.
# Congruence chains multiply condition numbers, so uncapped draws can push
# results past the positive definiteness gate or the 1e-8 equality
# tolerance, which random_pd's diagonal shift also guards against.
SAMPLER_CONDITION_CAP = 30.0


class NotPositiveDefiniteError(ValueError):
    """Raised when a matrix fails the positive definiteness gate."""


def _square_entries(entries) -> np.ndarray:
    arr = np.array(entries, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    n = arr.shape[0]
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension must be in [1, {MAX_DIM}], got {n}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SymPosDefMatrix:
    """Symmetric positive definite matrix with 64-bit float entries.

    Construction verifies symmetry to within SYMMETRY_TOL (relative to the
    largest entry) and positive definiteness via a symmetric
    eigendecomposition: the smallest eigenvalue must exceed
    PD_EIG_RATIO times the largest.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _square_entries(self.entries)
        scale = max(1.0, float(np.abs(arr).max()))
        if float(np.abs(arr - arr.T).max()) > SYMMETRY_TOL * scale:
            raise ValueError("matrix is not symmetric within tolerance")
        eigenvalues = np.linalg.eigvalsh(arr)
        if not _passes_pd_gate(eigenvalues[0], eigenvalues[-1]):
            raise NotPositiveDefiniteError(
                "matrix is not positive definite within tolerance "
                f"(eigenvalue range [{eigenvalues[0]:.3e}, {eigenvalues[-1]:.3e}])"
            )
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def _log_det(self) -> float:
        # Instances are immutable, so the Cholesky factorization runs at
        # most once per matrix however many costs evaluate it.
        return float(_cholesky_log_det(np.linalg.cholesky(self.entries)))

    @classmethod
    def identity(cls, n: int) -> "SymPosDefMatrix":
        # Instances are immutable, so identity matrices are shared.
        return _identity_pd(n)

    @classmethod
    def scalar(cls, n: int, s: float) -> "SymPosDefMatrix":
        """The scalar matrix s times the identity, s > 0."""
        if s <= 0.0:
            raise ValueError(f"scalar matrix requires s > 0, got {s}")
        return cls(s * np.eye(n))

    @classmethod
    def diagonal(cls, values) -> "SymPosDefMatrix":
        return cls(np.diag(np.asarray(values, dtype=np.float64)))


def _passes_pd_gate(smallest, largest):
    """The positive definiteness gate on extreme eigenvalues; works
    elementwise on arrays of them too."""
    return (largest > 0.0) & (smallest > PD_EIG_RATIO * largest)


def _cholesky_log_det(chol: np.ndarray):
    """2 * sum(log(diag)) of a Cholesky factor, or of each in a stack: the
    one log-det formula of log_det and gate_stack."""
    return 2.0 * np.log(chol.diagonal(0, -2, -1)).sum(-1)


def gate_stack(stack: np.ndarray) -> tuple:
    """SymPosDefMatrix's gate over an (m, n, n) stack, by one batched
    eigvalsh, with log-dets from one batched Cholesky.

    The stack must be finite and exactly symmetric, as (C + C^T)/2 of a
    finite C is, so neither is checked again. Returns (positions,
    log_dets): the stack positions of the passing matrices in order, and
    their log-dets.
    """
    eigenvalues = np.linalg.eigvalsh(stack)
    positions = np.flatnonzero(_passes_pd_gate(eigenvalues[:, 0], eigenvalues[:, -1]))
    return positions, _cholesky_log_det(np.linalg.cholesky(stack[positions]))


@lru_cache(maxsize=None)
def _identity_pd(n: int) -> SymPosDefMatrix:
    return SymPosDefMatrix(np.eye(n))


@dataclass(frozen=True, eq=False)
class InvertibleMatrix:
    """Square real matrix passing the invertibility gate: slogdet must
    give a nonzero sign and a finite log-determinant. The gate says
    nothing about conditioning.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = _square_entries(self.entries)
        sign, logabsdet = np.linalg.slogdet(arr)
        if sign == 0.0 or not math.isfinite(logabsdet):
            raise ValueError("matrix fails the invertibility gate")
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def inverse(self) -> "InvertibleMatrix":
        return InvertibleMatrix(np.linalg.inv(self.entries))


@dataclass(frozen=True, eq=False)
class OrthogonalMatrix:
    """Square matrix with Q^T Q within ORTHOGONALITY_TOL of the identity."""

    entries: np.ndarray

    def __post_init__(self):
        arr = _square_entries(self.entries)
        gram_defect = np.abs(arr.T @ arr - np.eye(arr.shape[0])).max()
        if float(gram_defect) > ORTHOGONALITY_TOL:
            raise ValueError("matrix is not orthogonal within tolerance")
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def congruence(M: SymPosDefMatrix, A) -> SymPosDefMatrix:
    """Congruence transform A^T M A, symmetrized as (R + R^T)/2.

    A may be any invertible-matrix value (InvertibleMatrix or
    OrthogonalMatrix). Raises on dimension mismatch, and the result must
    pass the positive definiteness gate; a gate failure signals that the
    transform destroyed the conditioning numerically.
    """
    if A.n != M.n:
        raise ValueError(f"dimension mismatch: matrix is {M.n}x{M.n}, transform is {A.n}x{A.n}")
    r = A.entries.T @ M.entries @ A.entries
    return SymPosDefMatrix((r + r.T) / 2.0)


def log_det(M: SymPosDefMatrix) -> float:
    """Natural log of det(M), as twice the log Cholesky diagonal sum.

    The log form stays finite where the plain determinant would overflow
    or underflow, so it is the canonical determinant representative here.
    The value is computed once per matrix and then reused.
    """
    return M._log_det


def svd_decompose(A: InvertibleMatrix) -> np.ndarray:
    """Singular values of A = P * diag(sigma) * Q, nonincreasing.

    Only the values are returned; the orthogonal factors are dropped
    unchecked. The full factorization runs anyway, because LAPACK's
    values-only path rounds differently in the last bits.
    """
    return np.linalg.svd(A.entries)[1]


def random_pd(n: int, seed) -> SymPosDefMatrix:
    """Seeded random PD matrix G^T G + shift * I with normal G.

    The diagonal shift (PD_SHIFT times the mean diagonal of G^T G) caps the
    eigenvalue ratio near n / PD_SHIFT, keeping tolerance-based invariance
    checks meaningful.
    """
    g = np.random.default_rng(seed).standard_normal((n, n))
    gram = g.T @ g
    gram = (gram + gram.T) / 2.0
    shift = PD_SHIFT * float(np.trace(gram)) / n
    return SymPosDefMatrix(gram + shift * np.eye(n))


def random_gl(n: int, seed) -> InvertibleMatrix:
    """Seeded random invertible matrix U diag(s) V with Haar orthogonal U
    and V and log-uniform singular values s in [30**-0.5, 30**0.5), so
    its condition number is below SAMPLER_CONDITION_CAP."""
    return _capped_draw(n, seed, unit_det=False)


def random_orthogonal(n: int, seed) -> OrthogonalMatrix:
    """Haar-distributed random orthogonal matrix.

    QR of a normal matrix, with the signs of the triangular factor's
    diagonal folded into Q; without the sign fold the distribution is
    not Haar.
    """
    g = np.random.default_rng(seed).standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    signs = np.where(d >= 0.0, 1.0, -1.0)
    return OrthogonalMatrix(q * signs)


def random_sl(n: int, seed) -> InvertibleMatrix:
    """Seeded random determinant-one matrix: random_gl's construction
    with log s centred to sum 0 and its sign chosen to make det = +1."""
    return _capped_draw(n, seed, unit_det=True)


def _capped_draw(n: int, seed, unit_det: bool) -> InvertibleMatrix:
    # The singular vectors of a Gaussian matrix are Haar, so one SVD gives
    # both orthogonal factors; the singular values are replaced by s.
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    p, _, qt = np.linalg.svd(g)
    half_width = 0.5 * math.log(SAMPLER_CONDITION_CAP)
    log_s = rng.uniform(-half_width, half_width, n)
    if unit_det:
        log_s -= log_s.sum() / n
    s = np.exp(log_s)
    if unit_det and np.linalg.det(g) < 0.0:
        s[0] = -s[0]
    return InvertibleMatrix((p * s) @ qt)


def format_matrix(entries) -> str:
    """Matrix text format: first line n, then n rows of n floats.

    Values carry 17 significant digits so 64-bit floats round-trip.
    """
    arr = np.asarray(entries, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    lines = [str(arr.shape[0])]
    for row in arr:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    """Parse the matrix text format; raises ValueError with line diagnostics."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ValueError(f"line 1: expected the dimension, got {lines[0]!r}") from None
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"line 1: dimension must be in [1, {MAX_DIM}], got {n}")
    if len(lines) - 1 != n:
        raise ValueError(f"expected {n} matrix rows, got {len(lines) - 1}")
    rows = []
    for idx, line in enumerate(lines[1:], start=2):
        tokens = line.split()
        if len(tokens) != n:
            raise ValueError(f"line {idx}: expected {n} values, got {len(tokens)}")
        try:
            rows.append([float(tok) for tok in tokens])
        except ValueError:
            bad = next(tok for tok in tokens if not is_float(tok))
            raise ValueError(f"line {idx}: not a number: {bad!r}") from None
    return np.array(rows, dtype=np.float64)


def is_float(token: str) -> bool:
    """Whether float() accepts the token; the parsers name the first that fails."""
    try:
        float(token)
        return True
    except ValueError:
        return False
