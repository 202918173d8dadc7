"""Dense linear algebra for small positive definite matrices.

Value types carry their defining gates (symmetry, positive definiteness,
orthogonality, invertibility) and refuse construction when a gate fails.
Each gate is a function over an (m, n, n) stack, raising on the first
matrix that fails; a value type gates a stack of one. Conditioning is
not a gate: the GL/SL samplers build it in, choosing singular values
whose ratio stays below their cap.

The positive definiteness gate is an eigenvalue ratio: the smallest
eigenvalue must exceed PD_EIG_RATIO times the largest, as eigvalsh
computes them. pd_log_dets decides it for a stack with one batched
Cholesky, whose log-dets the gate's callers score with, and runs
eigvalsh only where a certificate read off that factorization is
silent. A symmetric matrix whose Cholesky succeeds has positive
eigenvalues, so its trace t bounds the largest, and its smallest is at
least det / t^(n-1). A log-det l >= log(10 * PD_EIG_RATIO) + n log t
therefore proves a ratio of at least 10 * PD_EIG_RATIO. The factor 10
is the margin for rounding: Cholesky's backward error (below n^2 eps
times the largest eigenvalue, 5e-13 of it at n = 64) and eigvalsh's are
far smaller than the 9 * PD_EIG_RATIO it leaves, so every certified
matrix also passes the eigvalsh test, and the gate decides exactly as
eigvalsh alone would. A trace below 1e-200, where rounding could meet
underflow, or one that overflows certifies nothing. When any matrix of
the stack fails Cholesky, the whole stack is decided by eigvalsh.

The samplers and congruence work on stacks too, and the one-matrix forms
are stacks of one over them. A stacked LAPACK or BLAS call gives each
matrix the bits of its own 2-D call, so a matrix does not depend on the
stack it was built in (checked for n up to 64).
Everything here is a pure function of its inputs; randomness enters only
through explicit seeds (an int, or a numpy Generator that the sampler
draws from), so each sampler is a deterministic function of (n, seed)
and values are safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _gate_entries(stack: np.ndarray) -> None:
    # The gate every value type shares: a bounded dimension, finite entries.
    n = stack.shape[-1]
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension must be in [1, {MAX_DIM}], got {n}")
    if not np.isfinite(stack).all():
        raise ValueError("matrix entries must be finite")


def _pd_eigenvalues(stack: np.ndarray) -> tuple:
    """Eigenvalues of each matrix of a stack, by one batched eigvalsh, and
    whether each passes the positive definiteness gate: the smallest must
    exceed PD_EIG_RATIO times the largest."""
    eigenvalues = np.linalg.eigvalsh(stack)
    smallest, largest = eigenvalues[:, 0], eigenvalues[:, -1]
    return eigenvalues, (largest > 0.0) & (smallest > PD_EIG_RATIO * largest)


# The certificate of pd_log_dets: a log-det of at least this plus n log t
# proves an eigenvalue ratio of 10 * PD_EIG_RATIO (module docstring).
_PD_CERTIFIED_LOG_RATIO = math.log(10.0 * PD_EIG_RATIO)

# Smallest trace the certificate trusts. A certified matrix's smallest
# eigenvalue is then above 1e-9 * 1e-200 / 64, so the rounding errors the
# margin covers stay relative, far above where float64 underflows.
_PD_CERTIFIED_TRACE_MIN = 1e-200


def pd_log_dets(stack: np.ndarray) -> tuple:
    """Which matrices of a finite stack pass the positive definiteness
    gate, as a boolean array, and the log-dets of those that pass, in
    order, by one batched Cholesky.

    eigvalsh decides only the matrices the certificate leaves open, or
    the whole stack when Cholesky fails on any of its matrices. Symmetry
    is not checked: like eigvalsh, Cholesky reads the lower triangle only.
    """
    try:
        chol = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        passes = _pd_eigenvalues(stack)[1]
        return passes, stack_log_dets(stack[passes])
    log_dets = _cholesky_log_det(chol)
    # A trace that overflows certifies nothing: no finite log-det reaches
    # n log t when t is infinite.
    with np.errstate(over="ignore"):
        trace = np.trace(stack, axis1=1, axis2=2)
    bound = _PD_CERTIFIED_LOG_RATIO + stack.shape[-1] * np.log(
        np.maximum(trace, _PD_CERTIFIED_TRACE_MIN))
    passes = (trace >= _PD_CERTIFIED_TRACE_MIN) & (log_dets >= bound)
    if not passes.all():
        open_ = np.flatnonzero(~passes)
        passes[open_] = _pd_eigenvalues(stack[open_])[1]
    return passes, log_dets[passes]


def gate_pd(stack: np.ndarray) -> np.ndarray:
    """The SymPosDefMatrix gate: each matrix finite, symmetric to within
    SYMMETRY_TOL (relative to its largest entry) and positive definite.
    Returns the log-det of each matrix, from the Cholesky that gated it."""
    _gate_entries(stack)
    scale = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
    if (np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2)) > SYMMETRY_TOL * scale).any():
        raise ValueError("matrix is not symmetric within tolerance")
    passes, log_dets = pd_log_dets(stack)
    if not passes.all():
        low, high = np.linalg.eigvalsh(stack[np.argmin(passes)])[[0, -1]]
        raise NotPositiveDefiniteError(
            "matrix is not positive definite within tolerance "
            f"(eigenvalue range [{low:.3e}, {high:.3e}])"
        )
    return log_dets


def gate_invertible(stack: np.ndarray) -> np.ndarray:
    """The InvertibleMatrix gate: slogdet must give each matrix a nonzero
    sign and a finite log-determinant. Returns the stack."""
    _gate_entries(stack)
    sign, logabsdet = np.linalg.slogdet(stack)
    if ((sign == 0.0) | ~np.isfinite(logabsdet)).any():
        raise ValueError("matrix fails the invertibility gate")
    return stack


def gate_orthogonal(stack: np.ndarray) -> np.ndarray:
    """The OrthogonalMatrix gate: Q^T Q within ORTHOGONALITY_TOL of the
    identity for each Q. Returns the stack."""
    _gate_entries(stack)
    gram_defect = np.abs(stack.transpose(0, 2, 1) @ stack - np.eye(stack.shape[-1])).max()
    if float(gram_defect) > ORTHOGONALITY_TOL:
        raise ValueError("matrix is not orthogonal within tolerance")
    return stack


def _cholesky_log_det(chol: np.ndarray):
    """2 * sum(log(diag)) of each Cholesky factor of a stack: the one
    log-det formula of stack_log_dets and pd_log_dets."""
    return 2.0 * np.log(chol.diagonal(0, -2, -1)).sum(-1)


def stack_log_dets(stack: np.ndarray) -> np.ndarray:
    """log_det of each matrix of a gated stack, by one batched Cholesky."""
    return _cholesky_log_det(np.linalg.cholesky(stack))


@dataclass(frozen=True, eq=False)
class _GatedMatrix:
    """Read-only square matrix of 64-bit floats that passed its type's
    gate; construction raises when the gate fails."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        arr.setflags(write=False)
        self._gate(arr[None])
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


class SymPosDefMatrix(_GatedMatrix):
    """Symmetric positive definite matrix.

    Construction verifies symmetry to within SYMMETRY_TOL (relative to the
    largest entry) and positive definiteness: the smallest eigenvalue must
    exceed PD_EIG_RATIO times the largest, decided as pd_log_dets decides
    it, and keeps the log-det of the gate's Cholesky factorization.
    """

    def _gate(self, stack: np.ndarray) -> None:
        # Instances are immutable, so the gate's Cholesky factorization is
        # the only one a matrix needs however many costs evaluate it.
        object.__setattr__(self, "_log_det", float(gate_pd(stack)[0]))


class InvertibleMatrix(_GatedMatrix):
    """Square real matrix passing the invertibility gate: slogdet must
    give a nonzero sign and a finite log-determinant. The gate says
    nothing about conditioning.
    """

    _gate = staticmethod(gate_invertible)


class OrthogonalMatrix(_GatedMatrix):
    """Square matrix with Q^T Q within ORTHOGONALITY_TOL of the identity."""

    _gate = staticmethod(gate_orthogonal)


def congruence(M: SymPosDefMatrix, A) -> SymPosDefMatrix:
    """Congruence transform A^T M A, symmetrized as (R + R^T)/2.

    A may be any invertible-matrix value (InvertibleMatrix or
    OrthogonalMatrix). Raises on dimension mismatch, and the result must
    pass the positive definiteness gate; a gate failure signals that the
    transform destroyed the conditioning numerically.
    """
    if A.n != M.n:
        raise ValueError(f"dimension mismatch: matrix is {M.n}x{M.n}, transform is {A.n}x{A.n}")
    return SymPosDefMatrix(congruence_stack(M.entries[None], A.entries[None])[0])


def congruence_stack(M: np.ndarray, A: np.ndarray) -> np.ndarray:
    """congruence's entries for each pair of (m, n, n) stacks, ungated; M
    may be a (1, n, n) stack shared by every A."""
    r = A.transpose(0, 2, 1) @ M @ A
    return (r + r.transpose(0, 2, 1)) / 2.0


def log_det(M: SymPosDefMatrix) -> float:
    """Natural log of det(M), as twice the log Cholesky diagonal sum.

    The log form stays finite where the plain determinant would overflow
    or underflow, so it is the canonical determinant representative here.
    The value comes from the factorization that gated the matrix.
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
    """Seeded random PD matrix: random_pd_stack for one seed."""
    return SymPosDefMatrix(random_pd_stack(n, [np.random.default_rng(seed)])[0])


def random_gl(n: int, seed) -> InvertibleMatrix:
    """Seeded random invertible matrix: random_gl_stack for one seed."""
    return InvertibleMatrix(random_gl_stack(n, [np.random.default_rng(seed)])[0])


def random_sl(n: int, seed) -> InvertibleMatrix:
    """Seeded random determinant-one matrix: random_gl_stack with
    unit_det for one seed."""
    return InvertibleMatrix(random_gl_stack(n, [np.random.default_rng(seed)], unit_det=True)[0])


def random_orthogonal(n: int, seed) -> OrthogonalMatrix:
    """Haar-distributed random orthogonal matrix: random_orthogonal_stack
    for one seed."""
    return OrthogonalMatrix(random_orthogonal_stack(n, [np.random.default_rng(seed)])[0])


# The stacked samplers draw once from each Generator of rngs, in order, and
# return the (len(rngs), n, n) stack of entries, ungated.

def _gaussians(n: int, rngs) -> np.ndarray:
    g = np.empty((len(rngs), n, n))
    for rng, out in zip(rngs, g):
        rng.standard_normal(out=out)
    return g


def random_pd_stack(n: int, rngs) -> np.ndarray:
    """G^T G + shift * I with normal G.

    The diagonal shift (PD_SHIFT times the mean diagonal of G^T G) caps the
    eigenvalue ratio near n / PD_SHIFT, keeping tolerance-based invariance
    checks meaningful.
    """
    g = _gaussians(n, rngs)
    gram = g.transpose(0, 2, 1) @ g
    gram = (gram + gram.transpose(0, 2, 1)) / 2.0
    shift = PD_SHIFT * np.trace(gram, axis1=1, axis2=2) / n
    return gram + shift[:, None, None] * np.eye(n)


def random_gl_stack(n: int, rngs, unit_det: bool = False) -> np.ndarray:
    """U diag(s) V with Haar orthogonal U and V and log-uniform singular
    values s in [30**-0.5, 30**0.5), so the condition number is below
    SAMPLER_CONDITION_CAP. With unit_det, log s is centred to sum 0 and
    its sign chosen to make det = +1.

    The singular vectors of a Gaussian matrix are Haar, so one SVD gives
    both orthogonal factors; the singular values are replaced by s.
    """
    half_width = 0.5 * math.log(SAMPLER_CONDITION_CAP)
    g = np.empty((len(rngs), n, n))
    u = np.empty((len(rngs), n))
    for rng, g_out, u_out in zip(rngs, g, u):
        rng.standard_normal(out=g_out)
        rng.random(out=u_out)
    # rng.uniform(-half_width, half_width, n), which computes
    # low + (high - low) * next_double for each of the draws.
    log_s = -half_width + (2.0 * half_width) * u
    p, _, qt = np.linalg.svd(g)
    if unit_det:
        log_s -= log_s.sum(-1, keepdims=True) / n
    s = np.exp(log_s)
    if unit_det:
        s[np.linalg.det(g) < 0.0, 0] *= -1.0
    return (p * s[:, None, :]) @ qt


def random_orthogonal_stack(n: int, rngs) -> np.ndarray:
    """QR of a normal matrix, with the signs of the triangular factor's
    diagonal folded into Q; without the sign fold the distribution is
    not Haar."""
    q, r = np.linalg.qr(_gaussians(n, rngs))
    return q * np.where(r.diagonal(0, -2, -1) >= 0.0, 1.0, -1.0)[:, None, :]


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
