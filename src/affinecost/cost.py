"""Affine-invariant cost functions on positive definite matrices.

The factoring family is parameterized by a kernel of the multiplicative
group (0, inf): the trivial kernel gives the plain determinant cost, and a
lattice kernel with log-constant a gives the quantized determinant cost
2**(a*k) * det(M) folded into [1, 2**a). Two control functions round out
the family: the trace (not affine invariant) and the identity map on
matrices (affine invariant, but its values do not reduce to a scalar).

Each cost is an array map value(stack, log_dets): factoring costs map a
float64 array of log-determinants to an array of canonical values, and
the controls map an (m, n, n) stack of entries. The harness, the kernel
scan, kernel membership and MCD score whole stacks through it; calling a
cost on one matrix is a stack of one. Exponentials and powers go through
libm element by element (math.exp, float pow): numpy's SIMD exp and
power differ from it in the last bit on some inputs, and reports and
goldens carry libm's bits.

Cost values carry a canonical real representative plus a class tag;
equality is tolerance-aware and only defined between values of the same
tag. Identity-cost values compare by their underlying matrices instead of
the canonical real, which is merely a fingerprint there. CostValues holds
a cost's values on a stack; value_discrepancies, with values_match over
it, is the one equality rule, and values compare only as stacks. A
CostValue, the single value f(M) returns, has no comparison of its own.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .linalg import SymPosDefMatrix, log_det

# Relative tolerance for equality of canonical cost values. Matches the
# accumulated round-off of congruence chains at n <= 6.
COST_REL_TOL = 1e-8

# Entrywise tolerance for identity-cost (matrix-valued) equality.
IDENTITY_ENTRY_TOL = 1e-10

# When log2(det)/a is this close to an integer, snap to it so the folded
# value lands on the lower interval edge instead of just below 2**a.
# Kernel members have determinants exactly on lattice points, where the
# fold is discontinuous; the window is sized to absorb the determinant
# round-off of congruence and inversion chains at this library's
# conditioning caps (up to ~1e-6 in log2 units for four-factor products).
QUANT_BOUNDARY_SNAP = 1e-5

# Lattice constants stay below this: 2**(a*k + d) is then finite, and the
# boundary snap cannot hide the fold at f(1/16), which needs a >= 4e5.
LATTICE_A_MAX = 1024.0

# And at or above this, float64's epsilon: the fold reduces log2 dets
# modulo a, and a smaller constant is below their rounding error at
# |d| = 1 (d / a overflows for the smallest).
LATTICE_A_MIN = 2.0**-52

_LN2 = math.log(2.0)

# The log-dets whose exp is a positive normal float64: libm's exp maps
# these two endpoints back inside the range, and their neighbours outside.
_LOG_NORMAL_MIN = math.log(sys.float_info.min)
_LOG_NORMAL_MAX = math.log(sys.float_info.max)

TRIVIAL = "trivial"
LATTICE = "lattice"


@dataclass(frozen=True, eq=False)
class CostValue:
    """A cost function output: canonical real plus producing-class tag.

    payload holds the raw matrix entries for costs whose equality is
    matrix-based (the identity cost); it is None for scalar-valued costs.
    """

    canonical: float
    class_tag: str
    payload: Optional[np.ndarray] = None


@dataclass(frozen=True, eq=False)
class CostValues:
    """A cost's values on an (m, n, n) stack: the canonical reals as a
    float64 array, the class tag, and for matrix-valued costs the stack
    itself as payload."""

    canonical: np.ndarray
    class_tag: str
    payload: Optional[np.ndarray] = None

    def __getitem__(self, j: int) -> CostValue:
        payload = None if self.payload is None else self.payload[j]
        return CostValue(float(self.canonical[j]), self.class_tag, payload)


def value_discrepancies(u: CostValues, v: CostValues) -> np.ndarray:
    """Elementwise mismatch of two CostValues (either may hold a single
    value, broadcast), held to value_tolerance by every equality.

    For scalar-valued costs this is |u - v| / max(1, |u|, |v|): relative
    above 1 and absolute below it. For matrix-valued costs it is the
    largest entry difference.
    """
    if u.class_tag != v.class_tag:
        raise ValueError(
            f"cost values of class {u.class_tag!r} and {v.class_tag!r} are not comparable"
        )
    if u.payload is not None:
        return np.abs(u.payload - v.payload).max(axis=(1, 2))
    a, b = np.abs(u.canonical), np.abs(v.canonical)
    return np.abs(u.canonical - v.canonical) / np.maximum(1.0, np.maximum(a, b))


def value_tolerance(u: CostValues, rel_tol: float) -> float:
    """The bound value_discrepancies is held to for CostValues u: rel_tol,
    except that matrix-valued (identity) costs compare entrywise at
    IDENTITY_ENTRY_TOL."""
    return IDENTITY_ENTRY_TOL if u.payload is not None else rel_tol


def values_match(u: CostValues, v: CostValues, rel_tol: float = COST_REL_TOL) -> np.ndarray:
    """Elementwise tolerance-aware equality; comparing different classes
    is an error."""
    return value_discrepancies(u, v) <= value_tolerance(u, rel_tol)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel of the determinant-value homomorphism: trivial, or the
    multiplicative lattice generated by 2**a, LATTICE_A_MIN <= a <
    LATTICE_A_MAX."""

    variant: str
    a: Optional[float] = None

    def __post_init__(self):
        if self.variant not in (TRIVIAL, LATTICE):
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        if self.variant == LATTICE:
            if self.a is None or not LATTICE_A_MIN <= self.a < LATTICE_A_MAX:
                raise ValueError(
                    f"lattice kernel requires a > 0 (at least {LATTICE_A_MIN:.3g}) and "
                    f"a < {LATTICE_A_MAX:g}, got {self.a!r}; use the trivial kernel for a = 0"
                )
        elif self.a is not None:
            raise ValueError("trivial kernel takes no lattice constant")

    @classmethod
    def trivial(cls) -> "KernelSpec":
        return cls(TRIVIAL)

    @classmethod
    def lattice(cls, a: float) -> "KernelSpec":
        return cls(LATTICE, float(a))


@dataclass(frozen=True)
class CostFunction:
    """Named cost: an array map value(stack, log_dets) plus a class tag.

    value takes an (m, n, n) stack and the m log-dets of its matrices and
    returns the m canonical values as a float64 array. Factoring costs
    (kernel set) read only log_dets, so stack may be None; the controls
    (kernel None) read only the stack, so log_dets may be None.
    compares_entries marks costs whose values compare by their matrices
    rather than by the float. Evaluation is pure and defined for every
    dimension n >= 1.
    """

    name: str
    tag: str
    value: Callable[[Optional[np.ndarray], Optional[np.ndarray]], np.ndarray]
    kernel: Optional[KernelSpec] = None
    compares_entries: bool = False

    def __call__(self, M: SymPosDefMatrix) -> CostValue:
        # Controls never read the log-det, so they skip its Cholesky.
        log_dets = np.array([log_det(M)]) if self.kernel is not None else None
        return self.values(M.entries[None], log_dets)[0]

    def values(self, stack: Optional[np.ndarray], log_dets: Optional[np.ndarray]) -> CostValues:
        """The cost's values on an (m, n, n) stack with log-dets log_dets."""
        payload = stack if self.compares_entries else None
        return CostValues(self.value(stack, log_dets), self.tag, payload)


def libm_exp(x: np.ndarray) -> np.ndarray:
    """math.exp of each element of a float64 array."""
    return np.array([math.exp(v) for v in x.tolist()])


def _det(stack, log_dets: np.ndarray) -> np.ndarray:
    # Below the normal range every determinant would round to 0.0 or a
    # subnormal and tie; above it exp overflows. The range is checked on
    # the log-dets, before math.exp could raise OverflowError.
    in_range = (log_dets >= _LOG_NORMAL_MIN) & (log_dets <= _LOG_NORMAL_MAX)
    if not in_range.all():
        ld = float(log_dets[np.argmin(in_range)])
        raise ValueError(f"determinant exp({ld:.6g}) is outside the positive normal "
                         f"float64 range [{sys.float_info.min:.3g}, {sys.float_info.max:.3g}]")
    return libm_exp(log_dets)


def fold_log2_dets(d: np.ndarray, a: float) -> tuple:
    """Fold each log2 determinant of a float64 array d into [1, 2**a):
    returns (k, canonical), arrays with k[i] the integer (as a float)
    putting 2**(a*k[i] + d[i]) in the interval.

    LATTICE_A_MIN <= a < LATTICE_A_MAX, as KernelSpec enforces. Values of
    d/a within QUANT_BOUNDARY_SNAP of an integer snap to it, so
    determinants sitting on a lattice point fold to the lower edge 1.
    """
    r = d / a
    nearest = np.round(r)
    k = -np.where(np.abs(r - nearest) <= QUANT_BOUNDARY_SNAP, nearest, np.floor(r))
    return k, np.array([2.0 ** x for x in (a * k + d).tolist()])


def _trace(stack: np.ndarray, log_dets) -> np.ndarray:
    return np.trace(stack, axis1=1, axis2=2)


def _fingerprint(stack: np.ndarray, log_dets) -> np.ndarray:
    # Collision-resistant digest of each matrix's raw entries; equality of
    # identity values goes through the stored matrices, entrywise.
    return np.array([
        float(int.from_bytes(hashlib.blake2b(e.tobytes(), digest_size=8).digest(), "big"))
        for e in stack
    ])


def factored_cost(kernel: KernelSpec) -> CostFunction:
    """Cost function determined by a kernel: trivial -> determinant,
    lattice(a) -> quantized determinant with constant a."""
    if kernel.variant == TRIVIAL:
        return CostFunction("det", "det", _det, kernel)
    a = kernel.a
    return CostFunction(f"qdet:{a:g}", f"qdet:{a:.17g}",
                        lambda stack, log_dets: fold_log2_dets(log_dets / _LN2, a)[1], kernel)


DET_COST = factored_cost(KernelSpec.trivial())
IDENTITY_COST = CostFunction("identity", "identity", _fingerprint, compares_entries=True)
TRACE_COST = CostFunction("trace", "trace", _trace)


def cost_from_selector(selector: str) -> CostFunction:
    """Parse a cost selector: "det" | "qdet:<a>" | "trace" | "identity"."""
    text = selector.strip()
    if text == "det":
        return DET_COST
    if text == "trace":
        return TRACE_COST
    if text == "identity":
        return IDENTITY_COST
    if text.startswith("qdet:"):
        raw = text[len("qdet:"):]
        try:
            a = float(raw)
        except ValueError:
            raise ValueError(f"invalid quantization constant {raw!r} in {selector!r}") from None
        return factored_cost(KernelSpec.lattice(a))
    raise ValueError(
        f"unknown cost selector {selector!r}; expected det, qdet:<a>, trace or identity"
    )
