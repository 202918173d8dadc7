"""Affine-invariant cost functions on positive definite matrices.

The factoring family is parameterized by a kernel of the multiplicative
group (0, inf): the trivial kernel gives the plain determinant cost, and a
lattice kernel with log-constant a gives the quantized determinant cost
2**(a*k) * det(M) folded into [1, 2**a). Two control functions round out
the family: the trace (not affine invariant) and the identity map on
matrices (affine invariant, but its values do not reduce to a scalar).

Each cost is a float map value(entries, log_det): factoring costs read
only the log-determinant, controls only the entries. MCD ranks batched
log-dets through the map; a cost's values on a stack of matrices are
CostValues, and calling a cost on one matrix is a stack of one.

Cost values carry a canonical real representative plus a class tag;
equality is tolerance-aware and only defined between values of the same
tag. Identity-cost values compare by their underlying matrices instead of
the canonical real, which is merely a fingerprint there.
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

_LN2 = math.log(2.0)

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


def cost_value_discrepancy(u: CostValue, v: CostValue) -> float:
    """Scalar mismatch measure, held to value_tolerance by every equality.

    For scalar-valued costs this is |u - v| / max(1, |u|, |v|): relative
    above 1 and absolute below it. For matrix-valued costs it is the
    largest entry difference.
    """
    if u.class_tag != v.class_tag:
        raise ValueError(
            f"cost values of class {u.class_tag!r} and {v.class_tag!r} are not comparable"
        )
    if u.payload is not None:
        return float(np.abs(u.payload - v.payload).max())
    return abs(u.canonical - v.canonical) / max(1.0, abs(u.canonical), abs(v.canonical))


def value_tolerance(u: CostValue, rel_tol: float) -> float:
    """The bound cost_value_discrepancy is held to: rel_tol, except that
    matrix-valued (identity) costs compare entrywise at IDENTITY_ENTRY_TOL."""
    return IDENTITY_ENTRY_TOL if u.payload is not None else rel_tol


def cost_values_match(u: CostValue, v: CostValue, rel_tol: float = COST_REL_TOL) -> bool:
    """Tolerance-aware equality; comparing different classes is an error."""
    return cost_value_discrepancy(u, v) <= value_tolerance(u, rel_tol)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel of the determinant-value homomorphism: trivial, or the
    multiplicative lattice generated by 2**a, 0 < a < LATTICE_A_MAX."""

    variant: str
    a: Optional[float] = None

    def __post_init__(self):
        if self.variant not in (TRIVIAL, LATTICE):
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        if self.variant == LATTICE:
            if self.a is None or not 0.0 < self.a < LATTICE_A_MAX:
                raise ValueError(
                    f"lattice kernel requires a > 0 and a < {LATTICE_A_MAX:g}, got "
                    f"{self.a!r}; use the trivial kernel for a = 0"
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
    """Named cost: a float map value(entries, log_det) plus a class tag.

    Factoring costs (kernel set) read only log_det; the controls (kernel
    None) read only entries. compares_entries marks costs whose values
    compare by their matrices rather than by the float. Evaluation is
    pure and defined for every dimension n >= 1.
    """

    name: str
    tag: str
    value: Callable[[np.ndarray, float], float]
    kernel: Optional[KernelSpec] = None
    compares_entries: bool = False

    def __call__(self, M: SymPosDefMatrix) -> CostValue:
        # Controls never read the log-det, so they skip its Cholesky.
        return self.values(M.entries[None], [log_det(M)] if self.kernel is not None else None)[0]

    def values(self, stack: np.ndarray, log_dets) -> list:
        """The CostValue of each matrix of an (m, n, n) stack; log_dets,
        their log-dets, is read by factoring costs only."""
        if self.kernel is not None:
            return [CostValue(self.value(None, ld), self.tag) for ld in log_dets]
        return [CostValue(self.value(e, math.nan), self.tag, e if self.compares_entries else None)
                for e in stack]


def _det(entries, ld: float) -> float:
    # Below the normal range every determinant would round to 0.0 or a
    # subnormal and tie; above it exp overflows.
    try:
        value = math.exp(ld)
    except OverflowError:
        value = math.inf
    if not sys.float_info.min <= value < math.inf:
        raise ValueError(f"determinant exp({ld:.6g}) is outside the positive normal "
                         f"float64 range [{sys.float_info.min:.3g}, {sys.float_info.max:.3g}]")
    return value


def quantize_log2_det(d: float, a: float) -> tuple:
    """Fold a log2 determinant d into [1, 2**a): returns (k, canonical)
    with k the unique integer putting 2**(a*k + d) in the interval.

    0 < a < LATTICE_A_MAX, as KernelSpec enforces. Values of d/a within
    QUANT_BOUNDARY_SNAP of an integer snap to it, so determinants sitting
    on a lattice point fold to the lower edge 1.
    """
    r = d / a
    nearest = round(r)
    if abs(r - nearest) <= QUANT_BOUNDARY_SNAP:
        k = -int(nearest)
    else:
        k = -math.floor(r)
    return k, 2.0 ** (a * k + d)


def _trace(entries, ld: float) -> float:
    return float(np.trace(entries))


def _fingerprint(entries, ld: float) -> float:
    # Collision-resistant digest of the raw entries; equality of identity
    # values goes through the stored matrix, entrywise.
    digest = hashlib.blake2b(entries.tobytes(), digest_size=8).digest()
    return float(int.from_bytes(digest, "big"))


def factored_cost(kernel: KernelSpec) -> CostFunction:
    """Cost function determined by a kernel: trivial -> determinant,
    lattice(a) -> quantized determinant with constant a."""
    if kernel.variant == TRIVIAL:
        return CostFunction("det", "det", _det, kernel)
    a = kernel.a
    return CostFunction(f"qdet:{a:g}", f"qdet:{a:.17g}",
                        lambda entries, ld: quantize_log2_det(ld / _LN2, a)[1], kernel)


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
