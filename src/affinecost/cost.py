"""Affine-invariant cost functions on positive definite matrices.

The factoring family is parameterized by a kernel of the multiplicative
group (0, inf): the trivial kernel gives the plain determinant cost, and a
lattice kernel with log-constant a gives the quantized determinant cost
2**(a*k) * det(M) folded into [1, 2**a). Two control functions round out
the family: the trace (not affine invariant) and the identity map on
matrices (affine invariant, but its values do not reduce to a scalar).

Cost values carry a canonical real representative plus a class tag;
equality is tolerance-aware and only defined between values of the same
tag. Identity-cost values compare by their underlying matrices instead of
the canonical real, which is merely a fingerprint there.
"""

from __future__ import annotations

import hashlib
import math
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


def cost_values_match(u: CostValue, v: CostValue, rel_tol: float = COST_REL_TOL) -> bool:
    """Tolerance-aware equality; comparing different classes is an error."""
    if u.class_tag != v.class_tag:
        raise ValueError(
            f"cost values of class {u.class_tag!r} and {v.class_tag!r} are not comparable"
        )
    if u.payload is not None:
        return float(np.abs(u.payload - v.payload).max()) <= IDENTITY_ENTRY_TOL
    return abs(u.canonical - v.canonical) <= rel_tol * max(
        1.0, abs(u.canonical), abs(v.canonical)
    )


def cost_value_discrepancy(u: CostValue, v: CostValue) -> float:
    """Scalar mismatch measure used for worst-case reporting.

    For scalar-valued costs this is the relative difference, directly
    comparable to a relative tolerance; for matrix-valued costs it is the
    largest entry difference.
    """
    if u.class_tag != v.class_tag:
        raise ValueError(
            f"cost values of class {u.class_tag!r} and {v.class_tag!r} are not comparable"
        )
    if u.payload is not None:
        return float(np.abs(u.payload - v.payload).max())
    return abs(u.canonical - v.canonical) / max(1.0, abs(u.canonical), abs(v.canonical))


@dataclass(frozen=True)
class KernelSpec:
    """Kernel of the determinant-value homomorphism: trivial, or the
    multiplicative lattice generated by 2**a (a > 0 in log2 units)."""

    variant: str
    a: Optional[float] = None

    def __post_init__(self):
        if self.variant not in (TRIVIAL, LATTICE):
            raise ValueError(f"unknown kernel variant {self.variant!r}")
        if self.variant == LATTICE:
            if self.a is None or not math.isfinite(self.a) or self.a <= 0.0:
                raise ValueError(
                    f"lattice kernel requires a > 0, got {self.a!r}; "
                    "use the trivial kernel for a = 0"
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
    """Named map from SymPosDefMatrix to CostValue.

    kernel is set for the factoring family and None for control functions.
    Evaluation is pure and defined for every dimension n >= 1.
    """

    name: str
    evaluate: Callable[[SymPosDefMatrix], CostValue]
    kernel: Optional[KernelSpec] = None

    def __call__(self, M: SymPosDefMatrix) -> CostValue:
        return self.evaluate(M)


def det_cost(M: SymPosDefMatrix) -> CostValue:
    return CostValue(math.exp(log_det(M)), "det")


def quantize_log2_det(d: float, a: float) -> tuple:
    """Fold a log2 determinant d into [1, 2**a): returns (k, canonical)
    with k the unique integer putting 2**(a*k + d) in the interval.

    Values of d/a within QUANT_BOUNDARY_SNAP of an integer snap to it, so
    determinants sitting on a lattice point fold to the lower edge 1.
    """
    if a <= 0.0:
        raise ValueError(f"quantization constant must be positive, got {a}")
    r = d / a
    nearest = round(r)
    if abs(r - nearest) <= QUANT_BOUNDARY_SNAP:
        k = -int(nearest)
    else:
        k = -math.floor(r)
    return k, 2.0 ** (a * k + d)


def _qdet_tag(a: float) -> str:
    return f"qdet:{a:.17g}"


def quantized_det_cost(M: SymPosDefMatrix, a: float) -> CostValue:
    _, canonical = quantize_log2_det(log_det(M) / _LN2, a)
    return CostValue(canonical, _qdet_tag(a))


def identity_cost(M: SymPosDefMatrix) -> CostValue:
    """The identity map, packaged as a cost value.

    The canonical real is a collision-resistant fingerprint of the raw
    entries; equality goes through the stored matrix, entrywise.
    """
    digest = hashlib.blake2b(M.entries.tobytes(), digest_size=8).digest()
    fingerprint = float(int.from_bytes(digest, "big"))
    return CostValue(fingerprint, "identity", payload=M.entries)


def trace_cost(M: SymPosDefMatrix) -> CostValue:
    """Trace of M; a control function that is not affine invariant."""
    return CostValue(float(np.trace(M.entries)), "trace")


def factored_cost(kernel: KernelSpec) -> CostFunction:
    """Cost function determined by a kernel: trivial -> determinant,
    lattice(a) -> quantized determinant with constant a."""
    if kernel.variant == TRIVIAL:
        return CostFunction("det", det_cost, kernel)
    a = kernel.a

    def evaluate(M: SymPosDefMatrix) -> CostValue:
        return quantized_det_cost(M, a)

    return CostFunction(f"qdet:{a:g}", evaluate, kernel)


DET_COST = factored_cost(KernelSpec.trivial())
IDENTITY_COST = CostFunction("identity", identity_cost)
TRACE_COST = CostFunction("trace", trace_cost)


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
        if not math.isfinite(a) or a <= 0.0:
            raise ValueError(f"quantization constant must be positive, got {raw!r}")
        return factored_cost(KernelSpec.lattice(a))
    raise ValueError(
        f"unknown cost selector {selector!r}; expected det, qdet:<a>, trace or identity"
    )
