"""Randomized property verification for cost functions.

Five identity checks (the defining implication, orthogonal conjugation,
the commutator equality, the SVD collapse, and determinant factorization),
a scalar surjectivity probe, and kernel estimation. check(f, cfg, name)
runs one identity check, named as in ALL_CHECKS, for one cost, and
run_all_checks runs all five for several costs over shared samples.
The probe runs through the same trial runner and tries one candidate per
sample, the scalar matrix of equal determinant, which covers every sample
of a cost that factors through the determinant. Kernel estimation reads
the cost's value map on log-determinants and builds no matrix.
Every check samples matrices through per-trial seeds split off a master
seed, so a report is a deterministic function of its TrialConfig alone
and independent of execution order. Failures are data, not errors: they
are aggregated into reports together with fully serialized
counterexample inputs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cost import (
    CostFunction,
    CostValue,
    cost_value_discrepancy,
    cost_values_match,
    value_tolerance,
)
from .linalg import (
    SymPosDefMatrix,
    congruence,
    format_matrix,
    log_det,
    random_gl,
    random_orthogonal,
    random_pd,
    random_sl,
    svd_decompose,
)

# Counterexamples stored per check; failure counts are always exact.
MAX_COUNTEREXAMPLES = 10

# Kernel scan: log2 t covers (0, 4] (t up to 16) in dyadic steps, fine
# enough to resolve lattice constants down to 0.25.
KERNEL_LOG2_MAX = 4.0
KERNEL_GRID_POINTS = 2048
KERNEL_BISECTION_TOL = 1e-7

ALL_CHECKS = (
    "implication",
    "orthogonal",
    "commutator",
    "svd_collapse",
    "det_factorization",
)


class UnrecognizedKernelError(RuntimeError):
    """Kernel scan found a pattern that is not a lattice (or no scalar
    structure at all); refusing to guess."""


@dataclass(frozen=True)
class TrialConfig:
    """Sweep shape shared by all checks.

    rel_tol is the equality tolerance handed to the cost comparison; it is
    an engineering choice, surfaced here rather than hard-coded.
    """

    dims: tuple = (1, 2, 3, 4, 5, 6)
    trials: int = 100
    master_seed: int = 0
    rel_tol: float = 1e-8

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"dims must be positive, got {self.dims!r}")
        object.__setattr__(self, "dims", dims)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise ValueError(f"rel_tol must be finite and positive, got {self.rel_tol!r}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials_run: int
    failures: int
    worst_discrepancy: float

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "trials_run": self.trials_run,
            "failures": self.failures,
            "worst_discrepancy": self.worst_discrepancy,
        }


@dataclass(frozen=True)
class Counterexample:
    check_name: str
    dim: int
    trial: int
    inputs: dict

    def as_dict(self) -> dict:
        return {
            "check": self.check_name,
            "dim": self.dim,
            "trial": self.trial,
            "inputs": dict(self.inputs),
        }


@dataclass(frozen=True)
class InvarianceReport:
    """Aggregate of one or more checks; verdict passes only with zero
    failures everywhere."""

    cost_name: str
    checks: tuple
    counterexamples: tuple

    @property
    def verdict(self) -> str:
        return "pass" if all(c.failures == 0 for c in self.checks) else "fail"

    def as_dict(self) -> dict:
        return {
            "cost": self.cost_name,
            "verdict": self.verdict,
            "checks": [c.as_dict() for c in self.checks],
            "counterexamples": [c.as_dict() for c in self.counterexamples],
        }


@dataclass(frozen=True)
class SurjectivityReport:
    """Coverage of f's values by the scalar matrices s*I."""

    cost_name: str
    covered_fraction: float
    samples: int
    uncovered: tuple

    def as_dict(self) -> dict:
        return {
            "cost": self.cost_name,
            "covered_fraction": self.covered_fraction,
            "samples": self.samples,
            "uncovered_count": self.samples - round(self.covered_fraction * self.samples),
            "uncovered": [c.as_dict() for c in self.uncovered],
        }


@dataclass(frozen=True)
class KernelEstimate:
    variant_guess: str
    a_estimate: Optional[float]
    matched_grid_points: int

    def as_dict(self) -> dict:
        return {
            "variant": self.variant_guess,
            "a": self.a_estimate,
            "matched_grid_points": self.matched_grid_points,
        }


def _trial_rng(master_seed: int, check_name: str, dim: int, trial: int) -> np.random.Generator:
    # Counter-based split: each trial gets its own stream, independent of
    # execution order, so reports never depend on scheduling.
    key = f"{master_seed}|{check_name}|{dim}|{trial}".encode()
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "big"))


def _run_checks(costs, cfg: TrialConfig, names) -> list:
    """Drive the named trial kinds for several costs over shared samples;
    returns one InvarianceReport per cost, its checks in names order.

    Each trial yields (sub_name, inputs, evaluate) tuples, where inputs
    maps names to raw arrays (serialized only on failure) and evaluate(f)
    produces the (lhs, rhs) cost values. Sharing the sampled matrices
    across costs and kinds changes nothing in any single report: trial
    streams depend only on (master_seed, kind, dim, trial), and each kind
    keeps at most MAX_COUNTEREXAMPLES counterexamples per cost.
    """
    totals = [dict() for _ in costs]
    examples: list = [[] for _ in costs]
    for name in names:
        trial_fn = _TRIALS[name]
        caps = [len(found) + MAX_COUNTEREXAMPLES for found in examples]
        for dim in cfg.dims:
            for trial in range(cfg.trials):
                rng = _trial_rng(cfg.master_seed, name, dim, trial)
                samples = list(trial_fn(dim, rng, cfg.rel_tol))
                for slot, f in enumerate(costs):
                    for sub_name, inputs, evaluate in samples:
                        lhs, rhs = evaluate(f)
                        disc = cost_value_discrepancy(lhs, rhs)
                        runs, fails, worst = totals[slot].get(sub_name, (0, 0, 0.0))
                        runs += 1
                        if disc > value_tolerance(lhs, cfg.rel_tol):
                            fails += 1
                            if len(examples[slot]) < caps[slot]:
                                serialized = {k: format_matrix(v) for k, v in inputs.items()}
                                examples[slot].append(
                                    Counterexample(sub_name, dim, trial, serialized)
                                )
                        totals[slot][sub_name] = (runs, fails, max(worst, disc))
    reports = []
    for slot, f in enumerate(costs):
        checks = tuple(
            CheckResult(name, runs, fails, worst)
            for name, (runs, fails, worst) in totals[slot].items()
        )
        reports.append(InvarianceReport(f.name, checks, tuple(examples[slot])))
    return reports


def _solved_scalar(M: SymPosDefMatrix) -> SymPosDefMatrix:
    # The scalar matrix s*I of M's determinant, s = exp(log_det(M)/n).
    return SymPosDefMatrix.scalar(M.n, math.exp(log_det(M) / M.n))


def _orthogonal_trial(dim, rng, rel_tol):
    A = random_gl(dim, rng)
    Q = random_orthogonal(dim, rng)
    gram = congruence(SymPosDefMatrix.identity(dim), A)
    conjugated = congruence(gram, Q)
    yield "orthogonal", {"A": A.entries, "Q": Q.entries}, lambda f: (f(gram), f(conjugated))


def _commutator_trial(dim, rng, rel_tol):
    A = random_gl(dim, rng)
    B = random_gl(dim, rng)
    lhs = congruence(congruence(SymPosDefMatrix.identity(dim), B), A)
    rhs = congruence(congruence(SymPosDefMatrix.identity(dim), A), B)
    yield "commutator", {"A": A.entries, "B": B.entries}, lambda f: (f(lhs), f(rhs))


def _svd_collapse_trial(dim, rng, rel_tol):
    A = random_gl(dim, rng)
    B = random_gl(dim, rng)
    full = congruence(congruence(SymPosDefMatrix.identity(dim), B), A)
    core = SymPosDefMatrix.diagonal((svd_decompose(B) * svd_decompose(A)) ** 2)
    yield "svd_collapse", {"A": A.entries, "B": B.entries}, lambda f: (f(full), f(core))


def _implication_trial(dim, rng, rel_tol):
    M = random_pd(dim, rng)
    S = random_sl(dim, rng)
    N = congruence(M, S)
    A = random_gl(dim, rng)
    MA = congruence(M, A)
    NA = congruence(N, A)

    def evaluate(f):
        # Equal-value pairs are constructed, not searched: N is the
        # SL-congruence when that preserves the value (always, for
        # factoring costs) and an exact copy of M otherwise; rejection
        # sampling on equality of reals would never terminate.
        lhs = f(MA)
        if cost_values_match(f(M), f(N), rel_tol):
            return lhs, f(NA)
        return lhs, lhs

    yield "implication", {"M": M.entries, "N": N.entries, "A": A.entries}, evaluate


def _det_factorization_trial(dim, rng, rel_tol):
    M = random_pd(dim, rng)
    S = random_sl(dim, rng)
    conjugated = congruence(M, S)
    scalar = _solved_scalar(M)
    yield "sl_conjugation", {"M": M.entries, "S": S.entries}, lambda f: (f(conjugated), f(M))
    yield "scalar_collapse", {"M": M.entries, "sI": scalar.entries}, lambda f: (f(M), f(scalar))


def _surjectivity_trial(dim, rng, rel_tol):
    M = random_pd(dim, rng)
    solved = _solved_scalar(M)
    yield "surjectivity", {"M": M.entries}, lambda f: (f(M), f(solved))


_TRIALS = {
    "implication": _implication_trial,
    "orthogonal": _orthogonal_trial,
    "commutator": _commutator_trial,
    "svd_collapse": _svd_collapse_trial,
    "det_factorization": _det_factorization_trial,
    "surjectivity": _surjectivity_trial,
}


def check(f: CostFunction, cfg: TrialConfig, name: str) -> InvarianceReport:
    """Run one identity check for one cost; name is one of ALL_CHECKS.

    - "implication", the defining one: f(M) = f(N) must force
      f(A^T M A) = f(A^T N A);
    - "orthogonal": f(A^T A) = f(Q^T A^T A Q) for orthogonal Q;
    - "commutator": f(A^T B^T B A) = f(B^T A^T A B);
    - "svd_collapse": with A = P1 L1 Q1 and B = P2 L2 Q2, f(A^T B^T B A)
      equals f on the singular-value core (L2 L1)^T L2 L1;
    - "det_factorization", two sub-checks per trial: SL congruence leaves
      the value fixed (sl_conjugation), and the value agrees with the
      scalar matrix s*I of equal determinant, s = exp(log_det(M)/n)
      (scalar_collapse).
    """
    if name not in ALL_CHECKS:
        raise ValueError(f"unknown check {name!r}; expected one of {', '.join(ALL_CHECKS)}")
    return _run_checks([f], cfg, (name,))[0]


def check_det_factorization(f: CostFunction, cfg: TrialConfig) -> InvarianceReport:
    """check(f, cfg, "det_factorization"), the precondition of kernel
    estimation."""
    return check(f, cfg, "det_factorization")


def probe_scalar_surjectivity(f: CostFunction, cfg: TrialConfig) -> SurjectivityReport:
    """Fraction of random samples M whose value f(M) equals f(s*I) at
    the solved scalar s = exp(log_det(M)/n).

    The solved scalar is the only candidate tried. A cost that factors
    through the determinant takes equal values on matrices of equal
    determinant, so this s covers every M and no other candidate could
    add coverage; that is the surjectivity on scalar matrices the
    factoring theorem uses. A cost matched only by some other scalar (the
    trace, at s = tr(M)/n) counts as uncovered, since its witness does
    not come from the determinant.
    """
    report = _run_checks([f], cfg, ("surjectivity",))[0]
    (result,) = report.checks
    fraction = (result.trials_run - result.failures) / result.trials_run
    return SurjectivityReport(f.name, fraction, result.trials_run, report.counterexamples)


def _scalar_value(f: CostFunction, log2_t: float) -> CostValue:
    # f on the scalar matrices of determinant 2**log2_t: a factoring cost
    # reads only the log-det, so no matrix is built.
    return CostValue(f.value(None, log2_t * math.log(2.0)), f.tag)


def _bisect_drop(f: CostFunction, d_lo: float, d_hi: float) -> float:
    """Locate the discontinuity where the canonical value falls back to
    the interval base, given that it drops between d_lo and d_hi."""
    ref = _scalar_value(f, d_lo).canonical
    while d_hi - d_lo > KERNEL_BISECTION_TOL:
        mid = 0.5 * (d_lo + d_hi)
        mid_value = _scalar_value(f, mid).canonical
        if mid_value >= ref:
            d_lo, ref = mid, mid_value
        else:
            d_hi = mid
    return d_hi


def estimate_kernel(f: CostFunction, cfg: TrialConfig) -> KernelEstimate:
    """Identify the kernel lattice of a factoring cost from scalar scans.

    Scans log2 t over a dyadic grid in (0, 4] through the cost's value
    map: a point is kernel-positive when f(t) = f(1), and each sawtooth
    drop of the canonical value between neighbors is localized by
    bisection. No kernel points gives the trivial kernel, provided
    f(1/16) < f(1). Otherwise the lattice constant is fit through the
    points (exact to 1e-6 for grid-aligned lattices, 5e-5 otherwise),
    every expected multiple must be present, and f must rise strictly
    between them. Anything else, and a cost that does not factor (kernel
    None), raises UnrecognizedKernelError. Only cfg.rel_tol is read; the
    caller checks that f passes the invariance checks.
    """
    if f.kernel is None:
        raise UnrecognizedKernelError(
            f"cost {f.name!r} does not factor through the determinant; "
            "scalar scans cannot identify a kernel"
        )
    base = _scalar_value(f, 0.0)
    kernel_points: list = []
    prev_d, prev_c, prev_flagged = 0.0, base.canonical, False
    # Dyadic log2 grid: m/512 for m = 1..2048, exactly representable.
    for m in range(1, KERNEL_GRID_POINTS + 1):
        d = m * (KERNEL_LOG2_MAX / KERNEL_GRID_POINTS)
        value = _scalar_value(f, d)
        flagged = cost_values_match(value, base, cfg.rel_tol)
        if flagged:
            kernel_points.append(d)
        elif value.canonical < prev_c * (1.0 - 1e-9) and not prev_flagged:
            # A canonical drop between neighbors brackets a kernel point.
            # An equality flag at either endpoint already locates it
            # exactly; otherwise bisection narrows the drop (to within the
            # quantizer's boundary-snap width of the true point).
            kernel_points.append(_bisect_drop(f, prev_d, d))
        prev_d, prev_c, prev_flagged = d, value.canonical, flagged
    if not kernel_points:
        # A lattice constant past the scan folds f(1/16) above f(1); its
        # bound a < 1024 keeps the quantizer's boundary snap from hiding that.
        if _scalar_value(f, -KERNEL_LOG2_MAX).canonical >= base.canonical:
            raise UnrecognizedKernelError(
                "no kernel point in the scan, but f(1/16) >= f(1): "
                "the lattice constant is past the scan"
            )
        return KernelEstimate("trivial", None, 0)
    # Merge duplicate detections of the same lattice point.
    kernel_points.sort()
    merged = [kernel_points[0]]
    for d in kernel_points[1:]:
        if d - merged[-1] > 1e-4:
            merged.append(d)
    # Fit the lattice constant through the origin; the points must be
    # exactly its multiples 1, 2, ... up to the end of the scan.
    base_estimate = merged[0]
    multiples = [round(d / base_estimate) for d in merged]
    a_estimate = sum(merged) / sum(multiples)
    expected = int(math.floor(KERNEL_LOG2_MAX / a_estimate + 1e-9))
    if multiples != list(range(1, expected + 1)) or any(
            abs(d - j * a_estimate) > 5e-5 for d, j in zip(merged, multiples)):
        shown = ", ".join(f"{d:.6g}" for d in merged[:5]) + ", ..." * (len(merged) > 5)
        raise UnrecognizedKernelError(
            f"{len(merged)} kernel points [{shown}] are not the multiples "
            f"1..{expected} of {a_estimate:.6g}"
        )
    # Between lattice points the folded value climbs from f(1); a constant
    # below the grid's resolution aliases onto grid points instead.
    rise = [base] + [_scalar_value(f, j * a_estimate / 64) for j in range(1, 64)]
    if any(cost_values_match(v, base, cfg.rel_tol) or u.canonical >= v.canonical
           for u, v in zip(rise, rise[1:])):
        raise UnrecognizedKernelError(
            f"f does not rise strictly between kernel points {a_estimate:.6g} apart: "
            "the lattice constant is below the scan's resolution"
        )
    return KernelEstimate("lattice", a_estimate, len(merged))


@dataclass(frozen=True)
class SuiteReport:
    """All five identity checks plus the surjectivity probe."""

    cost_name: str
    report: InvarianceReport
    surjectivity: SurjectivityReport

    @property
    def verdict(self) -> str:
        checks_pass = self.report.verdict == "pass"
        probe_pass = self.surjectivity.covered_fraction == 1.0
        return "pass" if checks_pass and probe_pass else "fail"

    def as_dict(self) -> dict:
        body = self.report.as_dict()
        body["surjectivity"] = self.surjectivity.as_dict()
        body["verdict"] = self.verdict
        return body


def run_all_checks(costs, cfg: TrialConfig) -> list:
    """All five identity checks for several costs over shared samples;
    returns one merged InvarianceReport per cost, identical to what
    check would produce for each cost and name."""
    return _run_checks(list(costs), cfg, ALL_CHECKS)


def run_invariance_suite(f: CostFunction, cfg: TrialConfig) -> SuiteReport:
    merged = run_all_checks([f], cfg)[0]
    probe = probe_scalar_surjectivity(f, cfg)
    return SuiteReport(f.name, merged, probe)
