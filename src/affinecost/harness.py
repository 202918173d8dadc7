"""Randomized property verification for cost functions.

Five identity checks (the defining implication, orthogonal conjugation,
the commutator equality, the SVD collapse, and determinant factorization),
a scalar surjectivity probe, and kernel estimation. check(f, cfg, name)
runs one identity check, named as in ALL_CHECKS, for one cost, and
run_all_checks runs all five for several costs over shared samples.
The probe tries one candidate per sample, the scalar matrix of equal
determinant, which covers every sample of a cost that factors through
the determinant.
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
    IDENTITY_ENTRY_TOL,
    CostFunction,
    cost_value_discrepancy,
    cost_values_match,
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


def _tol(value, rel_tol: float) -> float:
    # Matrix-valued (identity) costs compare entrywise, at a fixed tolerance.
    return IDENTITY_ENTRY_TOL if value.payload is not None else rel_tol


def _run_checks(costs, cfg: TrialConfig, check_name: str) -> list:
    """Drive one identity check for several costs over shared samples.

    Each trial yields (sub_name, inputs, evaluate) tuples, where inputs
    maps names to raw arrays (serialized only on failure) and evaluate(f)
    produces the (lhs, rhs) cost values. Sharing the sampled matrices
    across costs changes nothing in any single report: trial streams
    depend only on (master_seed, check, dim, trial).
    """
    trial_fn = _TRIALS[check_name]
    extra = (cfg.rel_tol,) if check_name == "implication" else ()
    totals = [dict() for _ in costs]
    examples: list = [[] for _ in costs]
    for dim in cfg.dims:
        for trial in range(cfg.trials):
            rng = _trial_rng(cfg.master_seed, check_name, dim, trial)
            samples = list(trial_fn(dim, rng, *extra))
            for slot, f in enumerate(costs):
                for sub_name, inputs, evaluate in samples:
                    lhs, rhs = evaluate(f)
                    disc = cost_value_discrepancy(lhs, rhs)
                    runs, fails, worst = totals[slot].get(sub_name, (0, 0, 0.0))
                    runs += 1
                    if disc > _tol(lhs, cfg.rel_tol):
                        fails += 1
                        if len(examples[slot]) < MAX_COUNTEREXAMPLES:
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


def _orthogonal_trial(dim, rng):
    A = random_gl(dim, rng)
    Q = random_orthogonal(dim, rng)
    gram = congruence(SymPosDefMatrix.identity(dim), A)
    conjugated = congruence(gram, Q)
    yield "orthogonal", {"A": A.entries, "Q": Q.entries}, lambda f: (f(gram), f(conjugated))


def _commutator_trial(dim, rng):
    A = random_gl(dim, rng)
    B = random_gl(dim, rng)
    lhs = congruence(congruence(SymPosDefMatrix.identity(dim), B), A)
    rhs = congruence(congruence(SymPosDefMatrix.identity(dim), A), B)
    yield "commutator", {"A": A.entries, "B": B.entries}, lambda f: (f(lhs), f(rhs))


def _svd_collapse_trial(dim, rng):
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
        vM = f(M)
        if cost_value_discrepancy(vM, f(N)) <= _tol(vM, rel_tol):
            return lhs, f(NA)
        return lhs, lhs

    yield "implication", {"M": M.entries, "N": N.entries, "A": A.entries}, evaluate


def _det_factorization_trial(dim, rng):
    M = random_pd(dim, rng)
    S = random_sl(dim, rng)
    conjugated = congruence(M, S)
    scalar = SymPosDefMatrix.scalar(dim, math.exp(log_det(M) / dim))
    yield "sl_conjugation", {"M": M.entries, "S": S.entries}, lambda f: (f(conjugated), f(M))
    yield "scalar_collapse", {"M": M.entries, "sI": scalar.entries}, lambda f: (f(M), f(scalar))


_TRIALS = {
    "implication": _implication_trial,
    "orthogonal": _orthogonal_trial,
    "commutator": _commutator_trial,
    "svd_collapse": _svd_collapse_trial,
    "det_factorization": _det_factorization_trial,
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
    if name not in _TRIALS:
        raise ValueError(f"unknown check {name!r}; expected one of {', '.join(ALL_CHECKS)}")
    return _run_checks([f], cfg, name)[0]


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
    covered = 0
    samples = 0
    uncovered: list = []
    for dim in cfg.dims:
        for trial in range(cfg.trials):
            rng = _trial_rng(cfg.master_seed, "surjectivity", dim, trial)
            M = random_pd(dim, rng)
            samples += 1
            solved = SymPosDefMatrix.scalar(dim, math.exp(log_det(M) / dim))
            if cost_values_match(f(M), f(solved), cfg.rel_tol):
                covered += 1
            elif len(uncovered) < MAX_COUNTEREXAMPLES:
                uncovered.append(
                    Counterexample("surjectivity", dim, trial, {"M": format_matrix(M.entries)})
                )
    fraction = covered / samples if samples else 0.0
    return SurjectivityReport(f.name, fraction, samples, tuple(uncovered))


def _scalar_value(f: CostFunction, n: int, log2_t: float) -> float:
    # Canonical value of f on the scalar matrix with determinant 2**log2_t.
    t_root = 2.0 ** (log2_t / n)
    return f(SymPosDefMatrix.scalar(n, t_root)).canonical


def _bisect_drop(f: CostFunction, n: int, d_lo: float, d_hi: float) -> float:
    """Locate the discontinuity where the canonical value falls back to
    the interval base, given that it drops between d_lo and d_hi."""
    ref = _scalar_value(f, n, d_lo)
    while d_hi - d_lo > KERNEL_BISECTION_TOL:
        mid = 0.5 * (d_lo + d_hi)
        mid_value = _scalar_value(f, n, mid)
        if mid_value >= ref:
            d_lo, ref = mid, mid_value
        else:
            d_hi = mid
    return d_hi


def estimate_kernel(f: CostFunction, cfg: TrialConfig) -> KernelEstimate:
    """Identify the kernel lattice of a factoring cost from scalar scans.

    Scans t over a dyadic geometric grid in (1, 16]: a point is
    kernel-positive when f(t**(1/n) * I) = f(I), and each sawtooth drop of
    the canonical value between neighboring grid points is localized by
    bisection. No kernel points means the trivial kernel; otherwise the
    lattice constant is fit through the detected points (exact to 1e-6
    for grid-aligned lattices, 5e-5 otherwise) and every expected multiple
    must be present, else the scan refuses to guess and raises
    UnrecognizedKernelError.

    The caller is responsible for the precondition that f passes the
    invariance checks; scans of non-factoring costs are meaningless.
    """
    n = cfg.dims[0]
    base = f(SymPosDefMatrix.identity(n))
    if base.payload is not None:
        raise UnrecognizedKernelError(
            "cost equality is not represented by its canonical real; "
            "scalar scans cannot identify a kernel"
        )
    # Dyadic log2 grid: m/512 for m = 1..2048, exactly representable.
    d_grid = np.arange(1, KERNEL_GRID_POINTS + 1) * (KERNEL_LOG2_MAX / KERNEL_GRID_POINTS)
    values = [f(SymPosDefMatrix.scalar(n, 2.0 ** (d / n))) for d in d_grid]
    flagged = set()
    kernel_points: list = []
    for d, v in zip(d_grid, values):
        if cost_values_match(v, base, cfg.rel_tol):
            flagged.add(float(d))
            kernel_points.append(float(d))
    canon = np.array([v.canonical for v in values])
    prev_d = 0.0
    prev_c = base.canonical
    for d, c in zip(d_grid, canon):
        # A canonical drop between neighbors brackets a kernel point. An
        # equality flag at either endpoint already locates it exactly;
        # otherwise bisection narrows the drop (to within the quantizer's
        # boundary-snap width of the true point).
        if c < prev_c * (1.0 - 1e-9) and prev_d not in flagged and float(d) not in flagged:
            kernel_points.append(_bisect_drop(f, n, prev_d, float(d)))
        prev_d, prev_c = float(d), c
    if not kernel_points:
        return KernelEstimate("trivial", None, 0)
    # Merge duplicate detections of the same lattice point.
    kernel_points.sort()
    merged = [kernel_points[0]]
    for d in kernel_points[1:]:
        if d - merged[-1] > 1e-4:
            merged.append(d)
    # Fit the lattice constant through the origin; every point must sit on
    # a distinct multiple and no expected multiple may be missing.
    base_estimate = merged[0]
    multiples = [round(d / base_estimate) for d in merged]
    a_estimate = sum(merged) / sum(multiples)
    for d, j in zip(merged, multiples):
        if j < 1 or abs(d - j * a_estimate) > 5e-5:
            raise UnrecognizedKernelError(
                f"kernel points {merged} do not form a lattice with base {a_estimate}"
            )
    expected = int(math.floor(KERNEL_LOG2_MAX / a_estimate + 1e-9))
    if multiples != list(range(1, expected + 1)):
        raise UnrecognizedKernelError(
            f"kernel points {merged} miss expected multiples of {a_estimate}"
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
    per_check = [_run_checks(list(costs), cfg, name) for name in ALL_CHECKS]
    merged = []
    for slot, f in enumerate(costs):
        checks = tuple(c for reports in per_check for c in reports[slot].checks)
        examples = tuple(e for reports in per_check for e in reports[slot].counterexamples)
        merged.append(InvarianceReport(f.name, checks, examples))
    return merged


def run_invariance_suite(f: CostFunction, cfg: TrialConfig) -> SuiteReport:
    merged = run_all_checks([f], cfg)[0]
    probe = probe_scalar_surjectivity(f, cfg)
    return SuiteReport(f.name, merged, probe)
