"""Randomized property verification for cost functions.

Five identity checks (the defining implication, orthogonal conjugation,
the commutator equality, the SVD collapse, and determinant factorization),
a scalar surjectivity probe, and kernel estimation. check(f, cfg, name)
runs one identity check, named as in ALL_CHECKS, for one cost, and
run_all_checks runs all five for several costs over shared samples. Each
trial draws one family, M (PD), S (SL), A and B (GL) and Q (orthogonal),
from one stream: np.random.default_rng of the 64-bit blake2b key of
(master seed, dim, trial). So a report is a deterministic function of its
TrialConfig, and a check's rows do not depend on the checks run beside it.
The family's 10 stacks serve all six sub-checks, and the probe (f(M)
against f(s*I) at s*I of equal determinant) is a view of scalar_collapse's
rows on every report, so run_invariance_suite returns run_all_checks'
report. The runner makes one pass per dimension, in chunks of trials: a
chunk seeds its streams in one rng.default_rngs batch, bit for bit those
streams, and draws them as (trials, n, n) stacks. The chunk's stacks, at
most CHUNK_ENTRIES entries, pass gate_pd (SymPosDefMatrix's gate, the only
one: the samplers' draws and grams are valid by construction) in one call,
and each cost scores them in one values call; a matrix has the same bits
in any stack, so neither batching nor chunking changes a report. Failures
are data, not errors: each sub-check's fail mask is counted, and only
failing trials are kept as counterexamples, whose matrices are written out
only when a report is (as_dict). Kernel estimation reads the cost's value
map on log-determinants and builds no matrix.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .cost import (CostFunction, CostValues, libm_exp, value_discrepancies, value_tolerance,
                   values_match)
from .linalg import (MAX_DIM, congruence_stack, format_matrix, gate_pd, random_gl_stack,
                     random_orthogonal_stack, random_pd_stack, stack_log_dets)
# perfbench's tracer wraps these one-matrix names on this module.
from .linalg import (congruence, log_det, random_gl, random_orthogonal,  # noqa: F401
                     random_pd, random_sl, svd_decompose)

# Counterexamples stored per check; failure counts are always exact.
MAX_COUNTEREXAMPLES = 10

# Matrix entries a chunk scores: dimension n runs its trials in chunks of
# CHUNK_ENTRIES // (n**2 * stacks the family stages per trial), at least
# one, so a pass holds a few stacks of at most this many entries whatever
# the dimension, trial count and checks.
CHUNK_ENTRIES = 2**15

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
        # Bounded before any stack of n x n matrices is allocated.
        if not dims or any(not 1 <= d <= MAX_DIM for d in dims):
            raise ValueError(f"dims must be in [1, {MAX_DIM}], got {self.dims!r}")
        object.__setattr__(self, "dims", dims)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        # At 1 every scalar comparison passes: |u - v| <= max(1, |u|, |v|)
        # for nonnegative values.
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError(
                f"rel_tol must be finite and positive, and below 1, got {self.rel_tol!r}")


@dataclass(frozen=True)
class CheckResult:
    name: str
    trials_run: int
    failures: int
    worst_discrepancy: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class Counterexample:
    """A failing trial; inputs maps names to the trial's matrices, which
    as_dict writes in the matrix text format."""

    check_name: str
    dim: int
    trial: int
    inputs: dict

    def as_dict(self) -> dict:
        return {
            "check": self.check_name,
            "dim": self.dim,
            "trial": self.trial,
            "inputs": {key: format_matrix(matrix) for key, matrix in self.inputs.items()},
        }


@dataclass(frozen=True)
class InvarianceReport:
    """Aggregate of one or more checks; verdict passes only with zero
    failures everywhere. probe is the surjectivity probe over the same
    samples, which every pass scores and as_dict leaves out; it fails
    exactly where scalar_collapse does."""

    cost_name: str
    checks: tuple
    counterexamples: tuple
    probe: SurjectivityReport

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


def _trial_rngs(master_seed: int, dim: int, trials) -> list:
    """The Generators of dim's trials: each is np.random.default_rng of
    its trial's 64-bit blake2b key, so no stream depends on execution
    order, and one rng.default_rngs call seeds them all."""
    # Imported on first use, as np.random is: loading numpy.random costs
    # about 12 ms and 2.5 MB, which commands that draw nothing skip.
    from .rng import default_rngs

    # The key hashes f"{master_seed}|{dim}|{trial}"; the prefix is hashed
    # once and copied for each trial.
    prefix = hashlib.blake2b(f"{master_seed}|{dim}|".encode(), digest_size=8)
    digests = []
    for trial in trials:
        key = prefix.copy()
        key.update(str(trial).encode())
        digests.append(key.digest())
    return default_rngs(np.frombuffer(b"".join(digests), dtype=">u8"))


def _rows(values: CostValues, rows: slice) -> CostValues:
    payload = None if values.payload is None else values.payload[rows]
    return CostValues(values.canonical[rows], values.class_tag, payload)


def _run_checks(costs, cfg: TrialConfig, names) -> list:
    """Score the named checks' sub-checks (keys of _CHECKS) and the probe
    for several costs over the trial family; returns one InvarianceReport
    per cost, its checks and counterexamples in names order.

    The family draws a chunk's stacks from its trials' streams, stages
    each stack it scores into the chunk's batch (FAMILY_STACKS per trial),
    and yields (sub_name, inputs, lhs, rhs, guard): inputs maps names to
    raw stacks, whose rows a failing trial keeps; lhs and rhs are rows of
    the batch; a guard (i, j) compares lhs with rhs only where f(i) = f(j),
    and a failed guard counts a zero discrepancy. Each check keeps at most
    MAX_COUNTEREXAMPLES counterexamples per cost, in (dim, trial,
    sub-check) order.
    """
    names = (*names, "surjectivity")
    kinds = {sub_name: k for k, name in enumerate(names) for sub_name in _CHECKS[name]}
    totals = [dict() for _ in costs]
    examples = [[[] for _ in names] for _ in costs]
    for dim in cfg.dims:
        step = max(1, CHUNK_ENTRIES // (dim**2 * FAMILY_STACKS))
        for first in range(0, cfg.trials, step):
            trials = range(first, min(first + step, cfg.trials))
            m = len(trials)
            rngs = _trial_rngs(cfg.master_seed, dim, trials)
            batch = np.empty((FAMILY_STACKS * m, dim, dim))
            rows = iter(range(0, len(batch), m))

            def stage(stack) -> slice:
                row = next(rows)
                batch[row:row + m] = stack
                return slice(row, row + m)

            # Every stack is staged; only the named checks' sub-checks are scored.
            subs = [(kinds[sub[0]], sub) for sub in _trial_family(dim, rngs, stage)
                    if sub[0] in kinds]
            del rngs  # spent Generators, freed before the gate
            log_dets = gate_pd(batch)  # SymPosDefMatrix's gate, and its Cholesky's log-dets
            for slot, f in enumerate(costs):
                values = f.values(batch, log_dets)
                failed = []
                for _, (sub_name, _, lhs, rhs, guard) in subs:
                    disc = value_discrepancies(_rows(values, lhs), _rows(values, rhs))
                    if guard:
                        disc[~values_match(*(_rows(values, g) for g in guard), cfg.rel_tol)] = 0.0
                    mask = disc > value_tolerance(values, cfg.rel_tol)
                    failed.append(mask)
                    runs, fails, worst = totals[slot].get(sub_name, (0, 0, 0.0))
                    totals[slot][sub_name] = (runs + m, fails + int(mask.sum()),
                                              max(worst, float(disc.max())))
                for t in np.flatnonzero(np.any(failed, axis=0)).tolist():
                    for (k, (sub_name, inputs, *_)), mask in zip(subs, failed):
                        if mask[t] and len(examples[slot][k]) < MAX_COUNTEREXAMPLES:
                            examples[slot][k].append(Counterexample(
                                sub_name, dim, trials[t],
                                {key: stack[t].copy() for key, stack in inputs.items()}))
    reports = []
    for f, total, found in zip(costs, totals, examples):
        *checks, probe = (CheckResult(sub_name, *total[sub_name])
                          for name in names for sub_name in _CHECKS[name])
        fraction = (probe.trials_run - probe.failures) / probe.trials_run
        reports.append(InvarianceReport(
            f.name, tuple(checks), tuple(e for kind in found[:-1] for e in kind),
            SurjectivityReport(f.name, fraction, probe.trials_run, tuple(found[-1]))))
    return reports


def _solved_scalars(M) -> np.ndarray:
    # The scalar matrix s*I of each gated M's determinant, s = exp(log_det(M)/n).
    n = M.shape[-1]
    return libm_exp(stack_log_dets(M) / n)[:, None, None] * np.eye(n)


def _gram(A) -> np.ndarray:
    # A^T I A for each A: the congruence of the identity.
    return congruence_stack(np.eye(A.shape[-1])[None], A)


def _trial_family(n, rngs, stage):
    # One draw of each matrix per trial stream, in this order.
    M = random_pd_stack(n, rngs)
    S = random_gl_stack(n, rngs, unit_det=True)
    A = random_gl_stack(n, rngs)
    B = random_gl_stack(n, rngs)
    Q = random_orthogonal_stack(n, rngs)
    N = congruence_stack(M, S)
    at_m, at_n = stage(M), stage(N)
    lhs, at_na = stage(congruence_stack(M, A)), stage(congruence_stack(N, A))
    # Equal-value pairs are constructed, not searched: N is the
    # SL-congruence when that preserves the value (always, for factoring
    # costs), and where it does not, the guard counts the trial as exact
    # agreement; rejection sampling on equality of reals would never terminate.
    yield "implication", {"M": M, "N": N, "A": A}, lhs, at_na, (at_m, at_n)
    gram_a = _gram(A)
    gram = stage(gram_a)
    yield "orthogonal", {"A": A, "Q": Q}, gram, stage(congruence_stack(gram_a, Q)), None
    full = stage(congruence_stack(_gram(B), A))
    yield "commutator", {"A": A, "B": B}, full, stage(congruence_stack(gram_a, B)), None
    # The diagonal matrices (L2 L1)^2, from the full SVD as svd_decompose.
    core = (np.linalg.svd(B)[1] * np.linalg.svd(A)[1]) ** 2
    yield "svd_collapse", {"A": A, "B": B}, full, stage(core[:, :, None] * np.eye(n)), None
    yield "sl_conjugation", {"M": M, "S": S}, at_n, at_m, None
    scalar = _solved_scalars(M)
    at_scalar = stage(scalar)
    yield "scalar_collapse", {"M": M, "sI": scalar}, at_m, at_scalar, None
    yield "surjectivity", {"M": M}, at_m, at_scalar, None


# The stacks _trial_family stages per trial: the batch's size.
FAMILY_STACKS = 10

# The family's sub-checks each check reports, in report order; the probe
# reads scalar_collapse's rows under its own name.
_CHECKS = {
    "implication": ("implication",),
    "orthogonal": ("orthogonal",),
    "commutator": ("commutator",),
    "svd_collapse": ("svd_collapse",),
    "det_factorization": ("sl_conjugation", "scalar_collapse"),
    "surjectivity": ("surjectivity",),
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

    The trial family is drawn whole, so each sub-check reports the rows it
    reports in run_all_checks.
    """
    if name not in ALL_CHECKS:
        raise ValueError(f"unknown check {name!r}; expected one of {', '.join(ALL_CHECKS)}")
    return _run_checks([f], cfg, (name,))[0]


def check_det_factorization(f: CostFunction, cfg: TrialConfig) -> InvarianceReport:
    """check(f, cfg, "det_factorization"), the precondition of kernel
    estimation: its scalar_collapse rows are the probe's, so a pass also
    covers every sample by a scalar matrix."""
    return check(f, cfg, "det_factorization")


def probe_scalar_surjectivity(f: CostFunction, cfg: TrialConfig) -> SurjectivityReport:
    """Fraction of random samples M whose value f(M) equals f(s*I) at
    the solved scalar s = exp(log_det(M)/n): scalar_collapse's rows.

    A cost that factors through the determinant takes equal values on
    matrices of equal determinant, so this s covers every M; that is the
    surjectivity on scalar matrices the factoring theorem uses. A cost
    matched only by some other scalar (the trace, at s = tr(M)/n) counts
    as uncovered, since its witness does not come from the determinant.
    """
    return _run_checks([f], cfg, ())[0].probe


def _scalar_values(f: CostFunction, log2_t: np.ndarray) -> CostValues:
    # f on the scalar matrices of determinants 2**log2_t: a factoring cost
    # reads only the log-dets, so no matrix is built.
    return f.values(None, log2_t * math.log(2.0))


def _scalar_value(f: CostFunction, log2_t: float) -> float:
    return float(_scalar_values(f, np.array([log2_t])).canonical[0])


def _bisect_drop(f: CostFunction, d_lo: float, d_hi: float) -> float:
    """Locate the discontinuity where the canonical value falls back to
    the interval base, given that it drops between d_lo and d_hi."""
    ref = _scalar_value(f, d_lo)
    while d_hi - d_lo > KERNEL_BISECTION_TOL:
        mid = 0.5 * (d_lo + d_hi)
        mid_value = _scalar_value(f, mid)
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
    base = _scalar_values(f, np.zeros(1))
    # Dyadic log2 grid: m/512 for m = 1..2048, exactly representable.
    grid = np.arange(1, KERNEL_GRID_POINTS + 1) * (KERNEL_LOG2_MAX / KERNEL_GRID_POINTS)
    values = _scalar_values(f, grid)
    flagged = values_match(values, base, cfg.rel_tol)
    # A canonical drop between unflagged neighbors brackets a kernel point.
    # An equality flag at either endpoint already locates it exactly;
    # otherwise bisection narrows the drop (to within the quantizer's
    # boundary-snap width of the true point).
    prev_c = np.concatenate((base.canonical, values.canonical[:-1]))
    prev_flagged = np.concatenate(([False], flagged[:-1]))
    drops = ~flagged & ~prev_flagged & (values.canonical < prev_c * (1.0 - 1e-9))
    prev_d = np.concatenate(([0.0], grid[:-1]))
    kernel_points = grid[flagged].tolist() + [
        _bisect_drop(f, lo, hi) for lo, hi in zip(prev_d[drops].tolist(), grid[drops].tolist())]
    if not kernel_points:
        # A lattice constant past the scan folds f(1/16) above f(1); its
        # bound a < 1024 keeps the quantizer's boundary snap from hiding that.
        if _scalar_value(f, -KERNEL_LOG2_MAX) >= base.canonical[0]:
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
    rise = _scalar_values(f, np.arange(1, 64) * a_estimate / 64)
    climb = np.concatenate((base.canonical, rise.canonical))
    if values_match(rise, base, cfg.rel_tol).any() or (climb[:-1] >= climb[1:]).any():
        raise UnrecognizedKernelError(
            f"f does not rise strictly between kernel points {a_estimate:.6g} apart: "
            "the lattice constant is below the scan's resolution"
        )
    return KernelEstimate("lattice", a_estimate, len(merged))


def run_all_checks(costs, cfg: TrialConfig) -> list:
    """All five identity checks for several costs over shared samples;
    returns one merged InvarianceReport per cost, identical to what
    check would produce for each cost and name."""
    return _run_checks(list(costs), cfg, ALL_CHECKS)


def run_invariance_suite(f: CostFunction, cfg: TrialConfig) -> InvarianceReport:
    """All five identity checks for one cost; the report's probe is the
    surjectivity probe, which fails exactly where scalar_collapse does."""
    return run_all_checks([f], cfg)[0]
