"""Independent answers the benchmark checks affinecost's outputs against.

Everything here is plain numpy on raw arrays: no affinecost value types,
samplers, costs or estimators. Only the contract's constants (tie band,
positive definiteness ratio, quantizer snap width) come from the library,
because they define what a correct answer is.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from affinecost.cost import COST_REL_TOL, QUANT_BOUNDARY_SNAP
from affinecost.linalg import PD_EIG_RATIO

_CHUNK = 4096


def subset_log2_dets(points: np.ndarray, h: int):
    """Every h-subset of the rows in lexicographic order, with the log2
    determinant of its covariance (normalized by h) and a mask of the
    degenerate ones, batched over stacks of covariances."""
    k = points.shape[0]
    subsets = np.array(list(combinations(range(k), h)), dtype=np.intp)
    log2_det = np.empty(len(subsets))
    degenerate = np.empty(len(subsets), dtype=bool)
    for lo in range(0, len(subsets), _CHUNK):
        rows = points[subsets[lo:lo + _CHUNK]]
        centered = rows - rows.mean(axis=1, keepdims=True)
        cov = np.einsum("mhi,mhj->mij", centered, centered) / h
        eig = np.linalg.eigvalsh(cov)
        degenerate[lo:lo + _CHUNK] = (eig[:, -1] <= 0.0) | (eig[:, 0] <= PD_EIG_RATIO * eig[:, -1])
        with np.errstate(divide="ignore", invalid="ignore"):
            log2_det[lo:lo + _CHUNK] = np.log2(eig).sum(axis=1)
    return subsets, log2_det, degenerate


def fold_log2_det(d: float, a: float) -> float:
    """The lattice-quantized determinant 2**(a*k) * det folded into
    [1, 2**a), snapping d/a to an integer within QUANT_BOUNDARY_SNAP."""
    r = d / a
    nearest = round(r)
    k = -nearest if abs(r - nearest) <= QUANT_BOUNDARY_SNAP else -math.floor(r)
    return 2.0 ** (a * k + d)


def mcd_argmin(points: np.ndarray, h: int, lattice_a=None):
    """(subset, value) of the exact minimum: determinant cost when
    lattice_a is None, else the folded cost with that constant.

    Degenerate subsets are skipped, and a later subset replaces the
    incumbent only when it is lower by more than the COST_REL_TOL band,
    so ties go to the lexicographically smallest subset.
    """
    subsets, log2_det, degenerate = subset_log2_dets(points, h)
    best, best_value = None, None
    for index in np.flatnonzero(~degenerate):
        d = float(log2_det[index])
        value = 2.0 ** d if lattice_a is None else fold_log2_det(d, lattice_a)
        if best_value is None or best_value - value > COST_REL_TOL * max(
                1.0, abs(best_value), abs(value)):
            best, best_value = index, value
    if best is None:
        raise ValueError("every subset is degenerate")
    return tuple(int(i) for i in subsets[best]), best_value


def check_mcd(points, h, subset, mean, value, lattice_a=None, outliers=()) -> list:
    """Errors in an MCD answer (empty when it is right)."""
    errors = []
    expected, expected_value = mcd_argmin(points, h, lattice_a)
    if tuple(subset) != expected:
        return [f"mcd subset {tuple(subset)} is not the argmin {expected}"]
    true_mean = points[list(expected)].mean(axis=0)
    if not np.allclose(mean, true_mean, rtol=1e-12, atol=1e-12):
        errors.append(f"mcd mean {list(mean)} is not the subset mean {list(true_mean)}")
    if abs(value - expected_value) > 1e-9 * max(1.0, abs(expected_value)):
        errors.append(f"mcd cost {value!r} differs from the recomputed {expected_value!r}")
    planted = sorted(set(expected) & set(outliers))
    if planted:
        errors.append(f"mcd subset holds planted outliers {planted}")
    return errors


def parse_matrix_text(text: str) -> np.ndarray:
    """Read the matrix text format (n, then n rows of n numbers)."""
    lines = [line.split() for line in text.strip().splitlines()]
    n = int(lines[0][0])
    if len(lines) != n + 1 or any(len(row) != n for row in lines[1:]):
        raise ValueError("malformed matrix text")
    return np.array([[float(x) for x in row] for row in lines[1:]])


def _trace_pair(check: str, m: dict):
    """(lhs, rhs) of a failed identity check, recomputed for the trace."""
    if check == "commutator":
        a, b = m["A"], m["B"]
        return np.trace(a.T @ b.T @ b @ a), np.trace(b.T @ a.T @ a @ b)
    if check == "svd_collapse":
        a, b = m["A"], m["B"]
        core = np.linalg.svd(b, compute_uv=False) * np.linalg.svd(a, compute_uv=False)
        return np.trace(a.T @ b.T @ b @ a), float(np.sum(core ** 2))
    if check == "sl_conjugation":
        return np.trace(m["S"].T @ m["M"] @ m["S"]), np.trace(m["M"])
    if check == "scalar_collapse":
        return np.trace(m["M"]), np.trace(m["sI"])
    if check == "orthogonal":
        gram = m["A"].T @ m["A"]
        return np.trace(gram), np.trace(m["Q"].T @ gram @ m["Q"])
    raise ValueError(f"no trace recomputation for check {check!r}")


def check_trace_report(report: dict) -> list:
    """Errors in a `check --cost trace` report: the orthogonal check must
    not fail, the commutator check must, and every counterexample must
    show a discrepancy above rel_tol when recomputed from its text."""
    errors = []
    failures = {c["name"]: c["failures"] for c in report["checks"]}
    if report["verdict"] != "fail":
        errors.append("trace verdict is not fail")
    if failures.get("orthogonal") != 0:
        errors.append(f"trace has {failures.get('orthogonal')} orthogonal failures")
    if not failures.get("commutator", 0) > 0:
        errors.append("trace has no commutator failures")
    if not report["counterexamples"]:
        errors.append("trace report has no counterexamples")
    for example in report["counterexamples"]:
        inputs = {k: parse_matrix_text(v) for k, v in example["inputs"].items()}
        try:
            lhs, rhs = _trace_pair(example["check"], inputs)
        except ValueError as exc:
            errors.append(str(exc))
            continue
        gap = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
        if not gap > report["rel_tol"]:
            errors.append(f"counterexample {example['check']} dim {example['dim']} trial "
                          f"{example['trial']} recomputes to discrepancy {gap:.3e}")
    return errors


def check_identity_report(report: dict) -> list:
    """Errors in a `check --cost identity` report: no implication
    failures, and the scalar matrices cover exactly the 1x1 samples."""
    errors = []
    failures = {c["name"]: c["failures"] for c in report["checks"]}
    if report["verdict"] != "fail":
        errors.append("identity verdict is not fail")
    if failures.get("implication") != 0:
        errors.append(f"identity has {failures.get('implication')} implication failures")
    dims = report["dims"]
    expected = dims.count(1) * report["trials"] / (len(dims) * report["trials"])
    covered = report["surjectivity"]["covered_fraction"]
    if covered != expected:
        errors.append(f"identity coverage {covered!r}, expected {expected!r}")
    return errors


def check_lattice(report: dict, a: float) -> list:
    """Errors in a kernel report that should recover lattice constant a."""
    if report.get("variant") != "lattice" or report.get("a") is None:
        return [f"kernel report {report!r} is not a lattice"]
    if abs(report["a"] - a) > 1e-6:
        return [f"kernel constant {report['a']!r} is not {a} within 1e-6"]
    return []


def elementary(n: int, i: int, j: int, lam: float) -> np.ndarray:
    """E(i, j, lam) with 1-based indices: identity plus lam at (i, j)."""
    e = np.eye(n)
    e[i - 1, j - 1] = lam
    return e


def check_factors(text: str, matrix: np.ndarray) -> list:
    """Errors in `decompose` output: its "E i j lambda" lines must
    multiply, left to right, back to the input within 1e-8."""
    n = matrix.shape[0]
    product = np.eye(n)
    for line in text.splitlines():
        tag, i, j, lam = line.split()
        if tag != "E":
            return [f"unexpected decompose line {line!r}"]
        product = product @ elementary(n, int(i), int(j), float(lam))
    residual = np.linalg.norm(product - matrix) / max(1.0, np.linalg.norm(matrix))
    if not residual <= 1e-8:
        return [f"decompose factors reconstruct with residual {residual:.3e}"]
    return []


def check_commutator(text: str, n: int, i: int, j: int, lam: float) -> list:
    """Errors in `commutator` output: A B A^-1 B^-1 must equal
    E(i, j, lam) within 1e-12."""
    body = text.split("A:\n", 1)[1]
    a_text, rest = body.split("B:\n", 1)
    b_text = rest.split("residual", 1)[0]
    a, b = parse_matrix_text(a_text), parse_matrix_text(b_text)
    realized = a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)
    err = float(np.abs(realized - elementary(n, i, j, lam)).max())
    if not err <= 1e-12:
        return [f"commutator realizes E({i},{j},{lam}) with error {err:.3e}"]
    return []
