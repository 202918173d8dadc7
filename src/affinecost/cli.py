"""Command-line interface.

Subcommands: check (invariance suite), kernel (kernel estimation), mcd
(robust mean), decompose (elementary factorization), commutator (witness
pairs). Reports are JSON by default for check and mcd and plain text for
the others; every subcommand accepts --format. Identical flags produce
byte-identical output: reports carry no timestamps and all randomness is
seeded (seed defaults to 0 and is echoed in randomized reports).

Exit codes: 0 pass, 1 property-failure verdict, 2 unrecognized kernel,
64 usage error, 65 input-contract violation.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .cost import cost_from_selector
from .groups import (
    commutator as matrix_commutator,
    decompose_sl,
    elementary,
    elementary_as_commutator,
    reconstruct_factors,
)
from .harness import (
    TrialConfig,
    UnrecognizedKernelError,
    check_det_factorization,
    estimate_kernel,
    probe_scalar_surjectivity,
    run_invariance_suite,
)
from .linalg import MAX_DIM, InvertibleMatrix, format_matrix, parse_matrix
from .mcd import mcd_estimate, parse_dataset_csv

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNRECOGNIZED_KERNEL = 2
EXIT_USAGE = 64
EXIT_INPUT = 65

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here is 64.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_dims(text: str) -> tuple:
    """Accept "3", "2,3,4" or "1..6"; every dimension in [1, MAX_DIM]."""
    text = text.strip()
    span = ".." in text
    try:
        ends = tuple(int(tok) for tok in (text.split("..", 1) if span else text.split(",")))
    except ValueError:
        raise ValueError(f"invalid dimension list {text!r}") from None
    # Bounded before a range is built from them.
    if any(not 1 <= d <= MAX_DIM for d in ends):
        raise ValueError(f"dimensions must be in [1, {MAX_DIM}], got {text!r}")
    dims = tuple(range(ends[0], ends[1] + 1)) if span else ends
    if not dims:
        raise ValueError(f"invalid dimension list {text!r}")
    return dims


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="affinecost", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def add_common(p, default_format):
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "text"), default=default_format)

    def add_trials(p):
        p.add_argument("--cost", required=True, help="det | qdet:<a> | trace | identity")
        p.add_argument("--dims", default="1..6", help='dimensions, e.g. "1..6" or "2,3"')
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=1e-8)

    p_check = sub.add_parser("check", help="run the invariance suite for one cost")
    add_trials(p_check)
    add_common(p_check, "json")

    p_kernel = sub.add_parser("kernel", help="estimate the kernel lattice of a cost")
    add_trials(p_kernel)
    add_common(p_kernel, "text")

    p_mcd = sub.add_parser("mcd", help="robust mean of a CSV point cloud")
    p_mcd.add_argument("--input", required=True, help="CSV file, one point per row")
    p_mcd.add_argument("--h", dest="h", type=int, required=True, help="subset size")
    p_mcd.add_argument("--cost", default="det")
    add_common(p_mcd, "json")

    p_dec = sub.add_parser("decompose", help="factor a det-1 matrix into elementary matrices")
    p_dec.add_argument("--input", required=True, help="matrix text file")
    add_common(p_dec, "text")

    p_com = sub.add_parser("commutator", help="commutator witnesses for an elementary matrix")
    p_com.add_argument("--n", type=int, required=True)
    p_com.add_argument("--i", type=int, required=True, help="row index, 1-based")
    p_com.add_argument("--j", type=int, required=True, help="column index, 1-based")
    p_com.add_argument("--lambda", dest="lam", type=float, required=True)
    add_common(p_com, "text")

    return parser


def _emit(text: str, output) -> None:
    if output:
        try:
            with open(output, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _config_from_args(args) -> TrialConfig:
    return TrialConfig(
        dims=_parse_dims(args.dims),
        trials=args.trials,
        master_seed=args.seed,
        rel_tol=args.tol,
    )


def _render_check_text(report: dict) -> str:
    lines = [
        f"cost: {report['cost']}",
        f"seed: {report['seed']}",
        f"verdict: {report['verdict']}",
    ]
    for check in report["checks"]:
        lines.append(
            f"check {check['name']}: trials={check['trials_run']} "
            f"failures={check['failures']} worst={check['worst_discrepancy']:.3e}"
        )
    surj = report["surjectivity"]
    lines.append(f"surjectivity: covered_fraction={surj['covered_fraction']:g}")
    lines.append(f"counterexamples: {len(report['counterexamples'])}")
    return "\n".join(lines) + "\n"


def run_check(args) -> int:
    cost = cost_from_selector(args.cost)
    cfg = _config_from_args(args)
    suite = run_invariance_suite(cost, cfg)
    report = suite.as_dict()
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "check",
        "seed": cfg.master_seed,
        "dims": list(cfg.dims),
        "trials": cfg.trials,
        "rel_tol": cfg.rel_tol,
        **report,
    }
    if args.format == "json":
        _emit(json.dumps(report, indent=2) + "\n", args.output)
    else:
        _emit(_render_check_text(report), args.output)
    return EXIT_PASS if suite.verdict == "pass" else EXIT_FAIL


def run_kernel(args) -> int:
    cost = cost_from_selector(args.cost)
    cfg = _config_from_args(args)
    # Kernel estimation presumes a factoring cost; verify before scanning.
    gate = check_det_factorization(cost, cfg)
    probe = probe_scalar_surjectivity(cost, cfg)
    if gate.verdict != "pass" or probe.covered_fraction < 1.0:
        sys.stderr.write(
            f"cost {cost.name!r} fails the factorization precondition "
            f"(det-factorization verdict: {gate.verdict}, scalar coverage: "
            f"{probe.covered_fraction:g}); kernel estimation refused\n"
        )
        return EXIT_UNRECOGNIZED_KERNEL
    try:
        estimate = estimate_kernel(cost, cfg)
    except UnrecognizedKernelError as exc:
        sys.stderr.write(f"unrecognized kernel: {exc}\n")
        return EXIT_UNRECOGNIZED_KERNEL
    if args.format == "json":
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": "kernel",
            "cost": cost.name,
            "seed": cfg.master_seed,
            **estimate.as_dict(),
        }
        _emit(json.dumps(report, indent=2) + "\n", args.output)
    else:
        if estimate.variant_guess == "trivial":
            _emit("Trivial\n", args.output)
        else:
            _emit(f"Lattice a={estimate.a_estimate:.6f}\n", args.output)
    return EXIT_PASS


def run_mcd(args) -> int:
    cost = cost_from_selector(args.cost)
    try:
        with open(args.input) as handle:
            text = handle.read()
    except OSError as exc:
        sys.stderr.write(f"cannot read {args.input}: {exc}\n")
        return EXIT_INPUT
    try:
        dataset = parse_dataset_csv(text)
        result = mcd_estimate(dataset, args.h, cost)
    except ValueError as exc:
        sys.stderr.write(f"{args.input}: {exc}\n")
        return EXIT_INPUT
    report = {
        "mean": [float(x) for x in result.mean],
        "subset": list(result.subset),
        "cost": result.cost_value.canonical,
        "examined": result.subsets_examined,
    }
    if args.format == "json":
        _emit(json.dumps(report, indent=2) + "\n", args.output)
    else:
        lines = [
            "mean " + " ".join(f"{x:.17g}" for x in result.mean),
            "subset " + " ".join(str(i) for i in result.subset),
            f"cost {result.cost_value.canonical:.17g}",
            f"examined {result.subsets_examined}",
        ]
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_PASS


def run_decompose(args) -> int:
    try:
        with open(args.input) as handle:
            entries = parse_matrix(handle.read())
    except OSError as exc:
        sys.stderr.write(f"cannot read {args.input}: {exc}\n")
        return EXIT_INPUT
    except ValueError as exc:
        sys.stderr.write(f"{args.input}: {exc}\n")
        return EXIT_INPUT
    try:
        matrix = InvertibleMatrix(entries)
        factors = decompose_sl(matrix)
    except ValueError as exc:
        sys.stderr.write(f"{args.input}: {exc}\n")
        return EXIT_INPUT
    product = reconstruct_factors(factors, matrix.n)
    residual = float(
        np.linalg.norm(product - matrix.entries) / max(1.0, np.linalg.norm(matrix.entries))
    )
    # Factor lines use 1-based indices, matching the commutator flags.
    factor_lines = [f"E {f.row + 1} {f.col + 1} {f.scale:.17g}" for f in factors]
    if args.format == "json":
        report = {
            "factors": [
                {"i": f.row + 1, "j": f.col + 1, "lambda": f.scale} for f in factors
            ],
            "residual": residual,
        }
        _emit(json.dumps(report, indent=2) + "\n", args.output)
    else:
        _emit("".join(line + "\n" for line in factor_lines), args.output)
        sys.stderr.write(f"residual {residual:.3e}\n")
    return EXIT_PASS


def run_commutator(args) -> int:
    row, col = args.i - 1, args.j - 1
    try:
        pair = elementary_as_commutator(args.n, row, col, args.lam)
        target = elementary(args.n, row, col, args.lam)
    except ValueError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_INPUT
    realized = matrix_commutator(pair.a_factor, pair.b_factor)
    residual = float(np.abs(realized.entries - target.entries).max())
    if args.format == "json":
        report = {
            "n": args.n,
            "i": args.i,
            "j": args.j,
            "lambda": args.lam,
            "a_factor": format_matrix(pair.a_factor.entries),
            "b_factor": format_matrix(pair.b_factor.entries),
            "residual": residual,
        }
        _emit(json.dumps(report, indent=2) + "\n", args.output)
    else:
        text = (
            "A:\n" + format_matrix(pair.a_factor.entries)
            + "B:\n" + format_matrix(pair.b_factor.entries)
            + f"residual {residual:.3e}\n"
        )
        _emit(text, args.output)
    return EXIT_PASS


_RUNNERS = {
    "check": run_check,
    "kernel": run_kernel,
    "mcd": run_mcd,
    "decompose": run_decompose,
    "commutator": run_commutator,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _RUNNERS[args.subcommand](args)
    except ValueError as exc:
        # Selector or configuration problems.
        sys.stderr.write(f"{parser.prog}: error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
