import contextlib
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from affinecost.cli import (
    EXIT_FAIL,
    EXIT_INPUT,
    EXIT_PASS,
    EXIT_UNRECOGNIZED_KERNEL,
    EXIT_USAGE,
    build_parser,
    main,
)
from affinecost.linalg import format_matrix, random_sl


@pytest.fixture()
def one_d_csv(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("0\n0.1\n0.2\n10\n")
    return str(path)


@pytest.fixture()
def sl3_file(tmp_path):
    path = tmp_path / "sl3.txt"
    path.write_text(format_matrix(random_sl(3, 5).entries))
    return str(path)


class TestCheckCommand:
    def test_det_passes(self, capsys):
        code = main(["check", "--cost", "det", "--dims", "1,2", "--trials", "25", "--seed", "7"])
        assert code == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "pass"
        assert report["seed"] == 7
        assert report["schema_version"] == 1
        names = {c["name"] for c in report["checks"]}
        assert names == {"implication", "orthogonal", "commutator",
                         "svd_collapse", "sl_conjugation", "scalar_collapse"}
        assert report["surjectivity"]["covered_fraction"] == 1.0

    def test_trace_fails_with_counterexample(self, capsys):
        code = main(["check", "--cost", "trace", "--dims", "2", "--trials", "100", "--seed", "7"])
        assert code == EXIT_FAIL
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "fail"
        assert report["counterexamples"]

    def test_qdet_passes(self, capsys):
        code = main(["check", "--cost", "qdet:1", "--dims", "1,2", "--trials", "25", "--seed", "7"])
        assert code == EXIT_PASS
        capsys.readouterr()

    def test_text_format(self, capsys):
        code = main(["check", "--cost", "det", "--dims", "2", "--trials", "10",
                     "--seed", "0", "--format", "text"])
        assert code == EXIT_PASS
        out = capsys.readouterr().out
        assert "verdict: pass" in out

    def test_dims_range_syntax(self, capsys):
        code = main(["check", "--cost", "det", "--dims", "1..3", "--trials", "5", "--seed", "0"])
        assert code == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["dims"] == [1, 2, 3]

    def test_bad_selector_is_usage_error(self, capsys):
        code = main(["check", "--cost", "frobenius", "--trials", "5"])
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_dims_past_six_pass(self, capsys):
        # The samplers hold their condition cap by construction, so the
        # harness reaches every dimension up to MAX_DIM.
        code = main(["check", "--cost", "det", "--dims", "7,8", "--trials", "20"])
        assert code == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["dims"] == [7, 8]
        assert all(c["trials_run"] == 40 and c["failures"] == 0 for c in report["checks"])

    @pytest.mark.parametrize("argv", [
        ["check", "--cost", "qdet:2000", "--dims", "2", "--trials", "5"],
        ["kernel", "--cost", "qdet:1e6", "--dims", "2", "--trials", "20"],
    ])
    def test_lattice_constant_past_bound_is_usage_error(self, argv, capsys):
        # Past the bound the folded value can overflow (2000), and the
        # quantizer snap can hide the fold at f(1/16) (1e6).
        code = main(argv)
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "a < 1024" in captured.err

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["check", "--cost", "det", "--dims", "2", "--trials", "5",
                     "--seed", "0", "--output", str(out)])
        assert code == EXIT_PASS
        assert json.loads(out.read_text())["verdict"] == "pass"
        capsys.readouterr()


class TestKernelCommand:
    def test_det_trivial(self, capsys):
        code = main(["kernel", "--cost", "det", "--dims", "2", "--trials", "20"])
        assert code == EXIT_PASS
        assert capsys.readouterr().out == "Trivial\n"

    def test_qdet_lattice(self, capsys):
        code = main(["kernel", "--cost", "qdet:0.5", "--dims", "2", "--trials", "20"])
        assert code == EXIT_PASS
        assert capsys.readouterr().out == "Lattice a=0.500000\n"

    def test_identity_refused(self, capsys):
        code = main(["kernel", "--cost", "identity", "--dims", "2,3", "--trials", "20"])
        assert code == EXIT_UNRECOGNIZED_KERNEL
        err = capsys.readouterr().err
        assert "precondition" in err

    def test_trace_refused(self, capsys):
        code = main(["kernel", "--cost", "trace", "--dims", "2", "--trials", "20"])
        assert code == EXIT_UNRECOGNIZED_KERNEL
        capsys.readouterr()

    @pytest.mark.parametrize("cost", ["qdet:8", "qdet:1e-9", "qdet:1e-6", "qdet:1e-7",
                                      "qdet:0.002"])
    def test_unidentifiable_lattice_refused_in_one_line(self, cost, capsys):
        # Past the scan (8), below its resolution (1e-9 to 1e-6), or with
        # 2,000 kernel points too close to resolve (0.002).
        code = main(["kernel", "--cost", cost, "--dims", "2", "--trials", "20"])
        assert code == EXIT_UNRECOGNIZED_KERNEL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("unrecognized kernel: ")
        assert len(captured.err) < 300

    def test_json_format(self, capsys):
        code = main(["kernel", "--cost", "qdet:2", "--dims", "2", "--trials", "20",
                     "--format", "json"])
        assert code == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["variant"] == "lattice"
        assert report["a"] == pytest.approx(2.0, abs=1e-6)


class TestMcdCommand:
    def test_fixture(self, one_d_csv, capsys):
        code = main(["mcd", "--input", one_d_csv, "--h", "3"])
        assert code == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["mean"] == pytest.approx([0.1])
        assert report["subset"] == [0, 1, 2]
        assert report["examined"] == 4
        assert set(report) == {"mean", "subset", "cost", "examined"}

    def test_h_equals_k(self, one_d_csv, capsys):
        code = main(["mcd", "--input", one_d_csv, "--h", "4"])
        assert code == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["mean"] == pytest.approx([2.575])
        assert report["examined"] == 1

    def test_missing_h_is_usage_error(self, one_d_csv, capsys):
        code = main(["mcd", "--input", one_d_csv])
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_malformed_csv(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,nope\n")
        code = main(["mcd", "--input", str(path), "--h", "3"])
        assert code == EXIT_INPUT
        assert "line 2, column 2" in capsys.readouterr().err

    def test_h_out_of_range(self, one_d_csv, capsys):
        code = main(["mcd", "--input", one_d_csv, "--h", "9"])
        assert code == EXIT_INPUT
        capsys.readouterr()

    def test_too_few_points_is_one_line_input_error(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("1,2\n")
        code = main(["mcd", "--input", str(path), "--h", "1"])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"{path}: MCD needs at least n + 1 = 3 points in 2 dimensions, "
                                "and the input has 1\n")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_covariance_is_one_line_input_error(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        points = np.random.default_rng(3).standard_normal((8, 2)) * 1e200
        path.write_text("".join(f"{x!r},{y!r}\n" for x, y in points.tolist()))
        code = main(["mcd", "--input", str(path), "--h", "4"])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "overflows" in captured.err
        assert "matrix entries must be finite" in captured.err

    @pytest.mark.parametrize("scale", [1e150, 1e-100])
    def test_determinant_outside_float64_range_is_one_line_input_error(
            self, scale, tmp_path, capsys):
        path = tmp_path / "scaled.csv"
        points = np.random.default_rng(3).standard_normal((8, 2)) * scale
        path.write_text("".join(f"{x!r},{y!r}\n" for x, y in points.tolist()))
        code = main(["mcd", "--input", str(path), "--h", "4"])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "float64 range" in captured.err


class TestDecomposeCommand:
    def test_identity_empty_output(self, tmp_path, capsys):
        path = tmp_path / "eye.txt"
        path.write_text(format_matrix(np.eye(3)))
        code = main(["decompose", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_PASS
        assert captured.out == ""
        assert "residual" in captured.err

    def test_sl3_reconstructs(self, sl3_file, capsys):
        code = main(["decompose", "--input", sl3_file])
        captured = capsys.readouterr()
        assert code == EXIT_PASS
        for line in captured.out.splitlines():
            tag, i, j, lam = line.split()
            assert tag == "E"
            assert 1 <= int(i) <= 3 and 1 <= int(j) <= 3
            float(lam)
        residual = float(captured.err.split()[-1])
        assert residual <= 1e-8

    def test_large_entry_unit_triangular(self, tmp_path, capsys):
        # Determinant one but condition number near 3.6e5: the input is
        # invertible, so it must decompose.
        matrix = np.eye(3)
        matrix[0, 2] = 600.0
        path = tmp_path / "shear.txt"
        path.write_text(format_matrix(matrix))
        code = main(["decompose", "--input", str(path), "--format", "json"])
        assert code == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["residual"] <= 1e-8

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_huge_entries_give_a_finite_residual(self, tmp_path, capsys, fmt):
        # Squaring 1e155 overflows float64; the residual's norms must not.
        path = tmp_path / "huge.txt"
        path.write_text("2\n1 1e155\n0 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["decompose", "--input", str(path), "--format", fmt])
        captured = capsys.readouterr()
        assert code == EXIT_PASS
        if fmt == "json":
            assert captured.err == ""
            residual = json.loads(captured.out)["residual"]
        else:
            assert captured.out == "E 1 2 1e+155\n"
            assert captured.err.count("\n") == 1
            residual = float(captured.err.split()[-1])
        assert math.isfinite(residual) and residual <= 1e-8

    def test_det_gate_violation(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        path.write_text(format_matrix(2.0 * np.eye(2)))
        code = main(["decompose", "--input", str(path)])
        assert code == EXIT_INPUT
        assert "determinant gate" in capsys.readouterr().err

    def test_json_format(self, sl3_file, capsys):
        code = main(["decompose", "--input", sl3_file, "--format", "json"])
        assert code == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["residual"] <= 1e-8
        assert all(set(f) == {"i", "j", "lambda"} for f in report["factors"])


class TestCommutatorCommand:
    def test_two_dim_witness(self, capsys):
        code = main(["commutator", "--n", "2", "--i", "1", "--j", "2", "--lambda", "3"])
        captured = capsys.readouterr()
        assert code == EXIT_PASS
        residual = float(captured.out.splitlines()[-1].split()[-1])
        assert residual <= 1e-12

    def test_large_lambda(self, capsys):
        code = main(["commutator", "--n", "3", "--i", "1", "--j", "2", "--lambda", "1e3"])
        captured = capsys.readouterr()
        assert code == EXIT_PASS
        residual = float(captured.out.splitlines()[-1].split()[-1])
        assert residual <= 1e-12

    def test_rejects_diagonal(self, capsys):
        code = main(["commutator", "--n", "3", "--i", "2", "--j", "2", "--lambda", "1"])
        assert code == EXIT_INPUT
        capsys.readouterr()

    def test_huge_dimension_is_one_line_input_error(self, capsys):
        code = main(["commutator", "--n", "1000000000", "--i", "1", "--j", "2",
                     "--lambda", "1"])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == "elementary matrices need 2 <= n <= 64, got 1000000000\n"

    def test_json_format(self, capsys):
        code = main(["commutator", "--n", "3", "--i", "1", "--j", "3", "--lambda", "2",
                     "--format", "json"])
        assert code == EXIT_PASS
        report = json.loads(capsys.readouterr().out)
        assert report["residual"] <= 1e-12


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["check", "--cost", "det", "--dims", "1,2", "--trials", "20", "--seed", "9"],
        ["check", "--cost", "trace", "--dims", "2", "--trials", "30", "--seed", "9"],
        ["kernel", "--cost", "qdet:1", "--dims", "2", "--trials", "10"],
        ["commutator", "--n", "4", "--i", "2", "--j", "3", "--lambda", "1.5"],
    ], ids=lambda a: a[0] + ":" + a[1 if a[0] != "commutator" else 2])
    def test_byte_identical_reruns(self, argv, capsys):
        first_code = main(argv)
        first = capsys.readouterr()
        second_code = main(argv)
        second = capsys.readouterr()
        assert first_code == second_code
        assert first.out == second.out
        assert first.err == second.err

    def test_mcd_rerun(self, one_d_csv, capsys):
        argv = ["mcd", "--input", one_d_csv, "--h", "3"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_decompose_rerun(self, sl3_file, capsys):
        argv = ["decompose", "--input", sl3_file]
        main(argv)
        first = capsys.readouterr()
        main(argv)
        second = capsys.readouterr()
        assert first.out == second.out and first.err == second.err


class TestUsage:
    def test_parser_is_built_once_and_keeps_no_state(self, capsys):
        assert build_parser() is build_parser()
        argv = ["check", "--cost", "det", "--dims", "2", "--trials", "5", "--seed", "3"]
        build_parser.cache_clear()
        assert main(argv) == EXIT_PASS
        alone = capsys.readouterr()
        build_parser.cache_clear()
        assert main(["check", "--dims", "2"]) == EXIT_USAGE
        refused = capsys.readouterr()
        assert refused.out == "" and "--cost" in refused.err
        assert main(argv) == EXIT_PASS
        after = capsys.readouterr()
        assert (after.out, after.err) == (alone.out, alone.err)

    def test_no_subcommand(self, capsys):
        assert main([]) == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_bad_dims(self, capsys):
        assert main(["check", "--cost", "det", "--dims", "zero"]) == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("dims", ["1..65", "70", "2,65"])
    def test_dims_past_max_dim_refused_before_any_trial(self, dims, monkeypatch, capsys):
        def no_trials(*args):
            raise AssertionError("trials ran")

        monkeypatch.setattr("affinecost.cli.run_invariance_suite", no_trials)
        assert main(["check", "--cost", "det", "--dims", dims]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"affinecost: error: dimensions must be in [1, 64], got {dims!r}\n"

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    @pytest.mark.parametrize("command", ["check", "kernel"])
    def test_non_finite_tol_is_usage_error(self, command, tol, capsys):
        # Every discrepancy is <= inf, and none is > nan: either would
        # pass every check.
        code = main([command, "--cost", "trace", "--dims", "2", "--trials", "20", "--tol", tol])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "rel_tol must be finite and positive" in captured.err

    @pytest.mark.parametrize("tol", ["1", "2"])
    @pytest.mark.parametrize("command", ["check", "kernel"])
    def test_tol_of_one_or_more_is_usage_error(self, command, tol, capsys):
        # A scalar discrepancy |u - v| / max(1, |u|, |v|) of nonnegative
        # values is at most 1, so a tolerance of 1 passes every check.
        code = main([command, "--cost", "trace", "--dims", "2", "--trials", "20", "--tol", tol])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("affinecost: error: rel_tol must be finite and positive, "
                                f"and below 1, got {float(tol)!r}\n")

    @pytest.mark.parametrize("argv,target", [
        (["commutator", "--n", "2", "--i", "1", "--j", "2", "--lambda", "3"], "missing/x.txt"),
        (["check", "--cost", "det", "--dims", "1", "--trials", "2"], "."),
        (["kernel", "--cost", "det", "--dims", "1", "--trials", "2"], "missing/x.txt"),
        (["mcd", "--input", "{points}", "--h", "3"], "missing/x.txt"),
        (["decompose", "--input", "{matrix}"], "."),
    ], ids=["commutator-missing-dir", "check-directory", "kernel-missing-dir",
            "mcd-missing-dir", "decompose-directory"])
    def test_unwritable_output_is_usage_error(self, argv, target, one_d_csv, sl3_file,
                                              tmp_path, capsys):
        output = str(tmp_path / target)
        argv = [arg.format(points=one_d_csv, matrix=sl3_file) for arg in argv]
        code = main([*argv, "--output", output])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"cannot write {output}" in captured.err

    @pytest.mark.parametrize("command,kind", [
        (command, kind) for command in ("mcd", "decompose")
        for kind in ("missing", "directory", "undecodable")
    ])
    def test_unreadable_input_is_one_line_input_error(self, command, kind, tmp_path, capsys):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        elif kind == "undecodable":
            path.write_bytes(b"\xff\xfe\x00\x01not utf-8")
        code = main([command, "--input", str(path), *(["--h", "3"] if command == "mcd" else [])])
        assert code == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert str(path) in captured.err

    @pytest.mark.parametrize("command", ["mcd", "decompose"])
    def test_byte_order_mark_is_not_data(self, command, one_d_csv, sl3_file, tmp_path, capsys):
        # Spreadsheet exports often start with a UTF-8 byte-order mark;
        # read as data, it turned the first CSV row into a header.
        plain = one_d_csv if command == "mcd" else sl3_file
        marked = tmp_path / "marked"
        with open(plain, "rb") as handle:
            marked.write_bytes(b"\xef\xbb\xbf" + handle.read())
        extra = ["--h", "3"] if command == "mcd" else []
        outputs = []
        for path in (plain, str(marked)):
            assert main([command, "--input", path, *extra]) == EXIT_PASS
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        if command == "mcd":
            assert json.loads(outputs[1])["examined"] == 4


# The CLI's grammar, bounded so that every run stays small: at most 3
# trials and dimension 4, and MCD inputs of at most 8 points.
EDGE_FLOATS = ("0", "-0.0", "5e-324", "1e-300", "1e-7", "0.5", "1", "2", "1023.9", "1024",
               "1e308", "inf", "-inf", "nan", "x", "")
NUMBERS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats().map(repr))
SELECTORS = st.one_of(
    st.sampled_from(["det", "trace", "identity", " det ", "qdet", "frobenius", ""]),
    NUMBERS.map("qdet:{}".format))
FORMATS = st.sampled_from(["json", "text", "xml"])
# Each flag's valid values, and values it must refuse.
TRIAL_FLAGS = {
    "--dims": (st.sampled_from(["1", "4", "1..4", "2,3"]),
               st.sampled_from(["3..1", "0", "65", "1..65", "x", "1,,2", ""])),
    "--trials": (st.integers(1, 3).map(str), st.sampled_from(["0", "-1", "x"])),
    "--seed": (st.integers(-2**64, 2**64).map(str), st.sampled_from(["x", "1.5"])),
    "--tol": (st.sampled_from(["1e-300", "1e-8", "0.5"]),
              st.sampled_from(["0", "1", "2", "inf", "nan", "-1e-8"])),
    "--format": (st.sampled_from(["json", "text"]), st.just("xml")),
}


@st.composite
def trial_argvs(draw):
    # Every flag valid but at most one, and a selector from the whole grammar.
    edge = draw(st.sampled_from([None, *TRIAL_FLAGS]))
    argv = [draw(st.sampled_from(["check", "kernel"])), "--cost", draw(SELECTORS)]
    for flag, (valid, refused) in TRIAL_FLAGS.items():
        argv += [flag, draw(refused if flag == edge else valid)]
    return argv


ENTRIES = st.one_of(
    st.sampled_from(["1e155", "-1e300", "1e-320", "inf", "-inf", "nan", "0", "1", "x", ""]),
    st.floats().map(repr))


@st.composite
def matrix_texts(draw):
    # Unit upper-triangular matrices (determinant one, so decompose can
    # run), square ones, and ragged ones, under a right or a wrong header.
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["unit", "square", "ragged"]))
    if kind == "unit":
        rows = [["1" if i == j else draw(ENTRIES) if i < j else "0" for j in range(n)]
                for i in range(n)]
    elif kind == "square":
        rows = [[draw(ENTRIES) for _ in range(n)] for _ in range(n)]
    else:
        rows = draw(st.lists(st.lists(ENTRIES, max_size=5), max_size=5))
    header = draw(st.sampled_from([str(n), str(n), "0", "65", "x"]))
    return f"{header}\n" + "".join(" ".join(row) + "\n" for row in rows)


@st.composite
def csv_texts(draw):
    # Clean or edge entries, in rectangular or ragged rows.
    width = draw(st.integers(1, 3))
    ragged = draw(st.booleans())
    entries = draw(st.sampled_from([ENTRIES, st.floats(allow_nan=False,
                                                       allow_infinity=False).map(repr)]))
    row = st.lists(entries, min_size=1 if ragged else width, max_size=4 if ragged else width)
    rows = draw(st.lists(row, max_size=8))
    header = draw(st.sampled_from(["", "x,y\n"]))
    return header + "".join(",".join(fields) + "\n" for fields in rows)


# (argv, input file bytes); "{input}" in argv names the file.
FILE_CASES = st.one_of(
    st.builds(lambda data, h, cost, fmt: (
        ["mcd", "--input", "{input}", "--h", str(h), "--cost", cost, "--format", fmt], data),
        st.one_of(csv_texts().map(str.encode), st.binary(max_size=16)),
        st.integers(-1, 9), SELECTORS, FORMATS),
    st.builds(lambda data, fmt: (["decompose", "--input", "{input}", "--format", fmt], data),
              st.one_of(matrix_texts().map(str.encode), st.binary(max_size=16)), FORMATS))


@st.composite
def commutator_argvs(draw):
    n = draw(st.integers(1, 4))
    i, j = draw(st.integers(0, n + 1)), draw(st.integers(0, n + 1))
    return ["commutator", "--n", str(n), "--i", str(i), "--j", str(j),
            "--lambda", draw(NUMBERS), "--format", draw(FORMATS)]


def run_in_process(argv):
    """main's exit code, stdout and stderr; any warning raises out of main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_exit_contract(argv):
    code, out, err = run_in_process(argv)
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_UNRECOGNIZED_KERNEL, EXIT_USAGE, EXIT_INPUT), (
        argv, code, err)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    lines = err.splitlines()
    if code in (EXIT_PASS, EXIT_FAIL):
        if argv[0] == "decompose" and "json" not in argv:  # text, the default
            assert re.fullmatch(r"residual \S+\n", err), (argv, err)
        else:
            assert err == "", (argv, err)
        if "json" in argv:
            json.loads(out)
        return
    assert out == "", (argv, out)
    if code == EXIT_USAGE and lines[0].startswith("usage: "):
        # argparse's usage, wrapped onto indented lines, then one error line.
        assert all(line.startswith(" ") for line in lines[1:-1]), (argv, err)
        lines = lines[-1:]
    assert len(lines) == 1, (argv, err)
    if code == EXIT_USAGE:
        assert ": error: " in lines[0], (argv, err)


class TestExitContract:
    """Every input ends in a documented exit code with a one-line
    diagnostic on stderr, never a traceback or a warning."""

    @given(argv=trial_argvs())
    @example(argv=["check", "--cost", "qdet:5e-324", "--dims", "1..2", "--trials", "3"])
    def test_check_and_kernel(self, argv):
        assert_exit_contract(argv)

    @given(case=FILE_CASES)
    @example(case=(["decompose", "--input", "{input}"], b"2\n1 1e155\n0 1\n"))
    @example(case=(["decompose", "--input", "{input}"], b"2\n1e155 1e155\n1e155 0\n"))
    def test_mcd_and_decompose(self, case, tmp_path_factory):
        argv, data = case
        path = tmp_path_factory.mktemp("input") / "input"
        path.write_bytes(data)
        assert_exit_contract([arg.format(input=path) for arg in argv])

    @given(argv=commutator_argvs())
    @example(argv=["commutator", "--n", "2", "--i", "1", "--j", "2",
                   "--lambda", "1.348269851146737e+308"])
    def test_commutator(self, argv):
        assert_exit_contract(argv)
