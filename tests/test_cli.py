import json

import numpy as np
import pytest

from affinecost.cli import (
    EXIT_FAIL,
    EXIT_INPUT,
    EXIT_PASS,
    EXIT_UNRECOGNIZED_KERNEL,
    EXIT_USAGE,
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

    def test_missing_file(self, capsys):
        code = main(["mcd", "--input", "/nonexistent.csv", "--h", "3"])
        assert code == EXIT_INPUT
        capsys.readouterr()

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

    @pytest.mark.parametrize("argv,target", [
        (["commutator", "--n", "2", "--i", "1", "--j", "2", "--lambda", "3"], "missing/x.txt"),
        (["check", "--cost", "det", "--dims", "1", "--trials", "2"], "."),
        (["kernel", "--cost", "det", "--dims", "1", "--trials", "2"], "missing/x.txt"),
    ], ids=["commutator-missing-dir", "check-directory", "kernel-missing-dir"])
    def test_unwritable_output_is_usage_error(self, argv, target, tmp_path, capsys):
        output = str(tmp_path / target)
        code = main([*argv, "--output", output])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert f"cannot write {output}" in captured.err
