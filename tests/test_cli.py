"""CLI contract: flags, JSON-only stdout, exit codes, file outputs."""

import json

import pytest

from arcrotor import OpCounters, SolveReason, SolveReport, bench
from arcrotor.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_stdout(out):
    payload = json.loads(out)  # strict: stdout must be exactly one JSON document
    assert isinstance(payload, dict)
    return payload


SOLVE_KEYS = {
    "k",
    "found",
    "reason",
    "additions",
    "subtractions",
    "comparisons",
    "outer_steps",
}


class TestSolve:
    @pytest.mark.parametrize("algo", ["rotor-real", "rotor-int", "naive", "bsgs"])
    def test_appendix_fixture_all_algorithms(self, capsys, algo):
        code, out, _ = run_cli(
            capsys, "solve", "--p", "373", "--x", "13", "--y", "158", "--algo", algo
        )
        payload = parse_stdout(out)
        assert code == 0
        assert payload["k"] == 5
        assert payload["found"] is True
        assert set(payload) == SOLVE_KEYS

    def test_no_solution_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--p", "5", "--x", "4", "--y", "3", "--algo", "rotor-int"
        )
        payload = parse_stdout(out)
        assert code == 1
        assert payload["found"] is False
        assert payload["k"] is None

    def test_base_out_of_range_names_flag(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--p", "5", "--x", "7", "--y", "3")
        assert code == 2
        assert out == ""
        assert "--x" in err

    def test_target_out_of_range_names_flag(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--p", "5", "--x", "4", "--y", "5")
        assert code == 2
        assert "--y" in err

    def test_tiny_modulus_rejected(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--p", "1", "--x", "1", "--y", "1")
        assert code == 2
        assert "--p" in err

    def test_bad_mode_string(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--p", "5", "--x", "2", "--y", "3", "--mode", "decimal"
        )
        assert code == 2
        assert out == ""

    def test_negative_tolerance_rejected(self, capsys):
        for mode in ("float64", "fixed:8"):
            for bad in ("-1", "nan", "inf"):
                code, out, err = run_cli(
                    capsys,
                    "solve", "--p", "373", "--x", "13", "--y", "158",
                    "--algo", "rotor-real", "--mode", mode, "--tolerance", bad,
                )
                assert code == 2
                assert out == ""
                assert "--tolerance" in err

    @pytest.mark.parametrize("algo", ["rotor-int", "naive", "bsgs"])
    def test_mode_and_tolerance_need_rotor_real(self, capsys, algo):
        base = ("solve", "--p", "373", "--x", "13", "--y", "158", "--algo", algo)
        code, out, err = run_cli(capsys, *base, "--mode", "fixed:8")
        assert (code, out) == (2, "")
        assert "--mode" in err
        code, out, err = run_cli(capsys, *base, "--mode", "float64", "--tolerance", "5")
        assert (code, out) == (2, "")
        code, out, err = run_cli(capsys, *base, "--tolerance", "5")
        assert (code, out) == (2, "")
        assert "--tolerance" in err

    def test_float64_mode_solves_fixture(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "--p", "373", "--x", "13", "--y", "158",
            "--algo", "rotor-real", "--mode", "float64",
        )
        assert code == 0
        assert parse_stdout(out)["k"] == 5


class TestVerify:
    def test_small_exhaustive(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--p-max", "25")
        payload = parse_stdout(out)
        assert code == 0
        assert payload["mismatches"] == 0
        assert payload["instances"] == sum((p - 1) ** 2 for p in range(2, 26))

    def test_minimal_run(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--p-max", "2")
        assert code == 0
        assert parse_stdout(out)["instances"] == 1

    def test_mismatch_exits_one_and_lists_examples(self, capsys, monkeypatch):
        # k = p is never a least exponent, so every instance mismatches
        def always_wrong(inst):
            return SolveReport(inst.p, SolveReason.FOUND, OpCounters())

        monkeypatch.setattr(bench, "rotor_solve_int", always_wrong)
        code, out, _ = run_cli(capsys, "verify", "--p-max", "10")
        payload = parse_stdout(out)
        assert code == 1
        assert payload["instances"] == sum((p - 1) ** 2 for p in range(2, 11))
        assert payload["mismatches"] == payload["instances"]
        assert len(payload["examples"]) == 10
        assert payload["examples"][0] == "rotor-int p=2 x=1 y=1: got 2, oracle 0"

    def test_guard_against_huge_runs(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--p-max", "1000")
        assert code == 2
        assert "--p-max" in err

    def test_guard_lower_bound(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--p-max", "1")
        assert code == 2


class TestSweep:
    def test_writes_csv_and_prints_summary(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        # p up to 600 spans five distinct bit lengths, enough for both fits
        code, out, _ = run_cli(
            capsys,
            "sweep", "--p-min", "50", "--p-max", "600", "--samples", "4",
            "--seed", "7", "--algo", "rotor-int", "--out", str(out_path),
        )
        payload = parse_stdout(out)
        assert code == 0
        assert payload["seed"] == 7
        assert payload["records"] > 0
        assert payload["correct_fraction"] == 1.0
        fits = payload["fits"]
        assert fits["p"] is not None and fits["bits_of_p"] is not None
        assert set(fits["p"]) == {"exponent", "intercept", "r_squared", "n_definition"}
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("p,x,y,k_true,k_found")
        assert len(lines) == payload["records"] + 1

    def test_json_format(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        code, out, _ = run_cli(
            capsys,
            "sweep", "--p-min", "10", "--p-max", "40", "--samples", "2",
            "--seed", "3", "--out", str(out_path), "--format", "json",
        )
        assert code == 0
        records = json.loads(out_path.read_text())
        assert isinstance(records, list)
        assert parse_stdout(out)["records"] == len(records)

    def test_bad_range_is_usage_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "sweep", "--p-min", "100", "--p-max", "50",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "--p-min" in err

    def test_mode_needs_rotor_real(self, capsys, tmp_path):
        out_path = tmp_path / "s.csv"
        code, out, err = run_cli(
            capsys,
            "sweep", "--p-min", "5", "--p-max", "10", "--algo", "rotor-int",
            "--mode", "fixed:8", "--out", str(out_path),
        )
        assert (code, out) == (2, "")
        assert "mode" in err
        assert not out_path.exists()

    def test_bad_tolerance_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "s.csv"
        for bad in ("-1", "nan"):
            code, out, err = run_cli(
                capsys,
                "sweep", "--p-min", "5", "--p-max", "10", "--algo", "rotor-real",
                "--mode", "float64", "--tolerance", bad, "--out", str(out_path),
            )
            assert (code, out) == (2, "")
            assert "tolerance" in err
        assert not out_path.exists()

    def test_unwritable_out_exits_three(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep", "--p-min", "5", "--p-max", "10", "--samples", "1",
            "--out", "/no/such/dir/s.csv",
        )
        assert code == 3
        assert "cannot write" in err

    def test_tiny_sweep_reports_missing_fit(self, capsys, tmp_path):
        # a single modulus cannot span four distinct n values
        code, out, err = run_cli(
            capsys,
            "sweep", "--p-min", "5", "--p-max", "5", "--samples", "1",
            "--seed", "42", "--out", str(tmp_path / "one.csv"),
        )
        payload = parse_stdout(out)
        assert code == 0
        assert payload["records"] == 1
        assert payload["fits"]["p"] is None
        assert "no fit" in err


class TestPrecisionScan:
    def test_fixed_mode_finds_failure(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        code, out, _ = run_cli(
            capsys,
            "precision-scan", "--mode", "fixed:8", "--p-max", "2000",
            "--samples", "3", "--seed", "5", "--out", str(out_path),
        )
        payload = parse_stdout(out)
        assert code == 0
        assert payload["first_failure_p"] is not None
        assert out_path.exists()

    def test_exact_mode_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "precision-scan", "--mode", "exact", "--p-max", "100",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "approximate" in err

    @pytest.mark.parametrize("p_min", ["1", "2"])
    def test_range_below_three_is_usage_error(self, capsys, tmp_path, p_min):
        out_path = tmp_path / "scan.csv"
        code, out, err = run_cli(
            capsys,
            "precision-scan", "--mode", "float64", "--p-min", p_min, "--p-max", "2",
            "--out", str(out_path),
        )
        assert (code, out) == (2, "")
        assert "--p-min" in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (
                ("--samples", "0", "--p-max", "10"),
                "error: --samples must be >= 1, got 0",
            ),
            (
                ("--p-min", "1", "--p-max", "2"),
                "error: --p-min must lie in [2, --p-max], got --p-min 1 (checked as 3), --p-max 2",
            ),
            (
                ("--p-min", "20", "--p-max", "10"),
                "error: --p-min must lie in [2, --p-max], got --p-min 20, --p-max 10",
            ),
        ],
    )
    def test_usage_error_names_flags_as_typed(self, capsys, tmp_path, flags, message):
        out_path = tmp_path / "scan.csv"
        code, out, err = run_cli(
            capsys, "precision-scan", "--mode", "float64", *flags, "--out", str(out_path)
        )
        assert (code, out, err) == (2, "", message + "\n")
        assert not out_path.exists()

    def test_bad_tolerance_is_usage_error(self, capsys, tmp_path):
        out_path = tmp_path / "scan.csv"
        for bad in ("-1", "nan", "inf"):
            code, out, err = run_cli(
                capsys,
                "precision-scan", "--mode", "float64", "--tolerance", bad,
                "--p-max", "10", "--out", str(out_path),
            )
            assert (code, out) == (2, "")
            assert "--tolerance" in err
        assert not out_path.exists()

    def test_unwritable_out_exits_three(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "precision-scan", "--mode", "fixed:8", "--p-max", "50",
            "--out", "/no/such/dir/scan.csv",
        )
        assert code == 3

    def test_deterministic_output_files(self, capsys, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code, _, _ = run_cli(
                capsys,
                "precision-scan", "--mode", "fixed:8", "--p-max", "300",
                "--samples", "2", "--seed", "9", "--scan-all", "--out", str(path),
            )
            assert code == 0
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
