"""End-to-end tests of the command-line front end."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import maxclass
from maxclass.cli import main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_betti_single_value(capsys):
    code, out, _ = run(["betti", "--algebra", "m0", "--q", "2", "--k", "5"],
                       capsys)
    assert code == 0
    assert out.strip() == "1"


def test_betti_csv_contains_known_cell(capsys):
    code, out, _ = run(["betti", "--algebra", "m0", "--qmax", "2",
                        "--kmax", "8", "--format", "csv"], capsys)
    assert code == 0
    assert "2,5,1" in out.replace(" ", "")


def test_betti_json_roundtrip(capsys):
    code, out, _ = run(["betti", "--algebra", "l1", "--qmax", "2",
                        "--kmax", "6", "--format", "json"], capsys)
    assert code == 0
    json.loads(out)


def test_cocycle_omega_matches_golden(capsys):
    code, out, _ = run(["cocycle", "--omega", "5,6"], capsys)
    assert code == 0
    with open("tests/golden/omega_5_6.txt") as fh:
        golden = fh.read().strip()
    assert out.strip() == golden


def test_cocycle_w_matches_golden(capsys):
    code, out, _ = run(["cocycle", "--w", "5"], capsys)
    assert code == 0
    with open("tests/golden/w_5.txt") as fh:
        golden = fh.read().strip()
    assert out.strip() == golden


def test_cocycle_requires_exactly_one_kind(capsys):
    code, _, err = run(["cocycle"], capsys)
    assert code == 2
    assert json.loads(err.strip())["error"] == "UsageError"


def test_verify_suite_exit_zero(capsys):
    code, out, _ = run(["verify", "goncharova", "--qmax", "2",
                        "--kmax", "15"], capsys)
    assert code == 0
    assert "pass" in out.lower() or "ok" in out.lower() or out.strip()


def test_verify_unknown_suite(capsys):
    code, _, err = run(["verify", "nope"], capsys)
    assert code == 2
    assert json.loads(err.strip())["error"] == "UsageError"


@pytest.mark.parametrize("argv", [
    ["verify", "bordemann", "--kmax", "3"],
    ["verify", "charp", "--kmax", "2", "--qmax", "1"],
    ["verify", "euler", "--qmax", "2"],
])
def test_verify_rejects_flags_the_suite_does_not_take(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err.strip())["error"] == "UsageError"


def test_cocycle_has_no_algebra_flag(capsys):
    code, out, _ = run(["cocycle", "--algebra", "l1", "--omega", "2,3"], capsys)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["cocycle", "--omega", "5,6", "--format", "csv"],
    ["cocycle", "--w", "5", "--format", "csv"],
])
def test_cocycle_has_no_csv_format(argv, capsys):
    code, out, _ = run(argv, capsys)
    assert code == 2
    assert out == ""


def test_betti_single_value_has_no_csv_format(capsys):
    code, out, err = run(["betti", "--q", "2", "--k", "5", "--format", "csv"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err.strip())["error"] == "UsageError"


@pytest.mark.parametrize("argv", [
    [],
    ["--q", "2"],
    ["--kmax", "6"],
    ["--q", "2", "--qmax", "2", "--kmax", "6"],
    ["--k", "5", "--qmax", "2", "--kmax", "6"],
    ["--q", "2", "--k", "5", "--qmax", "9"],
    ["--q", "2", "--k", "5", "--qmax", "9", "--kmax", "9"],
])
def test_betti_takes_exactly_one_complete_pair(argv, capsys):
    code, out, err = run(["betti", *argv], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err.strip())["error"] == "UsageError"


@pytest.mark.parametrize("argv", [
    ["verify", "goncharova", "--kmax", "-1"],
    ["verify", "dixmier", "--qmax", "-1"],
    ["betti", "--qmax", "2", "--kmax", "-4"],
    ["betti", "--qmax", "-1", "--kmax", "4"],
    ["gf", "--t-terms", "-3"],
    ["gf", "--x-terms", "-1"],
])
def test_negative_window_is_a_usage_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "is negative" in err


def test_zero_window_is_accepted(capsys):
    code, out, _ = run(["gf", "--t-terms", "0", "--x-terms", "0"], capsys)
    assert code == 0
    assert out.strip() == "1 t^0 x^0"


def test_bad_algebra_spec(capsys):
    code, _, err = run(["betti", "--algebra", "zzz", "--q", "1", "--k", "1"],
                       capsys)
    assert code == 2
    json.loads(err.strip())


@pytest.mark.parametrize("spec", ["m0:5", "m2:5", "l1:5"])
def test_parameter_on_an_unparametrized_preset_is_a_usage_error(spec, capsys):
    code, out, err = run(["betti", "--algebra", spec, "--q", "2", "--k", "50"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err.strip())["error"] == "UsageError"


def test_bad_field_spec(capsys):
    code, _, err = run(["betti", "--algebra", "m0", "--field", "fp:4",
                        "--q", "1", "--k", "1"], capsys)
    assert code == 2


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run(["betti", "--qmax", "2", "--kmax", "8",
                        "--format", "csv", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert "2,5,1" in target.read_text().replace(" ", "")


def test_sl2_json(capsys):
    code, out, _ = run(["sl2", "--lambda=-3/7", "--q", "2", "--k", "1",
                        "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 1


def test_sl2_integral_lambda_rejected(capsys):
    code, _, err = run(["sl2", "--lambda", "3", "--q", "2", "--k", "1"],
                       capsys)
    assert code == 2
    assert json.loads(err.strip())["error"] == "InvalidLambda"


@pytest.mark.parametrize("lam", ["--lambda=1/0", "--lambda=-1/0"])
def test_sl2_zero_denominator_lambda_is_a_usage_error(lam, capsys):
    code, out, err = run(["sl2", lam, "--q", "1", "--k", "1"], capsys)
    assert code == 2
    assert out == ""
    assert json.loads(err.strip())["error"] == "ZeroDivisionError"


def test_gf_text(capsys):
    code, out, _ = run(["gf", "--algebra", "m0", "--t-terms", "10",
                        "--x-terms", "3"], capsys)
    assert code == 0
    assert out.strip()


def test_determinism_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(["betti", "--algebra", "m2", "--qmax", "3",
                            "--kmax", "14", "--format", "json"], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_console_entry_point():
    src = str(Path(maxclass.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "maxclass.cli", "betti", "--q", "1", "--k", "1"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"
