"""Command-line surface: outputs, JSON mirrors, and exit codes."""

import json
import subprocess
import sys

import pytest

from geobracket import cli
from geobracket.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bracket_canonical_quadratic(capsys):
    code, out, _ = run_cli(
        capsys, "bracket", "--s", "x1^2", "--a", "d1", "--b", "x1", "--kind", "qcpb"
    )
    assert code == 0
    assert "total:           1 + 2*x1^2" in out


def test_bracket_flat_ccr(capsys):
    # values starting with '-' use the --opt=value form
    code, out, _ = run_cli(capsys, "bracket", "--s", "0", "--a", "x1", "--b=-i*d1")
    assert code == 0
    assert "total:           i" in out


def test_bracket_wave_pair(capsys):
    code, out, _ = run_cli(
        capsys,
        "bracket",
        "--s",
        "x1",
        "--a=-i*exp(i*x1)*d1",
        "--b",
        "exp(i*x1)",
    )
    assert code == 0
    assert "qpb part:        exp(2*i*x1)" in out
    assert "total:           (1 - i)*exp(2*i*x1)" in out


def test_bracket_kinds(capsys):
    code, out, _ = run_cli(
        capsys, "bracket", "--s", "x1^2", "--a", "d1", "--b", "x1", "--kind", "geo"
    )
    assert code == 0
    assert out.startswith("geomutator: 2*x1^2")
    code, out, _ = run_cli(
        capsys, "bracket", "--s", "x1^2", "--a", "d1", "--b", "x1", "--kind", "qpb"
    )
    assert out.startswith("qpb: 1")


def test_bracket_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "bracket",
        "--json",
        "--s",
        "x1^2",
        "--a",
        "d1",
        "--b",
        "x1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == "1 + 2*x1^2"
    assert payload["kind"] == "qcpb"


def test_bracket_structure_preset_usable(capsys):
    code, out, _ = run_cli(
        capsys, "bracket", "--s", "x1^2", "--a", "s", "--b", "d1", "--kind", "qpb"
    )
    assert code == 0
    assert "-2*x1" in out


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "5", "--seed", "7")
    assert code == 0
    assert "result: PASS" in out
    assert "antisymmetry" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--trials", "3", "--seed", "1", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["checks"]) >= 10


def test_grid_check_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        "grid-check",
        "--s",
        "exp(i*x1) + exp(-i*x1)",
        "--a=-i*exp(i*x1)*d1",
        "--b",
        "exp(i*x1)",
        "--n",
        "64",
    )
    assert code == 0
    assert "status: pass" in out


def test_grid_check_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "grid-check",
        "--json",
        "--s",
        "0",
        "--a",
        "d1",
        "--b",
        "exp(i*x1)",
        "--n",
        "64",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["l2_residual"] <= 1e-8


def test_grid_check_tolerance_failure_exits_4(capsys):
    code, out, err = run_cli(
        capsys,
        "grid-check",
        "--s",
        "0",
        "--a",
        "d1",
        "--b",
        "exp(i*x1)",
        "--n",
        "64",
        "--tol",
        "1e-18",
    )
    assert code == 4
    assert "tolerance" in err


def test_classical_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "classical",
        "--s",
        "x1^2",
        "--f",
        "x1",
        "--g",
        "x2^2",
    )
    assert code == 0
    assert "gpb {f,g}:" in out
    assert "s-dynamics w:" in out


def test_classical_json(capsys):
    code, out, _ = run_cli(
        capsys, "classical", "--json", "--s", "0", "--f", "x1", "--g", "x2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gpb"] == "1"
    assert payload["gchs"] == "1"


def test_oscillator_report_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "flow.csv"
    code, out, _ = run_cli(
        capsys,
        "oscillator",
        "--s",
        "x1^2",
        "--grid",
        "32",
        "--steps",
        "20",
        "--t",
        "0.1",
        "--csv",
        str(csv_path),
    )
    assert code == 0
    assert "w (flow generator):" in out
    assert "-i - 2*i*x1*d1" in out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,re_expect,im_expect,residual"
    assert len(lines) > 2


def test_oscillator_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "oscillator",
        "--json",
        "--s",
        "0",
        "--grid",
        "32",
        "--steps",
        "10",
        "--t",
        "0.1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["w"] == "0"
    assert payload["plain_rate_x"] == "-i*d1"
    assert payload["csv"][0] == "t,re_expect,im_expect,residual"


def test_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "bracket", "--s", "0", "--a", "d1 +", "--b", "x1")
    assert code == 2
    assert "parse error" in err


def test_unknown_identifier_exits_2(capsys):
    code, _, err = run_cli(capsys, "bracket", "--s", "0", "--a", "foo", "--b", "x1")
    assert code == 2


def test_dimension_error_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "bracket", "--s", "0", "--a", "x2", "--b", "x1", "--dim", "1"
    )
    assert code == 3
    assert "dimension" in err


def test_non_real_structure_exits_2(capsys):
    code, _, err = run_cli(capsys, "bracket", "--s", "i*x1", "--a", "d1", "--b", "x1")
    assert code == 2


def _usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    return excinfo.value.code, capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_non_positive_trials(capsys, trials):
    code, err = _usage_error(capsys, "verify", f"--trials={trials}")
    assert code == 2
    assert "must be >= 1" in err


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_oscillator_rejects_non_finite_time(capsys, t):
    code, err = _usage_error(capsys, "oscillator", "--s", "0", f"--t={t}")
    assert code == 2
    assert "must be finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bracket", "--s", "0", "--a", "x1", "--b", "d1", "--dim", "0"],
        ["verify", "--dim", "0", "--trials", "1"],
    ],
    ids=["bracket", "verify"],
)
def test_dim_zero_is_a_usage_error(capsys, argv):
    code, err = _usage_error(capsys, *argv)
    assert code == 2
    assert "--dim" in err
    assert "must be >= 1" in err


def test_index_error_is_an_internal_error(capsys, monkeypatch):
    def broken(args):
        raise IndexError("axis 3 out of range for dim 1")

    monkeypatch.setitem(cli._COMMANDS, "bracket", broken)
    code, out, err = run_cli(capsys, "bracket", "--s", "0", "--a", "x1", "--b", "d1")
    assert code == 5
    assert out == ""
    assert err.startswith("internal error:")


def test_classical_missing_structure_matrix_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, out, err = run_cli(
        capsys, "classical", "--s", "0", "--f", "x1", "--g", "x2", "--J", str(missing)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input: cannot read structure matrix file")


def test_determinism_of_verify_across_processes():
    command = [
        sys.executable,
        "-m",
        "geobracket",
        "verify",
        "--trials",
        "5",
        "--seed",
        "7",
    ]
    first = subprocess.run(command, capture_output=True)
    second = subprocess.run(command, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.decode().count("pass") >= 10


def test_huge_exponent_finishes():
    # ``^k`` lowers by repeated squaring, so k = 99999999 costs a few dozen
    # compositions; expanding it term by term would not finish.
    command = [
        sys.executable, "-m", "geobracket", "bracket",
        "--s", "x1^99999999", "--a", "d1", "--b", "x1",
    ]
    result = subprocess.run(command, capture_output=True, timeout=60)
    assert result.returncode == 0
    assert "total:           1 + 99999999*x1^99999999" in result.stdout.decode()
