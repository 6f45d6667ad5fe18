"""Command-line surface: outputs, JSON mirrors, and exit codes."""

import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from geobracket import cli
from geobracket.cli import build_parser, main


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


@pytest.mark.parametrize(
    "option, message",
    [
        ("--tol=nan", "must be finite"),
        ("--tol=-inf", "must be finite"),
        ("--tol=-1", "must be >= 0"),
        ("--pairs=0", "must be >= 1"),
        ("--pairs=-2", "must be >= 1"),
    ],
    ids=["tol-nan", "tol-minus-inf", "tol-negative", "pairs-0", "pairs-negative"],
)
def test_bad_tolerance_or_pairs_is_a_usage_error(capsys, option, message):
    argv = ["grid-check", "--s", "0", "--a", "d1", "--b", "exp(i*x1)", "--n", "64"]
    if option.startswith("--pairs"):
        argv = ["classical", "--s", "x1^2", "--f", "x1", "--g", "x2^2"]
    code, err = _usage_error(capsys, *argv, option)
    assert code == 2
    assert option.split("=")[0] in err and message in err


@pytest.mark.parametrize("option", ["--hbar", "--m", "--omega"])
def test_zero_denominator_constant_is_a_usage_error(capsys, option):
    code, err = _usage_error(capsys, "oscillator", "--s", "0", f"{option}=1/0")
    assert code == 2
    assert f"{option}: not a rational number: '1/0'" in err


def test_classical_pairs_sets_the_coordinate_count(capsys):
    argv = ["classical", "--s", "0", "--f", "x3", "--g", "x2", "--pairs", "1"]
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (3, "dimension error: x3 does not fit in 2 coordinate(s)\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["grid-check", "--s", "0", "--a", "d1", "--b", "exp(i*x1)", "--n", "1048576"],
        ["oscillator", "--s", "0", "--grid", "1048576"],
        ["grid-check", "--s", "0", "--a", "d1", "--b", "exp(i*x1)", "--n", "4096"],
    ],
    ids=["grid-check", "oscillator", "twice-the-cap"],
)
def test_grid_size_above_the_cap_exits_2_without_allocating(capsys, argv):
    # A 2**20-point grid would need 16 TiB per dense matrix; the size budget
    # refuses it before any array is allocated.
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run_cli(capsys, *argv)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input: n_points must be <= 2048")
    assert elapsed < 1.0
    assert peak < 1 << 20


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bracket", "--s", "1/0", "--a", "d1", "--b", "x1"],
         "parse error: zero denominator in '1/0' (line 1, column 1)"),
        (["bracket", "--s", "0", "--a", "d1", "--b", "x1 + 3/0i"],
         "parse error: zero denominator in '3/0i' (line 1, column 6)"),
        (["grid-check", "--s", "1/0", "--a", "d1", "--b", "x1"],
         "parse error: zero denominator in '1/0' (line 1, column 1)"),
        (["classical", "--s", "2/0", "--f", "x1", "--g", "x2"],
         "parse error: zero denominator in '2/0' (line 1, column 1)"),
        (["grid-check", "--s", "0", "--a", "d1", "--b", "d1", "--psi", "0", "--n", "16"],
         "invalid input: the state psi vanishes on every grid point"),
        (["oscillator", "--s", "0", "--grid", "16", "--steps", "1", "--psi", "0"],
         "invalid input: the state psi vanishes on every grid point"),
        (["bracket", "--s", "0", "--a", "(" * 300 + "x1" + ")" * 300, "--b", "d1"],
         "parse error: expression nested deeper than 100 levels (line 1, column 101)"),
        (["bracket", "--s", "0", "--a", "exp(" * 200 + "x1" + ")" * 200, "--b", "d1"],
         "parse error: expression nested deeper than 100 levels (line 1, column 401)"),
        (["bracket", "--s", "0", "--a", "x1" + "^1" * 1200, "--b", "d1"],
         "parse error: expression nested deeper than 100 levels (line 1, column 203)"),
    ],
    ids=[
        "zero-denominator-bracket",
        "zero-denominator-imaginary",
        "zero-denominator-grid-check",
        "zero-denominator-classical",
        "zero-psi-grid-check",
        "zero-psi-oscillator",
        "nested-parentheses",
        "nested-exp",
        "power-chain",
    ],
)
def test_outside_input_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", message + "\n")


@pytest.mark.parametrize(
    "psi, message",
    [
        ("((", "parse error: unexpected end of input (line 1, column 3); "
               "expected one of: number, identifier, ("),
        ("x1", "invalid input: spectral comparison requires a periodic test function"),
        ("0", "invalid input: the state psi vanishes on every grid point"),
    ],
    ids=["syntax", "non-periodic", "zero"],
)
def test_grid_check_refuses_bad_psi_before_matrix_work(capsys, monkeypatch, psi, message):
    from geobracket import grid

    def no_matrix_work(*args, **kwargs):
        pytest.fail("a matrix was built before --psi was checked")

    monkeypatch.setattr(grid, "matrix_bracket", no_matrix_work)
    monkeypatch.setattr(grid, "discretize", no_matrix_work)
    code, out, err = run_cli(
        capsys, "grid-check", "--s", "exp(i*x1) + exp(-i*x1)", "--a", "d1^2",
        "--b", "exp(i*x1)", "--n", "2048", "--psi", psi,
    )
    assert (code, out, err) == (2, "", message + "\n")


@pytest.mark.parametrize(
    "content, message",
    [
        ("5", "must hold a JSON list of rows"),
        ("[1, 2]", "must hold a JSON list of rows"),
        ('[["1/0"]]', "has an entry with a zero denominator"),
    ],
    ids=["number", "flat-list", "zero-denominator"],
)
def test_malformed_structure_matrix_file_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "j.json"
    path.write_text(content)
    code, out, err = run_cli(
        capsys, "classical", "--s", "x1", "--f", "x1", "--g", "x2", "--J", str(path)
    )
    assert (code, out, err) == (2, "", f"invalid input: structure matrix file {message}\n")


def test_huge_exponent_finishes(capsys):
    # ``^k`` lowers by repeated squaring, so k = 99999999 costs a few dozen
    # compositions; expanding it term by term would not finish.
    command = [
        sys.executable, "-m", "geobracket", "bracket",
        "--s", "x1^99999999", "--a", "d1", "--b", "x1",
    ]
    result = subprocess.run(command, capture_output=True, timeout=60)
    assert result.returncode == 0
    assert "total:           1 + 99999999*x1^99999999" in result.stdout.decode()
    # The Leibniz rule stops at the derivative order that annihilates the
    # coefficient, so a high derivative power costs no more than a high
    # monomial power.
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "bracket", "--s", "0", "--a", "d1^1000000", "--b", "x1")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert "total:           1000000*d1^999999" in out


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--seed", "7", "--trials", "2", "--json"],
        ["bracket", "--s", "0", "--a", "x1", "--b", "d1"],
    ],
    ids=["verify-json", "bracket"],
)
def test_closed_stdout_exits_0_silently(argv, unbuffered):
    # The read end is closed before the child starts, so every write the
    # child makes meets a closed pipe: inside a print when stdout is
    # unbuffered, at the flush after the command when it is buffered.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "geobracket", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    err = result.stderr.decode()
    assert result.returncode == 0, err
    assert "internal error" not in err
    assert "Exception ignored" not in err


@pytest.fixture
def fresh_parser():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


_MIXED_CALLS = {
    "bracket": ["bracket", "--s", "x1^2", "--a", "d1", "--b", "x1"],
    "bracket-json": ["bracket", "--json", "--s", "x1", "--a", "d1^2", "--b", "exp(i*x1)", "--kind", "geo"],
    "classical": ["classical", "--s", "x1^2", "--f", "x1", "--g", "x2^2"],
    "usage-error": ["verify", "--trials", "0"],
    "parse-error": ["bracket", "--s", "0", "--a", "((", "--b", "x1"],
    "dim-zero": ["bracket", "--s", "0", "--a", "x1", "--b", "d1", "--dim", "0"],
    "verify": ["verify", "--trials", "1"],
}


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shared_parser_leaks_no_state(capsys, fresh_parser):
    forward = {label: _outcome(capsys, argv) for label, argv in _MIXED_CALLS.items()}
    backward = {
        label: _outcome(capsys, _MIXED_CALLS[label]) for label in reversed(_MIXED_CALLS)
    }
    assert backward == forward
    assert [forward[label][0] for label in _MIXED_CALLS] == [0, 0, 0, 2, 2, 2, 0]


def test_main_builds_the_parser_once(capsys, monkeypatch, fresh_parser):
    builds = []

    def counting_build_parser():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for label in ("bracket", "classical", "parse-error", "bracket-json", "bracket"):
        _outcome(capsys, _MIXED_CALLS[label])
    assert len(builds) == 1
