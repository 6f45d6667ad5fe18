"""Command-line surface: outputs, JSON mirrors, and exit codes."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from random import Random

import pytest
from refusals import non_finite_message, non_periodic_message

from geobracket import cli, errors, grid, printing
from geobracket.classical import StructureMatrix, gpb
from geobracket.cli import build_parser, main
from geobracket.parsing import parse_function
from geobracket.randomized import random_periodic_diff_op, random_periodic_fn


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
    assert "status: FAIL" in out
    assert err == "tolerance failure: residuals exceed tolerance 1e-18\n"


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


def _classical_with_matrix_file(capsys, tmp_path, rows, *argv):
    path = tmp_path / "j.json"
    path.write_text(json.dumps(rows))
    return run_cli(capsys, "classical", *argv, "--J", str(path))


@pytest.mark.parametrize("as_json", [[], ["--json"]], ids=["text", "json"])
def test_canonical_matrix_file_matches_the_canonical_option(tmp_path, capsys, as_json):
    argv = ["--s", "x1^2", "--f", "x1*x3", "--g", "x2^2 + x4", *as_json]
    rows = [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]]
    expected = run_cli(capsys, "classical", *argv)
    assert expected[0] == 0
    assert _classical_with_matrix_file(capsys, tmp_path, rows, *argv) == expected


def test_matrix_file_sets_the_structure_matrix(tmp_path, capsys):
    rows = [[0, "3/2"], ["-3/2", 0]]
    code, out, _ = _classical_with_matrix_file(
        capsys, tmp_path, rows, "--json", "--s", "x1", "--f", "x1^2*x2", "--g", "x2^2"
    )
    assert code == 0
    f, g = (parse_function(text, dim=2) for text in ("x1^2*x2", "x2^2"))
    expected = gpb(f, g, StructureMatrix(((0, Fraction(3, 2)), (Fraction(-3, 2), 0))))
    assert json.loads(out)["gpb"] == str(expected)
    assert expected != gpb(f, g, StructureMatrix.canonical(1))


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
    assert lines[0] == "t,re_expect,im_expect,growth"
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
    assert payload["csv"][0] == "t,re_expect,im_expect,growth"


def test_unwritable_csv_path_exits_2(tmp_path, capsys):
    path = tmp_path / "missing-dir" / "flow.csv"
    argv = ["oscillator", "--s", "0", "--grid", "16", "--steps", "2", "--csv", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"invalid input: cannot write CSV file {str(path)!r}: No such file or directory\n"


@pytest.mark.parametrize(
    "case, reason",
    [
        ("missing-directory", "No such file or directory"),
        ("directory", "Is a directory"),
        ("file-as-directory", "Not a directory"),
    ],
)
def test_unwritable_csv_path_is_refused_before_the_flow(
    tmp_path, capsys, monkeypatch, case, reason
):
    if case == "missing-directory":
        path = tmp_path / "missing-dir" / "flow.csv"
    elif case == "directory":
        path = tmp_path / "flow.csv"
        path.mkdir()
    else:
        (tmp_path / "plain-file").write_text("")
        path = tmp_path / "plain-file" / "flow.csv"
    before = sorted(tmp_path.rglob("*"))

    def no_flow(*args, **kwargs):
        pytest.fail("the flow ran before the --csv path was checked")

    monkeypatch.setattr(grid, "evolve", no_flow)
    argv = ["oscillator", "--s", "0", "--grid", "16", "--steps", "2", "--csv", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"invalid input: cannot write CSV file {str(path)!r}: {reason}\n"
    assert sorted(tmp_path.rglob("*")) == before  # nothing was created
    with pytest.raises(OSError) as opened:  # the reason open() itself gives
        open(path, "w")
    assert opened.value.strerror == reason


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(printing, name)

    def counting(value):
        calls.append(1)
        return original(value)

    monkeypatch.setattr(printing, name, counting)
    return calls


@pytest.mark.parametrize("as_json", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv, printer, renders",
    [
        (["bracket", "--s", "x1^2", "--a", "d1", "--b", "x1", "--kind", "qcpb"],
         "format_diff_op", 3),
        (["classical", "--s", "x1^2", "--f", "x1", "--g", "x2^2"], "format_coef_fn", 5),
    ],
    ids=["bracket-qcpb", "classical"],
)
def test_each_result_is_rendered_once(capsys, monkeypatch, argv, printer, renders, as_json):
    # One string per result feeds both the text line and the JSON field.
    calls = _count_calls(monkeypatch, printer)
    code, _, _ = run_cli(capsys, *argv, *as_json)
    assert code == 0
    assert len(calls) == renders


# Text label of every engine string in the JSON output; ``kind`` and ``law``
# echo options and are left out.
_TEXT_LABELS = {
    "oscillator": {
        "hamiltonian": "hamiltonian:",
        "w": "w (flow generator):",
        "geomenergy": "geomenergy (i*hbar*w):",
        "covariant_rate_x": "covariant rate of x1:",
        "plain_rate_x": "plain rate of x1:",
        "covariant_rate_p": "covariant rate of p1:",
        "plain_rate_p": "plain rate of p1:",
    },
    "grid-check": {"symbolic": "symbolic {kind}:"},
}


def _seeded_requests(seed):
    rng = Random(f"text-json/{seed}")
    s = random_periodic_fn(rng, real=True)
    a, b = random_periodic_diff_op(rng), random_periodic_diff_op(rng)
    kind = rng.choice(("qpb", "geomutator", "qcpb"))
    amplitude = rng.choice(("1/5", "1/10"))
    flow_s = f"{amplitude}*exp(i*x1) + {amplitude}*exp(-i*x1) + {rng.choice(('0', '1/10*x1'))}"
    # The loose --tol lets every comparison pass: only the strings are read.
    return [
        ["grid-check", f"--s={s}", f"--a={a}", f"--b={b}", "--n", "32", "--kind", kind,
         "--tol", "1e9"],
        ["oscillator", f"--s={flow_s}", "--grid", "16", "--t", "0.1", "--steps", "5",
         "--law", rng.choice(("generalized_heisenberg", "covariant"))],
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_text_and_json_agree_on_engine_strings(capsys, seed):
    for argv in _seeded_requests(seed):
        code, text, _ = run_cli(capsys, *argv)
        json_code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == json_code == 0
        payload = json.loads(out)
        lines = text.splitlines()
        labels = {
            key: label.format(kind=payload.get("kind"))
            for key, label in _TEXT_LABELS[argv[0]].items()
        }
        strings = {k for k, v in payload.items() if isinstance(v, str)}
        assert strings - {"kind", "law"} == set(labels)
        for key, label in labels.items():
            (line,) = [line for line in lines if line.startswith(label)]
            assert line[len(label):].lstrip() == payload[key]


def test_parse_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "bracket", "--s", "0", "--a", "d1 +", "--b", "x1")
    assert code == 2
    assert "parse error" in err


def test_unknown_identifier_exits_2(capsys):
    code, _, err = run_cli(capsys, "bracket", "--s", "0", "--a", "foo", "--b", "x1")
    assert code == 2


@pytest.mark.parametrize("name", ["x1a", "d2x", "a0a"])
def test_letters_after_digits_exit_2(capsys, name):
    code, out, err = run_cli(capsys, "bracket", "--s", "0", "--a", name, "--b", "x1")
    assert (code, out) == (2, "")
    assert f"unknown identifier '{name}'" in err


def test_dimension_error_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "bracket", "--s", "0", "--a", "x2", "--b", "x1", "--dim", "1"
    )
    assert code == 3
    assert "dimension" in err


def test_derivative_beyond_the_dimension_exits_3(capsys):
    code, out, err = run_cli(
        capsys, "bracket", "--dim", "1", "--s", "0", "--a", "d2", "--b", "x1"
    )
    assert (code, out, err) == (3, "", "dimension error: d2 does not fit in 1 coordinate(s)\n")


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


_REFUSALS = [
    value for value in vars(errors).values()
    if isinstance(value, type) and value.__module__ == errors.__name__
]


@pytest.mark.parametrize("error", _REFUSALS, ids=lambda error: error.__name__)
def test_every_error_class_exits_2_or_3(capsys, monkeypatch, error):
    def refuse(args):
        raise error("refused")

    monkeypatch.setitem(cli._COMMANDS, "bracket", refuse)
    code, out, err = run_cli(capsys, "bracket", "--s", "0", "--a", "x1", "--b", "d1")
    assert code == (3 if error is errors.DimensionMismatch else 2)
    assert out == ""
    assert "refused" in err and not err.startswith("internal error")


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


def _ten_to(k):
    return "1" + "0" * k


@pytest.mark.parametrize(
    "argv, message",
    [
        (["oscillator", "--s", "0", "--omega", "1e200"],
         non_finite_message("5" + "0" * 399 + "*x1^2")),
        (["oscillator", "--s", "0", "--m", "1e-400"], non_finite_message("-5" + "0" * 399)),
        (["oscillator", "--s", f"{_ten_to(330)}*x1"], non_finite_message(f"{_ten_to(330)}*x1")),
        (["oscillator", "--s", "exp(1000*x1)"], non_finite_message("exp(1000*x1)")),
        (["oscillator", "--s", "0", "--psi", "exp(1000*x1)"],
         non_finite_message("exp(1000*x1)")),
        (["oscillator", "--s", "0", "--psi", f"1/{_ten_to(300)}*exp(i*x1)"],
         f"||psi||^2 of 1/{_ten_to(300)}*exp(i*x1) is outside double precision"),
        (["oscillator", "--s", "0", "--hbar", "1e-400"],
         f"1/hbar is not a finite nonzero double for hbar = 1/{_ten_to(400)}"),
        (["oscillator", "--s", "0", "--hbar", "1e400"],
         f"1/hbar is not a finite nonzero double for hbar = {_ten_to(400)}"),
        (["grid-check", "--s", "0", "--a", f"{_ten_to(309)}*d1", "--b", "d1"],
         non_finite_message(_ten_to(309))),
        (["grid-check", "--s", "0", "--a", "d1", "--b", "exp(i*x1)",
          "--psi", f"{_ten_to(300)}*exp(i*x1)"],
         f"||psi||^2 of {_ten_to(300)}*exp(i*x1) is outside double precision"),
        (["grid-check", "--s", "0", "--a", "d1", "--b", "exp(i*x1)",
          "--psi", f"1/{_ten_to(300)}*exp(i*x1)"],
         f"||psi||^2 of 1/{_ten_to(300)}*exp(i*x1) is outside double precision"),
    ],
    ids=[
        "omega-1e200",
        "mass-1e-400",
        "s-1e330",
        "s-exp-1000x",
        "psi-exp-1000x",
        "psi-norm-underflow-oscillator",
        "hbar-1e-400",
        "hbar-1e400",
        "operand-1e309",
        "psi-norm-overflow",
        "psi-norm-underflow",
    ],
)
def test_values_outside_double_precision_exit_2(capsys, argv, message):
    size = ["--grid", "16", "--steps", "2"] if argv[0] == "oscillator" else ["--n", "16"]
    code, out, err = run_cli(capsys, *argv, *size)
    assert (code, out, err) == (2, "", f"invalid input: {message}\n")


@pytest.mark.parametrize(
    "argv, step, t",
    [
        (["--s", "x1^2", "--grid", "64", "--t", "1", "--steps", "200"], 107, "0.535"),
        (["--s", "0", "--t", "1e300", "--steps", "1"], 1, "1e+300"),
    ],
    ids=["readme-example", "huge-step"],
)
def test_diverging_flow_exits_2_and_writes_no_csv(tmp_path, capsys, argv, step, t):
    csv_path = tmp_path / "flow.csv"
    code, out, err = run_cli(capsys, "oscillator", *argv, "--csv", str(csv_path))
    assert (code, out) == (2, "")
    assert err == (
        f"invalid input: non-finite values at step {step} (t = {t}); "
        "reduce the step size or the operator order\n"
    )
    assert not csv_path.exists()


@pytest.mark.parametrize("kind", ["geomutator", "qcpb"])
def test_grid_check_refuses_non_real_s_before_matrix_work(capsys, monkeypatch, kind):
    def no_matrix_work(*args, **kwargs):
        pytest.fail("a matrix was built before --s was checked")

    monkeypatch.setattr(grid, "matrix_bracket", no_matrix_work)
    monkeypatch.setattr(grid, "discretize", no_matrix_work)
    code, out, err = run_cli(
        capsys, "grid-check", "--s", "exp(i*x1)", "--a", "d1^2", "--b", "exp(i*x1)*d1",
        "--n", "2048", "--kind", kind,
    )
    message = "invalid input: structure function must equal its complex conjugate\n"
    assert (code, out, err) == (2, "", message)


def test_grid_check_qpb_accepts_a_non_real_s(capsys):
    code, out, _ = run_cli(
        capsys, "grid-check", "--s", "exp(i*x1)", "--a", "d1^2", "--b", "exp(i*x1)*d1",
        "--n", "16", "--kind", "qpb",
    )
    assert code == 0
    assert "status: pass" in out


@pytest.mark.parametrize(
    "psi, message",
    [
        ("((", "parse error: unexpected end of input (line 1, column 3); "
               "expected one of: number, identifier, ("),
        ("x1", "invalid input: " + non_periodic_message("x1")),
        ("0", "invalid input: the state psi vanishes on every grid point"),
    ],
    ids=["syntax", "non-periodic", "zero"],
)
def test_grid_check_refuses_bad_psi_before_matrix_work(capsys, monkeypatch, psi, message):
    def no_matrix_work(*args, **kwargs):
        pytest.fail("a matrix was built before --psi was checked")

    monkeypatch.setattr(grid, "matrix_bracket", no_matrix_work)
    monkeypatch.setattr(grid, "discretize", no_matrix_work)
    code, out, err = run_cli(
        capsys, "grid-check", "--s", "exp(i*x1) + exp(-i*x1)", "--a", "d1^2",
        "--b", "exp(i*x1)", "--n", "2048", "--psi", psi,
    )
    assert (code, out, err) == (2, "", message + "\n")


@pytest.mark.parametrize("kind", ["geomutator", "qcpb"])
@pytest.mark.parametrize("s", ["x1", "x1^2"])
def test_grid_check_refuses_non_periodic_s_before_discretizing(capsys, monkeypatch, s, kind):
    def no_discretize(*args, **kwargs):
        pytest.fail("an operator was discretized before --s was checked")

    monkeypatch.setattr(grid, "discretize", no_discretize)
    code, out, err = run_cli(
        capsys, "grid-check", "--s", s, "--a", "d1", "--b", "exp(i*x1)", "--kind", kind,
    )
    assert (code, out, err) == (2, "", f"invalid input: {non_periodic_message(s)}\n")


@pytest.mark.parametrize("kind", ["qpb", "geomutator", "qcpb"])
@pytest.mark.parametrize("flag", ["--a", "--b"])
def test_grid_check_refuses_non_periodic_operand_before_the_exact_bracket(
    capsys, monkeypatch, flag, kind
):
    def no_exact_bracket(*args, **kwargs):
        pytest.fail("the exact bracket was computed before the operands were checked")

    for name in ("commutator", "geomutator", "qcpb"):
        monkeypatch.setattr(cli, name, no_exact_bracket)
    operands = {"--a": "d1", "--b": "exp(i*x1)", flag: "x1*d1"}
    code, out, err = run_cli(
        capsys, "grid-check", "--s", "exp(i*x1) + exp(-i*x1)", "--kind", kind,
        *(item for pair in operands.items() for item in pair),
    )
    assert (code, out, err) == (2, "", f"invalid input: {non_periodic_message('x1')}\n")


def test_grid_check_has_no_scheme_option(capsys):
    with pytest.raises(SystemExit):
        main(["grid-check", "--help"])
    assert "--scheme" not in capsys.readouterr().out
    code, err = _usage_error(
        capsys, "grid-check", "--s", "0", "--a", "d1", "--b", "x1", "--scheme", "spectral",
    )
    assert code == 2
    assert "unrecognized arguments: --scheme spectral" in err


def test_grid_check_qpb_ignores_a_polynomial_s(capsys):
    code, out, _ = run_cli(
        capsys, "grid-check", "--s", "x1^2", "--a", "d1", "--b", "exp(i*x1)", "--kind", "qpb",
    )
    assert code == 0
    assert "status: pass" in out


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


def _run_with_closed_stdout(argv, unbuffered):
    # The read end is closed before the child starts, so every write the
    # child makes meets a closed pipe: inside a print when stdout is
    # unbuffered, at a flush when it is buffered.
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
    return result.returncode, result.stderr.decode()


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
    code, err = _run_with_closed_stdout(argv, unbuffered)
    assert code == 0, err
    assert "internal error" not in err
    assert "Exception ignored" not in err


_FAILING_GRID_CHECK = [
    "grid-check", "--s", "0", "--a", "d1", "--b", "exp(i*x1)", "--n", "64", "--tol", "1e-18",
]


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "argv, expected_code",
    [
        (_FAILING_GRID_CHECK, 4),
        (["grid-check", "--json", *_FAILING_GRID_CHECK[1:]], 4),
        (["bracket", "--s", "0", "--a", "((", "--b", "x1"], 2),
    ],
    ids=["grid-check-fail", "grid-check-fail-json", "parse-error"],
)
def test_closed_stdout_keeps_the_exit_code_and_message(
    capsys, argv, expected_code, unbuffered
):
    # A failing command's exit code and stderr message survive a closed
    # stdout: the same as with an open one, and nothing else on stderr.
    open_code, _, open_err = run_cli(capsys, *argv)
    assert open_code == expected_code
    code, err = _run_with_closed_stdout(argv, unbuffered)
    assert (code, err) == (open_code, open_err)


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
