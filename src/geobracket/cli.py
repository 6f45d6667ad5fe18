"""Command-line interface.

Subcommands: ``bracket`` (one extended bracket, printed in parts),
``verify`` (randomized identity suite), ``oscillator`` (flow generator and
rate equations for the quadratic Hamiltonian, plus a grid evolution),
``grid-check`` (symbolic vs. matrix bracket residuals), and ``classical``
(structural Poisson brackets).  Exit codes: 0 success, 2 parse error or
invalid input (argparse usage errors included, such as a ``--dim``,
``--trials`` or ``--pairs`` below 1, or a ``grid-check --tol`` that is
negative or not finite; also a rational with a zero denominator, an
expression nested deeper than ``parsing.MAX_DEPTH`` (100) levels, a
``--J`` file that is not a JSON list of rows, and a ``--psi`` that
vanishes on every grid point or, for ``grid-check``, is not periodic under
``spectral``; ``grid-check`` parses every expression and checks ``--psi``
before it builds a matrix), 3 dimension error, 4 tolerance/verification failure,
5 internal error (a bug).  A closed stdout (the reader of a pipe exited
early, as in ``geobracket verify --json | head``) is not an error: the
command stops writing and exits 0 with nothing on stderr.  Grid sizes
(``grid-check --n``, ``oscillator --grid``) are powers of two from 16 to
``grid.MAX_POINTS`` (2048); any other size exits 2 before a matrix is
allocated.

``main(argv)`` may be called repeatedly in one process.  The first call
builds the ``argparse`` parser and every later call reuses it; nothing
changes the parser once it is built, so one call leaves no state behind
for the next.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from fractions import Fraction

from . import grid as grid_mod
from .brackets import geomutator, qcpb
from .classical import StructureMatrix, dynamics_rhs, gpb, gspb
from .errors import DimensionMismatch, ExprSyntaxError, ToleranceExceeded
from .operators import commutator, momentum, position
from .parsing import as_function, lower, max_axis, parse, parse_function, parse_operator
from .quantum import (
    Params,
    covariant_rhs,
    gdynamics,
    gen_heisenberg_rhs,
    geomentum,
    harmonic_oscillator,
)
from .verify import format_results, run_identity_suite


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text!r}")
    return value


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite: {text!r}")
    return value


def _tolerance(text: str) -> float:
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geobracket",
        description="Exact geometric-commutator algebra with a numerical grid oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bracket = sub.add_parser("bracket", help="compute one extended bracket")
    bracket.add_argument("--s", required=True, help="structure function expression")
    bracket.add_argument("--a", required=True, help="left operator expression")
    bracket.add_argument("--b", required=True, help="right operator expression")
    bracket.add_argument("--kind", choices=("qpb", "geo", "qcpb"), default="qcpb")
    bracket.add_argument("--dim", type=_positive_int, default=None, help="coordinate count")
    bracket.add_argument("--json", action="store_true")

    verify = sub.add_parser("verify", help="run the randomized identity suite")
    verify.add_argument("--trials", type=_positive_int, default=100)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--dim", type=_positive_int, default=2, help="largest dimension drawn")
    verify.add_argument("--json", action="store_true")

    oscillator = sub.add_parser(
        "oscillator", help="quadratic-Hamiltonian dynamics report and evolution"
    )
    oscillator.add_argument("--s", required=True)
    oscillator.add_argument("--hbar", type=_fraction, default=Fraction(1))
    oscillator.add_argument("--m", type=_fraction, default=Fraction(1))
    oscillator.add_argument("--omega", type=_fraction, default=Fraction(1))
    oscillator.add_argument("--grid", type=int, default=64)
    oscillator.add_argument("--t", type=_finite_float, default=1.0)
    oscillator.add_argument("--steps", type=int, default=200)
    oscillator.add_argument(
        "--law", choices=grid_mod.LAWS, default="generalized_heisenberg"
    )
    oscillator.add_argument("--psi", default="exp(i*x1)", help="state for expectations")
    oscillator.add_argument("--csv", default=None, help="write samples to this file")
    oscillator.add_argument("--json", action="store_true")

    grid_check = sub.add_parser(
        "grid-check", help="symbolic-vs-matrix bracket residuals"
    )
    grid_check.add_argument("--s", required=True)
    grid_check.add_argument("--a", required=True)
    grid_check.add_argument("--b", required=True)
    grid_check.add_argument("--n", type=int, default=256)
    grid_check.add_argument("--scheme", choices=grid_mod.SCHEMES, default="spectral")
    grid_check.add_argument("--kind", choices=("qpb", "geomutator", "qcpb"), default="qcpb")
    grid_check.add_argument("--tol", type=_tolerance, default=1e-8)
    grid_check.add_argument("--psi", default="exp(i*x1)")
    grid_check.add_argument("--json", action="store_true")

    classical = sub.add_parser("classical", help="structural Poisson brackets")
    classical.add_argument("--s", required=True)
    classical.add_argument("--f", required=True)
    classical.add_argument("--g", required=True, help="treated as the Hamiltonian")
    classical.add_argument(
        "--J",
        default="canonical",
        help="'canonical' or a JSON file with an antisymmetric rational matrix",
    )
    classical.add_argument(
        "--pairs", type=_positive_int, default=None, help="position/momentum pairs"
    )
    classical.add_argument("--json", action="store_true")

    return parser


def _emit(payload: dict, as_json: bool, lines):
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def cmd_bracket(args) -> int:
    nodes = [parse(args.s), parse(args.a), parse(args.b)]
    dim = args.dim or max(1, *(max_axis(node) + 1 for node in nodes))
    s = as_function(lower(nodes[0], dim))
    a = lower(nodes[1], dim, s)
    b = lower(nodes[2], dim, s)
    if args.kind == "qpb":
        result = commutator(a, b)
        _emit(
            {"kind": "qpb", "total": str(result)},
            args.json,
            [f"qpb: {result}"],
        )
    elif args.kind == "geo":
        result = geomutator(s, a, b)
        _emit(
            {"kind": "geo", "total": str(result)},
            args.json,
            [f"geomutator: {result}"],
        )
    else:
        report = qcpb(s, a, b)
        _emit(
            {
                "kind": "qcpb",
                "qpb": str(report.qpb_part),
                "geomutator": str(report.geomutator_part),
                "total": str(report.total),
            },
            args.json,
            [
                f"qpb part:        {report.qpb_part}",
                f"geomutator part: {report.geomutator_part}",
                f"total:           {report.total}",
            ],
        )
    return 0


def cmd_verify(args) -> int:
    results = run_identity_suite(args.trials, args.seed, args.dim)
    lines = format_results(results, args.seed, args.trials, args.dim)
    payload = {
        "seed": args.seed,
        "trials": args.trials,
        "dim": args.dim,
        "checks": [
            {"name": r.name, "passed": r.passed, "trials": r.trials, "ok": r.ok}
            for r in results
        ],
        "ok": all(r.ok for r in results),
    }
    _emit(payload, args.json, lines)
    return 0 if all(r.ok for r in results) else 4


def cmd_oscillator(args) -> int:
    params = Params(hbar=args.hbar, mass=args.m, omega=args.omega)
    s = parse_function(args.s, dim=1)
    h = harmonic_oscillator(params)
    x_op = position(1)
    p_op = momentum(1, hbar=params.hbar)
    flow = gdynamics(s, h)

    spec = grid_mod.GridSpec(args.grid, "central2")
    psi = parse_function(args.psi, dim=1)
    result = grid_mod.evolve(
        s,
        h.op,
        x_op,
        t_final=args.t,
        steps=args.steps,
        spec=spec,
        law=args.law,
        hbar=params.hbar,
        psi=psi,
    )
    w_grid = grid_mod.discretize(flow.w_op, spec)
    spectrum = grid_mod.eigenvalues(w_grid)[:8]
    p_geo = grid_mod.discretize(geomentum(s, 0, params), spec)
    covariant_x = covariant_rhs(s, h, x_op)
    plain_x = gen_heisenberg_rhs(s, h, x_op)
    covariant_p = covariant_rhs(s, h, p_op)
    plain_p = gen_heisenberg_rhs(s, h, p_op)

    report_lines = [
        f"hamiltonian:               {h.op}",
        f"w (flow generator):        {flow.w_op}",
        f"geomenergy (i*hbar*w):     {flow.geomenergy}",
        f"covariant rate of x1:      {covariant_x}",
        f"plain rate of x1:          {plain_x}",
        f"covariant rate of p1:      {covariant_p}",
        f"plain rate of p1:          {plain_p}",
        f"geomentum Hermitian on grid: {grid_mod.is_hermitian(p_geo)}",
        "w spectrum (first 8, by real part): "
        + ", ".join(f"{z.real:.6g}{z.imag:+.6g}i" for z in spectrum),
        f"evolution: law={args.law} grid={args.grid} scheme=central2 "
        f"t={args.t:g} steps={args.steps}",
        "note: grid scenario (state, grid, steps) is chosen by this tool.",
    ]
    csv_rows = list(result.csv_lines())
    payload = {
        "hamiltonian": str(h.op),
        "w": str(flow.w_op),
        "geomenergy": str(flow.geomenergy),
        "covariant_rate_x": str(covariant_x),
        "plain_rate_x": str(plain_x),
        "covariant_rate_p": str(covariant_p),
        "plain_rate_p": str(plain_p),
        "geomentum_hermitian": grid_mod.is_hermitian(p_geo),
        "w_spectrum": [[z.real, z.imag] for z in spectrum],
        "law": args.law,
        "csv": csv_rows,
    }
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as stream:
            result.write_csv(stream)
        report_lines.append(f"csv written: {args.csv}")
        payload["csv_path"] = args.csv
        _emit(payload, args.json, report_lines)
    else:
        _emit(payload, args.json, report_lines + csv_rows)
    return 0


def cmd_grid_check(args) -> int:
    s = parse_function(args.s, dim=1)
    a = parse_operator(args.a, dim=1, structure_fn=s)
    b = parse_operator(args.b, dim=1, structure_fn=s)
    psi = parse_function(args.psi, dim=1)
    spec = grid_mod.GridSpec(args.n, args.scheme)
    grid_mod.comparison_state(psi, spec)  # refuse a bad state before matrix work
    if args.kind == "qpb":
        symbolic = commutator(a, b)
    elif args.kind == "geomutator":
        symbolic = geomutator(s, a, b)
    else:
        symbolic = qcpb(s, a, b).total
    numeric = grid_mod.matrix_bracket(s, a, b, spec, args.kind)
    report = grid_mod.compare(symbolic, numeric, psi, args.tol)
    lines = [
        f"symbolic {args.kind}: {symbolic}",
        f"l2 residual (on psi):   {report.l2_residual:.3e}",
        f"spectral-norm residual: {report.spectral_residual:.3e}",
        f"tolerance:              {report.tolerance:.3e}",
        f"status: {'pass' if report.passed else 'FAIL'}",
    ]
    payload = {
        "kind": args.kind,
        "symbolic": str(symbolic),
        "l2_residual": report.l2_residual,
        "spectral_residual": report.spectral_residual,
        "tolerance": report.tolerance,
        "ok": report.passed,
    }
    _emit(payload, args.json, lines)
    if not report.passed:
        raise ToleranceExceeded(
            f"residuals exceed tolerance {report.tolerance:g}"
        )
    return 0


def _load_structure_matrix(spec_text: str, pairs: int) -> StructureMatrix:
    if spec_text == "canonical":
        return StructureMatrix.canonical(pairs)
    try:
        with open(spec_text, encoding="utf-8") as stream:
            rows = json.load(stream)
    except OSError as exc:
        raise ValueError(
            f"cannot read structure matrix file {spec_text!r}: {exc.strerror}"
        ) from exc
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("structure matrix file must hold a JSON list of rows")
    try:
        entries = tuple(tuple(Fraction(str(v)) for v in row) for row in rows)
    except ZeroDivisionError as exc:
        raise ValueError(
            "structure matrix file has an entry with a zero denominator"
        ) from exc
    return StructureMatrix(entries)


def cmd_classical(args) -> int:
    nodes = [parse(args.s), parse(args.f), parse(args.g)]
    dim = max(1, *(max_axis(node) + 1 for node in nodes))
    pairs = args.pairs or (dim + 1) // 2
    size = 2 * pairs
    s, f, g = (as_function(lower(node, size)) for node in nodes)
    j = _load_structure_matrix(args.J, pairs)
    bracket = gspb(s, f, g, j)
    plain = gpb(f, g, j)
    tghs = dynamics_rhs(s, g, f, j, "tghs")
    w = dynamics_rhs(s, g, f, j, "sdyn")
    lines = [
        f"coordinates: x1..x{pairs} positions, x{pairs + 1}..x{size} momenta",
        f"gpb {{f,g}}:        {plain}",
        f"gspb {{f,g}}_s:     {bracket}",
        f"gchs rate of f:    {bracket}",
        f"tghs rate of f:    {tghs}",
        f"s-dynamics w:      {w}",
    ]
    payload = {
        "pairs": pairs,
        "gpb": str(plain),
        "gspb": str(bracket),
        "gchs": str(bracket),
        "tghs": str(tghs),
        "sdyn": str(w),
    }
    _emit(payload, args.json, lines)
    return 0


_COMMANDS = {
    "bracket": cmd_bracket,
    "verify": cmd_verify,
    "oscillator": cmd_oscillator,
    "grid-check": cmd_grid_check,
    "classical": cmd_classical,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _silence_stdout() -> None:
    """Point a real stdout at the null device, so the exit-time flush succeeds."""
    try:
        fd = sys.stdout.fileno()
    except io.UnsupportedOperation:
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        # Flush here so a closed pipe surfaces as BrokenPipeError below,
        # not at interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _silence_stdout()
        return 0
    except ExprSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DimensionMismatch as exc:
        print(f"dimension error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except ToleranceExceeded as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
