"""Command-line interface.

Subcommands: ``bracket`` (one extended bracket, printed in parts),
``verify`` (randomized identity suite), ``oscillator`` (flow generator and
rate equations for the quadratic Hamiltonian, plus a grid evolution),
``grid-check`` (symbolic vs. matrix bracket residuals), and ``classical``
(structural Poisson brackets).

Every command parses all its expressions before it lowers any, and
``grid-check`` and ``oscillator`` check the grid size (a power of two from
16 to ``grid.MAX_POINTS``, 2048) in between, so a syntax error or a bad
size is refused before any algebra or matrix work.

Exit codes: 0 success, 2 parse error or invalid input (argparse usage
errors included, such as a ``--dim``, ``--trials`` or ``--pairs`` below 1,
or a ``grid-check --tol`` that is negative or not finite; also a rational
with a zero denominator or a number longer than Python converts from or to
text (``sys.get_int_max_str_digits()``, 4300 digits by default) in an
expression or a result, an expression nested deeper than
``parsing.MAX_DEPTH`` (100) levels, a ``--J`` file that is not a JSON list
of rows, a ``--psi`` that vanishes on every grid point, a grid function
whose samples are not finite doubles or a ``--psi`` whose squared norm is
not, an oracle matrix, product or residual that is not finite in double
precision, an ``oscillator --hbar`` whose inverse is 0 or not finite as a
double, a flow that diverges, and a ``grid-check`` function that is not
2*pi-periodic, refused with a message that names it: ``grid-check``
always compares on a ``spectral`` grid and checks ``--psi`` before it
builds a matrix, ``--s`` (which ``--kind qpb`` does not use) for realness
before it builds a matrix and for periodicity before it discretizes, and
``--a`` and ``--b`` before the exact bracket is computed; an ``oscillator
--csv`` path that cannot be written, refused before the flow and without
creating a file), 3 dimension error, 4 tolerance/verification failure
(``grid-check`` writes its report first), 5 internal error (a bug).  A
closed stdout (the reader of a pipe exited early, as in ``geobracket
verify --json | head``) is not an error: the command stops writing and
exits with its own code and its own stderr message, 0 and nothing when it
succeeds.

``main(argv)`` may be called repeatedly in one process.  The first call
builds the ``argparse`` parser and every later call reuses it; nothing
changes the parser once it is built, so one call leaves no state behind
for the next.

Each command lists its symbolic results once, as ``(JSON key, text label,
value)`` rows; ``_render`` turns every value into its string once, and that
string feeds both the text line and the ``--json`` field.  Commands write
to stdout only through ``_emit``, which writes one of the two forms,
flushes it, and is the one place that handles a closed stdout.
"""

from __future__ import annotations

import argparse
import errno
import functools
import io
import json
import math
import os
import sys
from fractions import Fraction

from .brackets import KINDS, _check, geomutator, qcpb
from .classical import StructureMatrix, dynamics_rhs, gpb, gspb
from .errors import DimensionMismatch, ExprSyntaxError
from .operators import commutator, momentum, position
from .parsing import as_function, lower, max_axis, parse
from .quantum import (
    LAWS,
    Params,
    covariant_rhs,
    gdynamics,
    gen_heisenberg_rhs,
    geomentum,
    harmonic_oscillator,
)
from .scalars import ComplexRational
from .verify import run_identity_suite


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

    verify = sub.add_parser("verify", help="run the randomized identity suite")
    verify.add_argument("--trials", type=_positive_int, default=100)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--dim", type=_positive_int, default=2, help="largest dimension drawn")

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
    oscillator.add_argument("--law", choices=LAWS, default="generalized_heisenberg")
    oscillator.add_argument("--psi", default="exp(i*x1)", help="state for expectations")
    oscillator.add_argument("--csv", default=None, help="write samples to this file")

    grid_check = sub.add_parser(
        "grid-check", help="symbolic-vs-matrix bracket residuals"
    )
    grid_check.add_argument("--s", required=True)
    grid_check.add_argument("--a", required=True)
    grid_check.add_argument("--b", required=True)
    grid_check.add_argument("--n", type=int, default=256)
    grid_check.add_argument("--kind", choices=KINDS, default="qcpb")
    grid_check.add_argument("--tol", type=_tolerance, default=1e-8)
    grid_check.add_argument("--psi", default="exp(i*x1)")

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

    for command in sub.choices.values():
        command.add_argument("--json", action="store_true")
    return parser


def _emit(payload: dict, as_json: bool, lines) -> None:
    """Write the output: the one writer to stdout.

    A closed stdout ends the writing, not the command: the stream is pointed
    at the null device, so the exit-time flush succeeds, and the command goes
    on to its own exit code.
    """
    text = json.dumps(payload, indent=2) if as_json else "\n".join(lines)
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        try:
            fd = sys.stdout.fileno()
        except io.UnsupportedOperation:
            return
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def _render(rows):
    """``(JSON key, text label, value)`` rows as JSON fields and text lines,
    each value rendered once.  A value holding a number longer than Python
    converts to text is refused, naming its row."""
    fields = {}
    for key, label, value in rows:
        try:
            fields[key] = str(value)
        except ValueError:
            raise ValueError(
                f"cannot print {label.rstrip(': ')}: it holds a number of more than "
                f"{sys.get_int_max_str_digits()} digits"
            ) from None
    return fields, [label + fields[key] for key, label, _ in rows]


def cmd_bracket(args) -> int:
    nodes = [parse(args.s), parse(args.a), parse(args.b)]
    dim = args.dim or max(1, *(max_axis(node) + 1 for node in nodes))
    s = as_function(lower(nodes[0], dim))
    a = lower(nodes[1], dim, s)
    b = lower(nodes[2], dim, s)
    if args.kind == "qpb":
        rows = [("total", "qpb: ", commutator(a, b))]
    elif args.kind == "geo":
        rows = [("total", "geomutator: ", geomutator(s, a, b))]
    else:
        report = qcpb(s, a, b)
        rows = [
            ("qpb", "qpb part:        ", report.qpb_part),
            ("geomutator", "geomutator part: ", report.geomutator_part),
            ("total", "total:           ", report.total),
        ]
    fields, lines = _render(rows)
    _emit({"kind": args.kind, **fields}, args.json, lines)
    return 0


def cmd_verify(args) -> int:
    results = run_identity_suite(args.trials, args.seed, args.dim)
    ok = all(r.ok for r in results)
    lines = [f"identity suite: seed={args.seed} trials={args.trials} dim={args.dim}"]
    for r in results:
        name = f"{r.name} ".ljust(40, ".")
        lines.append(f"{name} {r.passed}/{r.trials} {'pass' if r.ok else 'FAIL'}")
    lines.append(f"result: {'PASS' if ok else 'FAIL'} ({len(results)} checks)")
    payload = {
        "seed": args.seed,
        "trials": args.trials,
        "dim": args.dim,
        "checks": [
            {"name": r.name, "passed": r.passed, "trials": r.trials, "ok": r.ok}
            for r in results
        ],
        "ok": ok,
    }
    _emit(payload, args.json, lines)
    return 0 if ok else 4


def _refuse_unwritable_csv(path: str) -> None:
    """Raise ``ValueError``, creating nothing, where ``open(path, "w")`` would fail."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write CSV file {path!r}: {os.strerror(code)}")


def cmd_oscillator(args) -> int:
    from . import grid as grid_mod

    params = Params(hbar=args.hbar, mass=args.m, omega=args.omega)
    nodes = [parse(args.s), parse(args.psi)]
    spec = grid_mod.GridSpec(args.grid, "central2")
    s, psi = (as_function(lower(node, 1)) for node in nodes)
    h = harmonic_oscillator(params)
    x_op = position(1)
    p_op = momentum(1, hbar=params.hbar)
    w = gdynamics(s, h)
    if args.csv:
        _refuse_unwritable_csv(args.csv)
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
    w_grid = grid_mod.discretize(w, spec)
    spectrum = grid_mod.eigenvalues(w_grid)[:8]
    p_geo = grid_mod.discretize(geomentum(s, 0, params), spec)
    hermitian = grid_mod.is_hermitian(p_geo)
    fields, lines = _render([
        ("hamiltonian", "hamiltonian:               ", h.op),
        ("w", "w (flow generator):        ", w),
        ("geomenergy", "geomenergy (i*hbar*w):     ",
         w.scaled(ComplexRational(0, params.hbar))),
        ("covariant_rate_x", "covariant rate of x1:      ", covariant_rhs(s, h, x_op)),
        ("plain_rate_x", "plain rate of x1:          ", gen_heisenberg_rhs(s, h, x_op)),
        ("covariant_rate_p", "covariant rate of p1:      ", covariant_rhs(s, h, p_op)),
        ("plain_rate_p", "plain rate of p1:          ", gen_heisenberg_rhs(s, h, p_op)),
    ])
    lines += [
        f"geomentum Hermitian on grid: {hermitian}",
        "w spectrum (first 8, by real part): "
        + ", ".join(f"{z.real:.6g}{z.imag:+.6g}i" for z in spectrum),
        f"evolution: law={args.law} grid={args.grid} scheme=central2 "
        f"t={args.t:g} steps={args.steps}",
        "note: grid scenario (state, grid, steps) is chosen by this tool.",
    ]
    csv_rows = list(result.csv_lines())
    payload = {
        **fields,
        "geomentum_hermitian": hermitian,
        "w_spectrum": [[z.real, z.imag] for z in spectrum],
        "law": args.law,
        "csv": csv_rows,
    }
    if args.csv:
        try:
            with open(args.csv, "w", encoding="utf-8") as stream:
                stream.writelines(row + "\n" for row in csv_rows)
        except OSError as exc:
            raise ValueError(f"cannot write CSV file {args.csv!r}: {exc.strerror}") from exc
        lines.append(f"csv written: {args.csv}")
        payload["csv_path"] = args.csv
    else:
        lines += csv_rows
    _emit(payload, args.json, lines)
    return 0


def cmd_grid_check(args) -> int:
    from . import grid as grid_mod

    nodes = [parse(args.s), parse(args.a), parse(args.b), parse(args.psi)]
    spec = grid_mod.GridSpec(args.n)
    s = as_function(lower(nodes[0], 1))
    a, b = (lower(node, 1, s) for node in nodes[1:3])
    psi = as_function(lower(nodes[3], 1))
    grid_mod.state(psi, spec)  # refuse a bad state before matrix work
    if args.kind != "qpb":
        _check(s)  # and a non-real s
    # matrix_bracket samples s, a and b: non-periodic input costs no exact bracket
    numeric = grid_mod.matrix_bracket(s, a, b, spec, args.kind)
    if args.kind == "qpb":
        symbolic = commutator(a, b)
    elif args.kind == "geomutator":
        symbolic = geomutator(s, a, b)
    else:
        symbolic = qcpb(s, a, b).total
    report = grid_mod.compare(symbolic, numeric, psi, args.tol)
    fields, lines = _render([("symbolic", f"symbolic {args.kind}: ", symbolic)])
    lines += [
        f"l2 residual (on psi):   {report.l2_residual:.3e}",
        f"spectral-norm residual: {report.spectral_residual:.3e}",
        f"tolerance:              {report.tolerance:.3e}",
        f"status: {'pass' if report.passed else 'FAIL'}",
    ]
    payload = {
        "kind": args.kind,
        **fields,
        "l2_residual": report.l2_residual,
        "spectral_residual": report.spectral_residual,
        "tolerance": report.tolerance,
        "ok": report.passed,
    }
    _emit(payload, args.json, lines)
    if not report.passed:
        print(f"tolerance failure: residuals exceed tolerance {report.tolerance:g}",
              file=sys.stderr)
        return 4
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
    fields, lines = _render([
        ("gpb", "gpb {f,g}:        ", gpb(f, g, j)),
        ("gspb", "gspb {f,g}_s:     ", bracket),
        ("gchs", "gchs rate of f:    ", bracket),
        ("tghs", "tghs rate of f:    ", dynamics_rhs(s, g, f, j)),
        ("sdyn", "s-dynamics w:      ", gpb(s, g, j)),
    ])
    coordinates = f"coordinates: x1..x{pairs} positions, x{pairs + 1}..x{size} momenta"
    _emit({"pairs": pairs, **fields}, args.json, [coordinates, *lines])
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


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ExprSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DimensionMismatch as exc:
        print(f"dimension error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
