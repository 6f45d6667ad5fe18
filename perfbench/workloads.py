"""The benchmark's workloads: op lists made from the seed, and their checks.

Every workload is a fixed list of ops per round; a run repeats rounds.  An op
is timed on its own; its output is judged after the clock stops.

* ``identity-suite``: round ``r`` runs trial ``r`` of every
  ``verify.ALL_CHECKS`` check, drawn with ``trial_rng(seed, name, r)`` at
  ``max_dim = 2``.  The check's verdict is the op's correctness.  This is the
  exact engine at depth; the two Jacobi checks make the latency tail.
* ``dsl-requests``: one in-process ``geobracket.cli.main(argv)`` call per op,
  over a seeded mix of ``bracket`` and ``classical`` requests plus the
  README's examples.  Many small compositions: parsing, printing and per-call
  overhead dominate.  Each distinct request is checked once against an
  independent SymPy evaluation (see :mod:`sympy_dsl`); every op's output must
  equal that checked output byte for byte.
* ``oracle``: ``grid-check`` at n = 512 and 1024 over all three bracket kinds
  on seeded periodic operators, ``oscillator`` flows at grid 64 and 128 under
  both laws, and the README ``grid-check`` example.  Dense linear algebra in
  ``geobracket.grid`` dominates.  An op is correct when it exits 0, the
  comparison passes, and every flow sample is finite.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re

from geobracket import cli, verify
from geobracket.operators import DiffOp
from geobracket.randomized import random_periodic_fn, trial_rng

# README examples, verbatim.  The oscillator one is a known defect (it exits
# 5 with non-finite values); it runs once per oracle run, outside the timed
# loop, and its exit code is reported.
README_BRACKET = (
    ["bracket", "--s", "x1^2", "--a", "d1", "--b", "x1", "--kind", "qcpb"],
    ["bracket", "--s", "0", "--a", "x1", "--b=-i*d1"],
)
README_CLASSICAL = (["classical", "--s", "x1^2", "--f", "x1", "--g", "x2^2"],)
README_GRID_CHECK = (
    ["grid-check", "--s", "exp(i*x1) + exp(-i*x1)", "--a=-i*exp(i*x1)*d1", "--b", "exp(i*x1)"],
)
README_OSCILLATOR = ["oscillator", "--s", "x1^2", "--grid", "64", "--t", "1", "--steps", "200", "--csv", "flow.csv"]


def run_cli(argv):
    """``cli.main(argv)`` with stdout and stderr captured: (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


class Op:
    """One request: ``call()`` is timed, ``judge(result)`` is not."""

    __slots__ = ("label", "call", "judge")

    def __init__(self, label, call, judge):
        self.label = label
        self.call = call
        self.judge = judge


# -- identity-suite --------------------------------------------------------------


class IdentitySuite:
    name = "identity-suite"
    tail_pct = 90
    trace_rounds = 20
    max_dim = 2

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.checks = verify.ALL_CHECKS
        if smoke:
            self.trace_rounds = 2

    def round(self, index: int):
        return [self._op(name, check, index) for name, check in self.checks]

    def _op(self, name, check, index):
        seed, max_dim = self.seed, self.max_dim

        def call():
            return check(trial_rng(seed, name, index), max_dim)

        return Op(name, call, lambda verdict: None if verdict is True else "check returned False")

    def warm_up(self):
        # One trial of every check from a fixed seed, so that set-up time
        # does not depend on how heavy the run's own first draws are.
        for name, check in self.checks:
            check(trial_rng(0, name, 0), self.max_dim)

    def validate(self):
        return {}


# -- dsl-requests ----------------------------------------------------------------

# The request mix is a fixed table of request shapes (command, kind, dim,
# output format, whether an exponent of 20-40 appears); the seed draws the
# scalars, exponents, axes and exponential factors that fill each shape.  A
# fixed table keeps the cost of a round alike across seeds.
_SCALARS = ("", "2*", "3/2*", "1/3*", "i*", "2i*", "(1/2 + i)*", "5/4*", "1/2i*")
_BRACKET_SHAPES = [
    (kind, dim, b_order, big, as_json)
    for kind in ("qpb", "geo", "qcpb")
    for dim in (1, 2)
    for b_order in (1, 2)
    for big in (False, True)
    for as_json in (False, True)
]
_CLASSICAL_SHAPES = [
    (pairs, big, as_json) for pairs in (1, 2) for big in (False, True) for as_json in (False, True)
]
_DRAWS_PER_BRACKET_SHAPE = 2
_DRAWS_PER_CLASSICAL_SHAPE = 2


def _joined(rng, terms):
    text = terms[0]
    for term in terms[1:]:
        text += rng.choice((" + ", " - ")) + term
    return text


def _power(name, power):
    return name if power == 1 else f"{name}^{power}"


def _coefficient(rng, dim, big):
    """Factors of one coefficient: monomial, maybe an exponential."""
    factors = []
    for axis in range(1, dim + 1):
        power = rng.randint(0, 2)
        if power:
            factors.append(_power(f"x{axis}", power))
    if big:
        factors.append(_power(f"x{rng.randint(1, dim)}", rng.randint(20, 40)))
    if rng.random() < 0.25:
        factors.append(f"exp({rng.choice(('', '-'))}i*x{rng.randint(1, dim)})")
    return factors


def _operator_text(rng, dim, orders, big):
    """One term per entry of ``orders``; a derivative sometimes comes first,
    so that lowering composes it with its coefficient."""
    terms = []
    for number, order in enumerate(orders):
        coefficient = _coefficient(rng, dim, big and number == 0)
        derivative = [_power(f"d{rng.randint(1, dim)}", order)] if order else []
        if derivative and rng.random() < 0.25:
            factors = derivative + coefficient
        else:
            factors = coefficient + derivative
        terms.append(rng.choice(_SCALARS) + "*".join(factors) if factors else rng.choice(("1", "2", "i")))
    return _joined(rng, terms)


def _real_function_text(rng, dim):
    terms = []
    for _ in range(2):
        factors = [_power(f"x{axis}", rng.randint(1, 3)) for axis in range(1, dim + 1)
                   if rng.random() < 0.7]
        scalar = rng.choice(("", "2*", "1/2*", "3/4*"))
        terms.append(scalar + "*".join(factors) if factors else rng.choice(("1", "2", "1/3")))
    if rng.random() < 0.25:
        terms.append("(exp(i*x1) + exp(-i*x1))")
    return _joined(rng, terms)


def _bracket_request(rng, kind, dim, b_order, big, as_json):
    s = _real_function_text(rng, dim)
    a = _operator_text(rng, dim, (1, 0), big)
    b = _operator_text(rng, dim, (b_order,), False)
    argv = ["bracket", "--s", s, f"--a={a}", f"--b={b}", "--kind", kind]
    if dim == 2 and rng.random() < 0.5:
        argv += ["--dim", "2"]
    return argv + (["--json"] if as_json else [])


def _polynomial_text(rng, size, big):
    terms = []
    for number in range(2):
        factors = [_power(f"x{axis}", rng.randint(1, 3)) for axis in range(1, size + 1)
                   if rng.random() < 0.5]
        if big and number == 0:
            factors.append(_power(f"x{rng.randint(1, size)}", rng.randint(20, 40)))
        scalar = rng.choice(("", "2*", "1/2*", "3/4*"))
        terms.append(scalar + "*".join(factors) if factors else "1")
    return _joined(rng, terms)


def _classical_request(rng, pairs, big, as_json):
    argv = ["classical"]
    for flag in ("--s", "--f", "--g"):
        argv += [flag, _polynomial_text(rng, 2 * pairs, big and flag == "--f")]
    return argv + (["--json"] if as_json else [])


def _option(argv, flag):
    for index, item in enumerate(argv):
        if item == flag:
            return argv[index + 1]
        if item.startswith(flag + "="):
            return item[len(flag) + 1 :]
    return None


def _max_index(*texts) -> int:
    """Largest coordinate or derivative index mentioned (0 if none)."""
    found = [int(n) for text in texts for n in re.findall(r"\b[xd](\d+)\b", text)]
    return max(found, default=0)


def _request_dim(argv) -> int:
    """Coordinate count of a request, as the CLI infers it."""
    if argv[0] == "bracket":
        texts = [_option(argv, flag) for flag in ("--s", "--a", "--b")]
        return max(int(_option(argv, "--dim") or 0), _max_index(*texts), 1)
    texts = [_option(argv, flag) for flag in ("--s", "--f", "--g")]
    return 2 * ((max(_max_index(*texts), 1) + 1) // 2)


def _outputs(stdout, argv):
    """Named output expressions of a ``bracket`` or ``classical`` request."""
    if "--json" in argv:
        payload = json.loads(stdout)
        payload.pop("kind", None)
        payload.pop("pairs", None)
        return payload
    names = {
        "qpb": "qpb", "geomutator": "geo", "qpb part": "qpb", "geomutator part": "geomutator",
        "total": "total", "gpb {f,g}": "gpb", "gspb {f,g}_s": "gspb", "gchs rate of f": "gchs",
        "tghs rate of f": "tghs", "s-dynamics w": "sdyn",
    }
    found = {}
    for line in stdout.splitlines():
        head, sep, value = line.partition(":")
        if sep and head.strip() in names:
            found[names[head.strip()]] = value.strip()
    if argv[0] == "bracket" and "total" not in found:
        for key in ("qpb", "geo"):
            if key in found:
                found["total"] = found.pop(key)
    return found


# SymPy is imported inside the checks only, so that set-up time measures the
# program and not the checker.


def check_bracket(argv, stdout):
    """Problems with a ``bracket`` output, judged by SymPy; empty if none."""
    import sympy_dsl

    s, a, b = _option(argv, "--s"), _option(argv, "--a"), _option(argv, "--b")
    kind = _option(argv, "--kind") or "qcpb"
    xs = sympy_dsl.coordinates(_request_dim(argv))
    f, expected, plain, correction = sympy_dsl.bracket_action(kind, s, a, b, xs)
    outputs = _outputs(stdout, argv)
    wanted = {"total": expected}
    if kind == "qcpb":
        wanted.update({"qpb": plain, "geomutator": correction})
    problems = []
    for key, value in wanted.items():
        if key not in outputs:
            problems.append(f"missing {key}")
        elif not sympy_dsl.same(sympy_dsl.operator(outputs[key], xs)(f), value):
            problems.append(f"{key} disagrees with SymPy")
    return problems


def check_classical(argv, stdout):
    """Problems with a ``classical`` output, judged by SymPy; empty if none."""
    import sympy_dsl

    texts = [_option(argv, flag) for flag in ("--s", "--f", "--g")]
    pairs = _request_dim(argv) // 2
    xs = sympy_dsl.coordinates(2 * pairs)
    s, f, g = (sympy_dsl.function(text, xs) for text in texts)

    def pb(u, v):
        return sympy_dsl.poisson(u, v, xs, pairs)

    wanted = {
        "gpb": pb(f, g),
        "gspb": pb(f, g) + f * pb(s, g) - g * pb(s, f),
        "gchs": pb(f, g) + f * pb(s, g) - g * pb(s, f),
        "tghs": pb(f, g) - g * pb(s, f),
        "sdyn": pb(s, g),
    }
    outputs = _outputs(stdout, argv)
    problems = []
    for key, value in wanted.items():
        if key not in outputs:
            problems.append(f"missing {key}")
        elif not sympy_dsl.same(sympy_dsl.function(outputs[key], xs), value):
            problems.append(f"{key} disagrees with SymPy")
    return problems


def check_round_trip(text, dim, s_text=None):
    """Program parse -> print -> parse of ``text``: the printed form must
    denote the same operator (by SymPy) and print back to itself."""
    import sympy as sp
    import sympy_dsl
    from geobracket.parsing import parse_function, parse_operator

    structure = parse_function(s_text, dim) if s_text else None
    printed = str(parse_operator(text, dim, structure))
    again = str(parse_operator(printed, dim, structure))
    xs = sympy_dsl.coordinates(dim)
    s_expr = sympy_dsl.function(s_text, xs) if s_text else None
    f = sp.Function("f")(*xs)
    problems = []
    if again != printed:
        problems.append(f"reprint of {text!r} changed")
    if not sympy_dsl.same(
        sympy_dsl.operator(printed, xs, s_expr)(f), sympy_dsl.operator(text, xs, s_expr)(f)
    ):
        problems.append(f"printed form of {text!r} disagrees with SymPy")
    return problems


class DslRequests:
    name = "dsl-requests"
    tail_pct = 90
    trace_rounds = 4

    def __init__(self, seed: int, smoke: bool = False):
        rng = random.Random(f"dsl-requests/{seed}")
        bracket_draws, classical_draws = _DRAWS_PER_BRACKET_SHAPE, _DRAWS_PER_CLASSICAL_SHAPE
        bracket_shapes, classical_shapes = _BRACKET_SHAPES, _CLASSICAL_SHAPES
        if smoke:
            bracket_draws = classical_draws = 1
            bracket_shapes, classical_shapes = bracket_shapes[::12], classical_shapes[::4]
        requests = [_bracket_request(rng, *shape)
                    for shape in bracket_shapes for _ in range(bracket_draws)]
        requests += [_classical_request(rng, *shape)
                     for shape in classical_shapes for _ in range(classical_draws)]
        requests += [list(argv) for argv in README_BRACKET + README_CLASSICAL]
        rng.shuffle(requests)
        self.requests = requests
        self.reference = {}

    def round(self, index: int):
        return [self._op(number, argv) for number, argv in enumerate(self.requests)]

    def _op(self, number, argv):
        def judge(result):
            code, out, err = result
            if code != 0:
                return f"exit {code}: {err.strip()[:200]}"
            if out != self.reference[number]:
                return "output differs from the checked output"
            return None

        return Op(argv[0], lambda: run_cli(argv), judge)

    def warm_up(self):
        for number, argv in enumerate(self.requests):
            code, out, _ = run_cli(argv)
            self.reference[number] = out if code == 0 else None

    def validate(self):
        """SymPy check of every distinct request: {request number: problems}."""
        problems = {}
        for number, argv in enumerate(self.requests):
            out = self.reference[number]
            if out is None:
                continue  # failed ops are already counted by judge
            dim = _request_dim(argv)
            if argv[0] == "bracket":
                found = check_bracket(argv, out)
                s, a, b = (_option(argv, flag) for flag in ("--s", "--a", "--b"))
                found += check_round_trip(s, dim)
                for text in (a, b):
                    found += check_round_trip(text, dim, s)
            else:
                found = check_classical(argv, out)
                for flag in ("--s", "--f", "--g"):
                    found += check_round_trip(_option(argv, flag), dim)
            for text in _outputs(out, argv).values():
                found += check_round_trip(text, dim)
            if found:
                problems[number] = found
        return problems


# -- oracle ------------------------------------------------------------------------

_LAWS = ("generalized_heisenberg", "covariant")


# Derivative orders of the grid-check operands.  The cost of discretizing
# an operator grows with its orders (each order is a dense matrix power), so
# the orders are fixed and the seed draws the periodic coefficients, as in
# ``random_periodic_diff_op``.
_GRID_CHECK_A_ORDERS = (1, 0)
_GRID_CHECK_B_ORDERS = (2, 0)


def _periodic_op(rng, orders):
    return DiffOp(1, {(order,): random_periodic_fn(rng, max_freq=2, max_terms=2) for order in orders})


def _flow_structure_fn(rng):
    """A weak structure function: amplitude <= 1/5, as the flows need."""
    amplitude = rng.choice(("1/5", "1/10", "1/20"))
    k = rng.choice(("", "2*"))
    text = f"{amplitude}*exp({k}i*x1) + {amplitude}*exp(-{k}i*x1)"
    slope = rng.choice(("", "1/10", "1/5"))
    return text + (f" + {slope}*x1" if slope else "")


def _judge_oracle(argv):
    def judge(result):
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()[:200]}"
        if "--json" not in argv:
            return None if "status: pass" in out else "no pass status"
        payload = json.loads(out)
        if argv[0] == "grid-check":
            return None if payload["ok"] is True else "comparison failed"
        rows = [row.split(",") for row in payload["csv"][1:]]
        if not rows or not all(math.isfinite(float(v)) for row in rows for v in row):
            return "non-finite flow sample"
        return None

    return judge


class Oracle:
    name = "oracle"
    tail_pct = 75
    trace_rounds = 1

    def __init__(self, seed: int, smoke: bool = False):
        rng = random.Random(f"oracle/{seed}")
        sizes, grids, steps = ((64, 128), (32,), "20") if smoke else ((512, 1024), (64, 128), "200")
        requests = []
        for n in sizes:
            for kind in ("qpb", "geomutator", "qcpb"):
                s = random_periodic_fn(rng, real=True)
                a = _periodic_op(rng, _GRID_CHECK_A_ORDERS)
                b = _periodic_op(rng, _GRID_CHECK_B_ORDERS)
                requests.append(
                    ["grid-check", f"--s={s}", f"--a={a}", f"--b={b}", "--n", str(n),
                     "--kind", kind, "--json"]
                )
        for grid in grids:
            for law in _LAWS:
                requests.append(
                    ["oscillator", f"--s={_flow_structure_fn(rng)}", "--grid", str(grid),
                     "--t", "1", "--steps", steps, "--law", law, "--json"]
                )
        requests += [list(argv) for argv in README_GRID_CHECK]
        rng.shuffle(requests)
        self.requests = requests

    def round(self, index: int):
        return [
            Op(argv[0], lambda argv=argv: run_cli(argv), _judge_oracle(argv))
            for argv in self.requests
        ]

    def warm_up(self):
        # The smallest request of each command; the full round is too slow
        # to repeat in every set-up.
        run_cli(README_GRID_CHECK[0])
        run_cli(["oscillator", "--s", "0", "--grid", "32", "--steps", "10", "--json"])

    def probe_known_defects(self):
        """Run the README oscillator example verbatim; report its exit code."""
        code, _, err = run_cli(README_OSCILLATOR)
        return [{"argv": README_OSCILLATOR, "exit": code, "stderr": err.strip()[:200]}]

    def validate(self):
        return {}


WORKLOADS = {cls.name: cls for cls in (IdentitySuite, DslRequests, Oracle)}
