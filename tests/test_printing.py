"""The DSL text form: exact renderings and print/parse round-trips."""

import random
from fractions import Fraction

import pytest

from geobracket.functions import CoefFn
from geobracket.operators import DiffOp
from geobracket.parsing import parse_function, parse_operator
from geobracket.printing import format_coef_fn, format_diff_op, format_scalar
from geobracket.scalars import ComplexRational

C = ComplexRational
F = Fraction


@pytest.mark.parametrize(
    "value, text",
    [
        (C(), "0"),
        (C(1), "1"),
        (C(-1), "-1"),
        (C(0, 1), "i"),
        (C(0, -1), "-i"),
        (C(F(3, 2)), "3/2"),
        (C(0, F(-3, 2)), "-3/2*i"),
        (C(0, 2), "2*i"),
        (C(1, 1), "1 + i"),
        (C(1, -1), "1 - i"),
        (C(-1, 1), "-1 + i"),
        (C(-1, -1), "-1 - i"),
        (C(F(-1, 2), F(-3, 2)), "-1/2 - 3/2*i"),
        (C(2, F(-1, 3)), "2 - 1/3*i"),
    ],
)
def test_scalar_text(value, text):
    assert format_scalar(value) == str(value) == text


# (input, dim, canonical text).  The inputs are parsed, so the table pins
# the printer's choices: sign folding, parentheses and term order.
_OPERATOR_TEXT = [
    # bare scalars: a mixed one is parenthesised only beside other terms
    ("0", 1, "0"),
    ("1", 1, "1"),
    ("-1", 1, "-1"),
    ("i", 1, "i"),
    ("-i", 1, "-i"),
    ("1 + i", 1, "1 + i"),
    ("-1/2 - 3/2*i", 1, "-1/2 - 3/2*i"),
    ("(1 + i) + d1", 1, "(1 + i) + d1"),
    ("(-1 - i) + x1*d1", 1, "(-1 - i) + x1*d1"),
    ("(2 - i) - d1^2", 1, "(2 - i) - d1^2"),
    ("-1 + d1", 1, "-1 + d1"),
    ("1 - d1", 1, "1 - d1"),
    ("i - i*d1", 1, "i - i*d1"),
    # scalar coefficients on d^alpha
    ("d1", 1, "d1"),
    ("-d1", 1, "-d1"),
    ("i*d1", 1, "i*d1"),
    ("-i*d2", 2, "-i*d2"),
    ("3/2*d1", 1, "3/2*d1"),
    ("(1 + i)*d1", 1, "(1 + i)*d1"),
    ("(-1/2 - i)*d1^2*d2", 2, "(-1/2 - i)*d1^2*d2"),
    ("x1*d1", 1, "x1*d1"),
    ("-x1^2*d1", 1, "-x1^2*d1"),
    ("(1 - i)*x1*exp(i*x1)*d1", 1, "(1 - i)*x1*exp(i*x1)*d1"),
    ("-2*x1*d1^2 + i*d2", 2, "i*d2 - 2*x1*d1^2"),
    # multi-term coefficients at d^0 and d^alpha
    ("1 + x1", 1, "1 + x1"),
    ("(1 + x1)*d1", 1, "(1 + x1)*d1"),
    ("(1 + x1) + d1", 1, "(1 + x1) + d1"),
    ("(1 + i + x1)*d1", 1, "(1 + i + x1)*d1"),
    ("1 + i + x1 + d1", 1, "(1 + i + x1) + d1"),
    (
        "(x1 - i*x2)*d1*d2 + (x2^2 + 1)*d2 + (1 + exp(x1))",
        2,
        "(1 + exp(x1)) + (1 + x2^2)*d2 + (-i*x2 + x1)*d1*d2",
    ),
    # exponents: +-1, +-i, real, fractional and mixed frequencies
    ("exp(x1)", 1, "exp(x1)"),
    ("exp(-x1)", 1, "exp(-x1)"),
    ("exp(i*x1)", 1, "exp(i*x1)"),
    ("exp(-i*x1)", 1, "exp(-i*x1)"),
    ("exp(2*x1)", 1, "exp(2*x1)"),
    ("exp(2*i*x1)", 1, "exp(2*i*x1)"),
    ("exp(1/2*x1)", 1, "exp(1/2*x1)"),
    ("exp(-3/2*x1)", 1, "exp(-3/2*x1)"),
    ("exp((1 + i)*x1)", 1, "exp((1 + i)*x1)"),
    ("exp((-1/2 - i)*x1)", 1, "exp((-1/2 - i)*x1)"),
    ("exp(x1 - i*x2)", 2, "exp(x1 - i*x2)"),
    ("-x1*exp(i*x2)*d1", 2, "-x1*exp(i*x2)*d1"),
    ("exp(-x1 + (1 - 2*i)*x2 + 1/3*x3)", 3, "exp(-x1 + (1 - 2*i)*x2 + 1/3*x3)"),
    ("exp(-i*x1 + x3)*d2^3", 3, "exp(-i*x1 + x3)*d2^3"),
]


@pytest.mark.parametrize("source, dim, text", _OPERATOR_TEXT)
def test_operator_text(source, dim, text):
    op = parse_operator(source, dim=dim)
    assert format_diff_op(op) == str(op) == text


@pytest.mark.parametrize(
    "source, dim, text",
    [
        ("0", 2, "0"),
        ("x1^2 - 2*x1*x2 + (1 + i)*x2^2", 2, "(1 + i)*x2^2 - 2*x1*x2 + x1^2"),
        ("1 + i + x1", 1, "1 + i + x1"),
        ("-1 - i + x1", 1, "-1 - i + x1"),
        ("exp(i*x1) - exp(-i*x1)", 1, "-exp(-i*x1) + exp(i*x1)"),
    ],
)
def test_function_text(source, dim, text):
    f = parse_function(source, dim=dim)
    assert format_coef_fn(f) == str(f) == text


# Random operators whose frequencies have real parts, which
# ``random_diff_op`` never draws.
_PARTS = [F(n, d) for n in range(-3, 4) for d in (1, 2, 3)]


def _scalar(rng):
    re, im = rng.choice(_PARTS), rng.choice(_PARTS)
    return C(*rng.choice([(re, 0), (0, im), (re, im), (1, 0), (-1, 0), (0, 1), (0, -1)]))


def _coef_fn(rng, dim):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        nu = tuple(rng.choice((0, 0, 1, 2)) for _ in range(dim))
        kappa = tuple(_scalar(rng) if rng.random() < 0.5 else C() for _ in range(dim))
        terms[nu, kappa] = _scalar(rng)
    return CoefFn(dim, terms)


@pytest.mark.parametrize("index", range(40))
def test_round_trip_with_real_frequencies(index):
    rng = random.Random(f"printing-round-trip/{index}")
    for _ in range(10):
        dim = rng.randint(1, 3)
        terms = {
            tuple(rng.choice((0, 0, 1, 2)) for _ in range(dim)): _coef_fn(rng, dim)
            for _ in range(rng.randint(1, 4))
        }
        op = DiffOp(dim, terms)
        assert parse_operator(str(op), dim=dim) == op
