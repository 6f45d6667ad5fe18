"""DSL parsing, lowering, and print/parse round-trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geobracket.errors import DimensionMismatch, ExprSyntaxError
from geobracket.functions import exponential, monomial, one
from geobracket.operators import (
    compose,
    identity,
    mult,
    partial_d,
    position,
    scalar_op,
)
from geobracket.parsing import (
    MAX_DEPTH,
    Scalar,
    lower,
    max_axis,
    parse,
    parse_function,
    parse_operator,
)
from geobracket.randomized import random_diff_op, trial_rng
from geobracket.scalars import ComplexRational

I = ComplexRational(0, 1)


@pytest.mark.parametrize(
    "text, value",
    [
        ("0", ComplexRational()),
        ("3", ComplexRational(3)),
        ("3/2", ComplexRational(Fraction(3, 2))),
        ("i", I),
        ("2i", ComplexRational(0, 2)),
        ("1/2i", ComplexRational(0, Fraction(1, 2))),
    ],
)
def test_scalar_literals(text, value):
    node = parse(text)
    assert isinstance(node, Scalar)
    assert node.value == value


def test_wave_operator_expression():
    op = parse_operator("-i*exp(i*x1)*d1")
    expected = mult(exponential(1, (I,))).scaled(-I) * partial_d(1)
    assert op == expected


def test_position_expression():
    assert parse_operator("x1") == position(1)


def test_commutator_expression_lowers_to_identity():
    assert parse_operator("d1*x1 - x1*d1") == identity(1)


def test_precedence_and_parentheses():
    assert parse_operator("1 + 2*x1^2") == identity(1) + mult(monomial(1, (2,), 2))
    assert parse_operator("(1 + x1)^2") == compose(
        identity(1) + position(1), identity(1) + position(1)
    )


def test_power_of_derivative():
    assert parse_operator("d1^3") == partial_d(1, 0, 3)
    assert parse_operator("d1^0") == identity(1)


def test_multi_coordinate_inference():
    op = parse_operator("x2*d1")
    assert op.dim == 2
    assert op == compose(position(2, 1), partial_d(2, 0))


def test_exp_with_multi_axis_argument():
    op = parse_operator("exp(i*x1 + 2*x2)")
    assert op == mult(exponential(2, (I, ComplexRational(2))))


def test_exp_rejects_nonlinear_argument():
    with pytest.raises(ExprSyntaxError):
        parse_operator("exp(x1^2)")
    with pytest.raises(ExprSyntaxError):
        parse_operator("exp(d1)")
    with pytest.raises(ExprSyntaxError):
        parse_operator("exp(1 + x1)")


def test_structure_preset():
    s = monomial(1, (2,))
    assert parse_operator("s", dim=1, structure_fn=s) == mult(s)
    assert parse_operator("s*d1", dim=1, structure_fn=s) == compose(
        mult(s), partial_d(1)
    )
    with pytest.raises(ExprSyntaxError):
        parse_operator("s")


def test_unary_minus_and_signs():
    assert parse_operator("-x1") == position(1).scaled(-1)
    assert parse_operator("1 - (-1)") == scalar_op(1, 2)
    with pytest.raises(ExprSyntaxError):
        parse("1 - -1")  # a sign is not a term


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError) as excinfo:
        parse("x1 + foo")
    assert "foo" in str(excinfo.value)
    assert excinfo.value.column == 6


@pytest.mark.parametrize("name", ["x1a", "d2x", "a0a"])
def test_letters_after_digits_are_an_unknown_identifier(name):
    with pytest.raises(ExprSyntaxError, match=f"unknown identifier '{name}'") as excinfo:
        parse(f"x1 + {name}")
    assert excinfo.value.column == 6


@settings(derandomize=True, deadline=None, max_examples=500)
@given(st.text(alphabet="xdesip0123456789/+-*^() a", max_size=24))
def test_parse_returns_a_node_or_raises_a_syntax_error(text):
    try:
        node = parse(text)
    except ExprSyntaxError:
        return
    assert max_axis(node) >= -1


def test_juxtaposition_is_not_multiplication():
    with pytest.raises(ExprSyntaxError):
        parse("d1 x1")


def test_syntax_error_positions():
    with pytest.raises(ExprSyntaxError) as excinfo:
        parse("(x1 + ")
    assert excinfo.value.line == 1
    with pytest.raises(ExprSyntaxError) as excinfo:
        parse("x1 + * 2")
    assert excinfo.value.column == 6
    with pytest.raises(ExprSyntaxError) as excinfo:
        parse("x1 +\n  * 2")
    assert (excinfo.value.line, excinfo.value.column) == (2, 3)
    assert str(excinfo.value) == (
        "unexpected '*' (line 2, column 3); expected one of: number, identifier, ("
    )


@pytest.mark.parametrize(
    "text",
    [
        "(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH,
        "x1" + "^1" * MAX_DEPTH,
        "(" * (MAX_DEPTH // 2) + "x1" + ")^1" * (MAX_DEPTH // 2),
    ],
    ids=["parentheses", "powers", "parenthesized-powers"],
)
def test_nesting_at_the_limit_parses_and_one_more_level_does_not(text):
    assert parse_operator(text) == position(1)
    for deeper in ("(" + text + ")", text + "^1"):
        with pytest.raises(ExprSyntaxError, match=f"nested deeper than {MAX_DEPTH} levels"):
            parse(deeper)


def test_parse_function_rejects_derivatives():
    with pytest.raises(ExprSyntaxError):
        parse_function("d1")
    assert parse_function("x1^2 + 1") == monomial(1, (2,)) + one(1)


def test_dimension_override_mismatch():
    with pytest.raises(DimensionMismatch):
        parse_operator("x3", dim=2)


@pytest.mark.parametrize("text", ["x1^3/2", "x1^2i"])
def test_exponent_must_be_a_non_negative_integer(text):
    with pytest.raises(ExprSyntaxError, match="exponent must be a non-negative integer") as excinfo:
        parse(f"x1 + {text}")
    assert excinfo.value.column == 9


def test_structure_function_of_another_dimension_is_refused():
    with pytest.raises(DimensionMismatch, match="structure function dimension"):
        lower(parse("s*d1"), 2, monomial(1, (1,)))


@pytest.mark.parametrize(
    "text",
    [
        "0",
        "1",
        "-1",
        "i",
        "-i",
        "3/2",
        "x1",
        "d1",
        "x1^2*d1",
        "exp(i*x1)",
        "exp(-i*x1)",
        "exp(i*x1 + 2*x2)",
        "(3/2 + 1/2*i)*x1^2*exp(i*x1)",
        "1 + 2*x1^2",
        "-2*x1*d1^2 + i*d2",
        "(1 + 2*x1)*d1",
    ],
)
def test_fixed_round_trips(text):
    op = parse_operator(text)
    assert parse_operator(str(op), dim=op.dim) == op


@pytest.mark.parametrize("index", range(60))
def test_random_round_trips(index):
    rng = trial_rng(51, "roundtrip", index)
    dim = rng.randint(1, 3)
    op = random_diff_op(rng, dim)
    assert parse_operator(str(op), dim=dim) == op


def test_rendering_is_deterministic():
    rng = trial_rng(51, "determinism", 0)
    op = random_diff_op(rng, 2)
    rebuilt = parse_operator(str(op), dim=2)
    assert str(rebuilt) == str(op)


@pytest.mark.parametrize(
    "base_text, dim",
    [("x1", 1), ("d1", 1), ("x1 + d1", 1), ("exp(i*x1)*d2", 2)],
)
def test_power_equals_repeated_composition(base_text, dim):
    base = parse_operator(base_text, dim)
    expected = identity(dim)
    for k in range(13):
        assert parse_operator(f"({base_text})^{k}", dim) == expected, k
        expected = compose(expected, base)
