"""DSL parsing, lowering, and print/parse round-trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geobracket.errors import DimensionMismatch, ExprSyntaxError
from geobracket.functions import const, coord, exponential, monomial, one
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
    Coord,
    Diff,
    Exp,
    Negate,
    Power,
    Preset,
    Product,
    Scalar,
    Sum,
    as_function,
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


def test_nodes_compare_by_type_and_fields():
    assert parse("x1*d1") == Product((Coord(0), Diff(0)))
    assert hash(parse("x1")) == hash(Coord(0))
    assert Coord(0) != Diff(0)
    assert repr(parse("-x1^2")) == "Negate(node=Power(base=Coord(axis=0), exponent=2))"


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


# -- lowering against composition of multiplication operators ------------------
#
# ``reference_lower`` is lowering as a chain of operators: every leaf is an
# operator, a product composes, a power squares compositions.  ``lower``
# stays in function space until a derivative appears; both must build the
# same operator with the same insertion order of every key, because the
# grid oracle sums terms in that order.


def reference_lower(node, dim, structure_fn=None):
    """Lowering by ``mult``, ``compose``, ``+`` and ``scaled`` alone."""
    if isinstance(node, Scalar):
        return mult(const(dim, node.value))
    if isinstance(node, Coord):
        return mult(coord(dim, node.axis))
    if isinstance(node, Diff):
        return partial_d(dim, node.axis)
    if isinstance(node, Preset):
        return mult(structure_fn)
    if isinstance(node, Exp):
        inner = as_function(reference_lower(node.argument, dim, structure_fn))
        freqs = [ComplexRational()] * dim
        for (nu, _), coeff in inner.terms.items():
            freqs[nu.index(1)] = freqs[nu.index(1)] + coeff
        return mult(exponential(dim, freqs))
    if isinstance(node, Negate):
        return reference_lower(node.node, dim, structure_fn).scaled(-1)
    if isinstance(node, Sum):
        out = reference_lower(node.addends[0], dim, structure_fn)
        for child in node.addends[1:]:
            out = out + reference_lower(child, dim, structure_fn)
        return out
    if isinstance(node, Product):
        out = reference_lower(node.factors[0], dim, structure_fn)
        for child in node.factors[1:]:
            out = compose(out, reference_lower(child, dim, structure_fn))
        return out
    assert isinstance(node, Power)
    base, exponent, out = reference_lower(node.base, dim, structure_fn), node.exponent, None
    while exponent:
        if exponent & 1:
            out = base if out is None else compose(out, base)
        exponent >>= 1
        if exponent:
            base = compose(base, base)
    return identity(dim) if out is None else out


_LITERALS = ("2", "3/2", "(-1)", "i", "2i", "1/2i", "(1/2 + i)", "(2 - 3/4*i)", "0")
_FREQUENCIES = ("", "2*", "3/4*", "i*", "2i*", "(1 + i)*", "(1/2 - 2*i)*")


def _draw_exp(rng, dim):
    """``exp`` of a linear form with integer, fractional and complex frequencies."""
    form = rng.choice(("", "-"))
    for number, axis in enumerate(rng.sample(range(1, dim + 1), rng.randint(1, dim))):
        form += (rng.choice((" + ", " - ")) if number else "") + rng.choice(_FREQUENCIES) + f"x{axis}"
    return f"exp({form})"


def _draw_atom(rng, dim):
    axis = rng.randint(1, dim)
    return rng.choice(
        (f"x{axis}", f"x{axis}", f"d{axis}", f"d{axis}", rng.choice(_LITERALS), "s",
         _draw_exp(rng, dim))
    )


def _draw_function_term(rng, dim):
    """A one-term function: a scalar, monomial and exponential, all optional."""
    factors = [rng.choice(_LITERALS[:-1])] if rng.random() < 0.5 else []
    factors += [f"x{axis}^{rng.randint(1, 3)}" for axis in range(1, dim + 1) if rng.random() < 0.5]
    if rng.random() < 0.4:
        factors.append(_draw_exp(rng, dim))
    return "*".join(factors) or f"x{rng.randint(1, dim)}"


def _draw_power(rng, dim, budget):
    """A power of a one-term, multi-term or operator base.  At most one
    power per text (``budget``) of a multi-term or operator base goes past 3,
    so that every text lowers in milliseconds."""
    shape = rng.randrange(3)
    if shape == 0:
        base = _draw_function_term(rng, dim)
    elif shape == 1:
        base = f"{_draw_function_term(rng, dim)} {rng.choice('+-')} {_draw_function_term(rng, dim)}"
    else:
        axis = rng.randint(1, dim)
        base = rng.choice((f"x{axis} + d{axis}", f"d{axis}*x{axis}", f"d{axis}", f"i*d{axis} - 1"))
    top = 3
    if shape == 0 or budget[0]:
        top = 40
        budget[0] -= shape != 0
    return f"({base})^{rng.randint(0, top)}"


def _draw_factor(rng, dim, budget, nested):
    roll = rng.random()
    if roll < 0.25:
        return _draw_power(rng, dim, budget)
    if roll < 0.4 and not nested:
        return f"({_draw_text(rng, dim, budget, nested=True)})"
    return _draw_atom(rng, dim)


def _draw_text(rng, dim, budget=None, nested=False):
    """One to three signed terms of one to three factors each."""
    budget = [1] if budget is None else budget
    text = ""
    for number in range(rng.randint(1, 3)):
        factors = [_draw_factor(rng, dim, budget, nested) for _ in range(rng.randint(1, 3))]
        text += (rng.choice(("", "-")) if number == 0 else rng.choice((" + ", " - ")))
        text += "*".join(factors)
    return text


def _layout(op):
    """Every key and value of ``op`` in insertion order."""
    return [(alpha, list(coeff.terms.items())) for alpha, coeff in op.terms.items()]


@pytest.mark.parametrize("index", range(240))
def test_lowering_matches_composition_of_operators(index):
    rng = trial_rng(27, "lowering", index)
    dim = 1 + index % 3
    text = _draw_text(rng, dim)
    structure_fn = parse_function(" + ".join(f"x{axis}^2" for axis in range(1, dim + 1)), dim)
    node = parse(text)
    got = lower(node, dim, structure_fn)
    expected = reference_lower(node, dim, structure_fn)
    assert got == expected, text
    assert _layout(got) == _layout(expected), text


@pytest.mark.parametrize(
    "text",
    ["d1*x1^2", "x1^2*d1", "(x1 + d1)^3", "(2*x1*exp(i*x1))^37", "(x1 + 1)^40", "-(s*d1)^2"],
)
def test_lowering_matches_composition_on_fixed_texts(text):
    structure_fn = parse_function("x1^2 + 1", 1)
    node = parse(text)
    got = lower(node, 1, structure_fn)
    expected = reference_lower(node, 1, structure_fn)
    assert _layout(got) == _layout(expected)
