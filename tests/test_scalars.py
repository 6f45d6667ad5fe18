"""Field arithmetic and rendering of exact complex rationals."""

import copy
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from geobracket.functions import coord, exponential
from geobracket.operators import mult, partial_d
from geobracket.printing import format_scalar, scalar_needs_parens
from geobracket.scalars import ONE, ComplexRational, as_fraction

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
scalars = st.builds(ComplexRational, rationals, rationals)


@given(scalars, scalars)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(scalars, scalars, scalars)
def test_addition_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(scalars, scalars, scalars)
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(scalars, scalars, scalars)
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(scalars)
def test_additive_inverse(a):
    assert not (a + (-a))


@given(scalars)
def test_zero_operand_takes_the_shortcut(a):
    zero = ComplexRational()
    assert a + zero is a and a - zero is a and a - 0 is a
    assert zero + a == a and zero - a == -a
    if a:
        assert zero + a is a


@given(scalars)
def test_division_inverts_multiplication(a):
    if a:
        assert (a / a) == ComplexRational(1)


@given(scalars)
def test_conjugation_is_involutive(a):
    assert a.conjugate().conjugate() == a


@given(scalars, scalars)
def test_conjugation_distributes_over_products(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_i_squared_is_minus_one():
    i = ComplexRational(0, 1)
    assert i * i == ComplexRational(-1)


def test_structural_equality_after_reduction():
    assert ComplexRational(Fraction(2, 4)) == ComplexRational(Fraction(1, 2))
    assert ComplexRational(Fraction(1, 2)).re.denominator == 2
    z = ComplexRational(Fraction(2, 4), Fraction(1, 6))
    assert z == ComplexRational(Fraction(1, 2), Fraction(1, 6))
    assert z.re.denominator == 2 and z.im.denominator == 6
    half = Fraction(1, 2)
    assert ComplexRational(half, half) + ComplexRational(half, -half) == ComplexRational(1)
    assert ComplexRational("6/4", Fraction(0)) == ComplexRational(Fraction(3, 2))


def test_mixed_python_numbers():
    half = ComplexRational(Fraction(1, 2))
    assert half + 1 == ComplexRational(Fraction(3, 2))
    assert 2 * half == ComplexRational(1)
    assert 1 - half == half
    with pytest.raises(TypeError):  # an int adds from the right only
        1 + half
    # ints are the only foreign operands: Fractions go through the constructor
    with pytest.raises(TypeError):
        ONE + Fraction(1, 2)
    assert ONE + ComplexRational(Fraction(1, 2)) == ComplexRational(Fraction(3, 2))


def test_constructor_is_the_one_conversion():
    z = ComplexRational(Fraction(1, 2), 3)
    assert ComplexRational(z) is z
    with pytest.raises(TypeError):
        ComplexRational(z, 1)
    with pytest.raises(TypeError) as excinfo:
        as_fraction(0.5)
    assert str(excinfo.value) == "expected a rational value, got float"
    for value in (mult(coord(1, 0)), partial_d(1), exponential(1, (ComplexRational(0, 1),))):
        assert value.scaled(2) == value.scaled(Fraction(2)) == value.scaled(ComplexRational(2))


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ComplexRational(1) / ComplexRational()


@pytest.mark.parametrize(
    "value, text",
    [
        (ComplexRational(), "0"),
        (ComplexRational(1), "1"),
        (ComplexRational(-1), "-1"),
        (ComplexRational(Fraction(3, 2)), "3/2"),
        (ComplexRational(0, 1), "i"),
        (ComplexRational(0, -1), "-i"),
        (ComplexRational(0, Fraction(1, 2)), "1/2*i"),
        (ComplexRational(Fraction(3, 2), Fraction(1, 2)), "3/2 + 1/2*i"),
        (ComplexRational(1, -2), "1 - 2*i"),
    ],
)
def test_rendering(value, text):
    assert format_scalar(value) == text


def test_parens_only_for_mixed_values():
    assert scalar_needs_parens(ComplexRational(1, 1))
    assert not scalar_needs_parens(ComplexRational(0, 5))
    assert not scalar_needs_parens(ComplexRational(5))


# -- differential test against a pair of Fractions ------------------------------
#
# ``ComplexRational`` stores ``(a + b i) / d`` as three ints; the reference
# below is the textbook pair ``(re, im)`` of Fractions, which reduce
# themselves, so every operation and view can be compared with it.

wide_rationals = st.one_of(
    st.fractions(max_denominator=360),
    st.integers(-(10**30), 10**30).map(Fraction),
    st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**20)),
)
pairs = st.tuples(wide_rationals, wide_rationals)


def _ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_div(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm)


def _ref_imag(v):
    if v == 1:
        return "i"
    if v == -1:
        return "-i"
    return f"{v}*i"


def _ref_str(x):
    re, im = x
    if im == 0:
        return str(re)
    if re == 0:
        return _ref_imag(im)
    return f"{re} {'+' if im > 0 else '-'} {_ref_imag(abs(im))}"


def _agrees(z, x):
    return (z.re, z.im) == x and type(z.re) is Fraction and type(z.im) is Fraction


@pytest.mark.parametrize(
    "op, ref",
    [
        (operator.add, _ref_add),
        (operator.sub, _ref_sub),
        (operator.mul, _ref_mul),
        (operator.truediv, _ref_div),
    ],
)
@given(pairs, pairs)
def test_arithmetic_matches_fraction_pairs(op, ref, x, y):
    if op is operator.truediv and y == (0, 0):
        with pytest.raises(ZeroDivisionError):
            op(ComplexRational(*x), ComplexRational(*y))
        return
    assert _agrees(op(ComplexRational(*x), ComplexRational(*y)), ref(x, y))


@pytest.mark.parametrize(
    "op, ref",
    [(operator.add, _ref_add), (operator.sub, _ref_sub), (operator.mul, _ref_mul)],
)
@given(pairs, st.integers(-(10**12), 10**12))
def test_mixed_int_arithmetic_matches_fraction_pairs(op, ref, x, k):
    z, kk = ComplexRational(*x), (Fraction(k), Fraction(0))
    assert _agrees(op(z, k), ref(x, kk))
    if op is not operator.add:
        assert _agrees(op(k, z), ref(kk, x))


@given(pairs)
def test_negation_and_conjugate_match_fraction_pairs(x):
    z = ComplexRational(*x)
    assert _agrees(-z, (-x[0], -x[1]))
    assert _agrees(z.conjugate(), (x[0], -x[1]))


@given(pairs, pairs)
def test_equality_and_hash_match_fraction_pairs(x, y):
    z, w = ComplexRational(*x), ComplexRational(*y)
    assert (z == w) == (x == y)
    assert (z != w) == (x != y)
    # the same value reached by another route is equal and hashes equal
    again = (z + w) - w
    assert again == z and hash(again) == hash(z)
    parsed = ComplexRational(str(x[0]), str(x[1]))
    assert parsed == z and hash(parsed) == hash(z)


@given(pairs)
def test_views_match_fraction_pairs(x):
    z = ComplexRational(*x)
    assert _agrees(z, x)
    assert repr(z) == f"ComplexRational({x[0]!r}, {x[1]!r})"
    assert str(z) == _ref_str(x)
    assert (not z) == (x == (0, 0))
    value, reference = z.to_complex(), complex(x[0]) + 1j * complex(x[1])
    assert value.real.hex() == reference.real.hex()
    assert value.imag.hex() == reference.imag.hex()


def test_attribute_assignment_raises():
    z = ComplexRational(1, 2)
    for name in ("re", "im", "extra"):
        with pytest.raises(AttributeError):
            setattr(z, name, Fraction(3))
    assert z == ComplexRational(1, 2)


def test_values_are_unordered():
    z, w = ComplexRational(1), ComplexRational(Fraction(1, 2), 3)
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(z, w)
    with pytest.raises(TypeError):
        sorted([z, w])


_SAMPLE = ComplexRational(Fraction(-1, 2), Fraction(3, 4))


@pytest.mark.parametrize(
    "value",
    [
        _SAMPLE,
        ComplexRational(),
        (coord(2, 0) * exponential(2, [_SAMPLE, 0])).scaled(_SAMPLE),
        partial_d(2, 1, 3).scaled(_SAMPLE) + partial_d(2, 0) * mult(coord(2, 1) * exponential(2, [0, 1])),
    ],
    ids=["scalar", "zero", "function", "operator"],
)
@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy] + [
        lambda value, protocol=protocol: pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ],
    ids=["copy", "deepcopy"] + [f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)],
)
def test_copy_and_pickle_round_trip(value, round_trip):
    again = round_trip(value)
    assert type(again) is type(value)
    assert again == value and str(again) == str(value)
