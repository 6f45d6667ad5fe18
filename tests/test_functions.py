"""Closure, ring axioms, and exact differentiation of coefficient functions."""

import pytest

from geobracket.functions import (
    CoefFn,
    accumulate,
    const,
    coord,
    cos_of,
    exponential,
    monomial,
    one,
    sin_of,
    zero,
)
from geobracket.errors import DimensionMismatch
from geobracket.operators import DiffOp, partial_d
from geobracket.randomized import random_coef_fn, trial_rng
from geobracket.scalars import ComplexRational

I = ComplexRational(0, 1)


def _x(dim=1, axis=0):
    return coord(dim, axis)


def test_additive_identity():
    assert _x() + zero(1) == _x()


def test_two_exponentials_make_a_cosine():
    plus = exponential(1, (I,))
    minus = exponential(1, (-I,))
    assert plus + minus == cos_of(1).scaled(2)


def test_cancellation_yields_empty_term_map():
    f = monomial(1, (2,)) + monomial(1, (2,), -1)
    assert f.is_zero
    assert f.terms == {}


def test_product_adds_frequencies():
    e = exponential(1, (I,))
    assert e * e == exponential(1, (ComplexRational(0, 2),))


def test_multiplicative_identity():
    assert _x() * one(1) == _x()


def test_exponent_cancellation():
    f = _x() * exponential(1, (I,))
    assert f * exponential(1, (-I,)) == _x()


def test_derivative_of_monomial():
    assert monomial(1, (2,)).diff(0) == monomial(1, (1,), 2)


def test_derivative_of_exponential():
    e = exponential(1, (I,))
    assert e.diff(0) == e.scaled(I)


def test_product_rule_term():
    f = _x() * exponential(1, (I,))
    expected = exponential(1, (I,)) + f.scaled(I)
    assert f.diff(0) == expected


def test_trig_derivatives_and_pythagoras():
    s, c = sin_of(1), cos_of(1)
    assert s.diff(0) == c
    assert c.diff(0) == -s
    assert s * s + c * c == one(1)


def test_sin_is_real():
    assert sin_of(1).is_real
    assert cos_of(1).is_real
    assert not exponential(1, (I,)).is_real


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        _ = zero(1) + zero(2)
    with pytest.raises(DimensionMismatch):
        _ = one(2) * one(3)


def test_diff_axis_out_of_range():
    with pytest.raises(IndexError):
        one(2).diff(2)


def _random_triple(index, dim=2):
    rng = trial_rng(11, "fn-ring", index)
    return tuple(random_coef_fn(rng, dim) for _ in range(3))


@pytest.mark.parametrize("index", range(25))
def test_ring_axioms_random(index):
    f, g, h = _random_triple(index)
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@pytest.mark.parametrize("index", range(25))
def test_diff_is_a_derivation(index):
    f, g, _ = _random_triple(index)
    for axis in range(f.dim):
        lhs = (f * g).diff(axis)
        rhs = f.diff(axis) * g + f * g.diff(axis)
        assert lhs == rhs


@pytest.mark.parametrize("index", range(25))
def test_mixed_partials_commute(index):
    f, _, _ = _random_triple(index, dim=3)
    assert f.diff(0).diff(1) == f.diff(1).diff(0)
    assert f.diff(1).diff(2) == f.diff(2).diff(1)


def test_conjugate_matches_frequency_flip():
    f = exponential(1, (I,)).scaled(ComplexRational(1, 2))
    g = f.conjugate()
    assert g == exponential(1, (-I,)).scaled(ComplexRational(1, -2))
    assert (f + g).is_real


# -- the shared term-map kernel -----------------------------------------------------

_CONST_KEY = ((0,), (ComplexRational(),))
_X_KEY = ((1,), (ComplexRational(),))


def _coef_fn_case():
    return (
        {_CONST_KEY: ComplexRational(), _X_KEY: ComplexRational(3)},
        {_X_KEY: ComplexRational(3)},
        _x() + const(1, 2),
    )


def _diff_op_case():
    return (
        {(0,): zero(1), (1,): _x()},
        {(1,): _x()},
        partial_d(1).scaled(2) + DiffOp(1, {(0,): _x()}),
    )


@pytest.mark.parametrize("cls, case", [(CoefFn, _coef_fn_case), (DiffOp, _diff_op_case)])
def test_term_map_kernel(cls, case):
    raw, clean, x = case()
    assert cls(1, raw).terms == clean
    difference = x - x
    assert type(difference) is cls
    assert difference.terms == {}
    assert bool(difference) is False
    assert difference.is_zero
    assert bool(x) is True
    assert -(-x) == x
    # A term map adds only to its own kind, and a scalar enters through
    # ``scaled`` only.
    with pytest.raises(TypeError):
        x + 1
    with pytest.raises(TypeError):
        1 - x
    with pytest.raises(TypeError):
        2 * x
    with pytest.raises(TypeError):
        x * 2
    if cls is DiffOp:
        with pytest.raises(TypeError):
            x + _x()
        with pytest.raises(TypeError):
            _x() - x
    assert CoefFn(1, {}) != DiffOp(1, {})
    assert _x() != DiffOp(1, {(0,): _x()})


def test_accumulate_drops_cancelled_keys():
    acc = accumulate({"a": 1, "b": 2}, [("a", -1), ("c", 0), ("b", 1)])
    assert acc == {"b": 3}


def test_accumulate_keeps_insertion_order():
    acc = accumulate({"b": 1}, [("a", 1), ("c", 2), ("b", 1), ("a", -1), ("a", 5)])
    assert list(acc.items()) == [("b", 2), ("c", 2), ("a", 5)]
