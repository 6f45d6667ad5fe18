"""Closure, ring axioms, and exact differentiation of coefficient functions."""

import copy
import itertools
import pickle

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
from geobracket.operators import DiffOp, compose, mult, partial_d
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


# -- the per-instance derivative memo ----------------------------------------------


def _iterated_diff(f, gamma):
    for axis, count in enumerate(gamma):
        for _ in range(count):
            f = f.diff(axis)
    return f


def _memo_case():
    """Two equal, separately built functions with a plane wave along x1."""
    wave = exponential(2, (I, ComplexRational()))
    return tuple(
        random_coef_fn(trial_rng(24, "memo", 0), 2) + monomial(2, (2, 1)) + wave
        for _ in range(2)
    )


def test_derivative_memo_matches_repeated_diff():
    f, _ = _memo_case()
    gammas = list(itertools.product(range(4), range(3)))
    for gamma in gammas:
        assert f.derivative(gamma) == _iterated_diff(f, gamma)
    assert f.derivative((0, 0)) is f
    memo = f._derivatives
    assert (0, 0) not in memo and len(memo) == len(gammas) - 1
    for gamma, value in memo.items():
        assert f.derivative(gamma) is value
        assert value == _iterated_diff(f, gamma)
    assert f.derivative_caps[0] == float("inf")
    assert monomial(2, (2, 1)).derivative_caps == (2, 1)
    assert exponential(2, (I, ComplexRational())).derivative_caps == (float("inf"), 0)


def test_filled_memo_is_not_part_of_the_value():
    f, fresh = _memo_case()
    f.derivative((2, 1))
    assert f.derivative_caps[0] == float("inf")
    assert f._derivatives and "_derivatives" not in vars(fresh)
    assert f == fresh and fresh == f
    assert str(f) == str(fresh) and repr(f) == repr(fresh)
    for twin in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert twin == f == fresh
        assert str(twin) == str(fresh)
        assert twin.derivative((2, 1)) == fresh.derivative((2, 1))


def test_memoized_is_real_is_not_part_of_the_value():
    f, fresh = _memo_case()
    real = sin_of(1) + monomial(1, (2,))
    assert real.is_real and not f.is_real
    assert "is_real" in vars(f) and "is_real" not in vars(fresh)
    assert f == fresh and fresh == f
    assert str(f) == str(fresh) and repr(f) == repr(fresh)
    for twin in (copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert twin == f == fresh
        assert str(twin) == str(fresh) and twin.is_real is False
    for twin in (copy.deepcopy(real), pickle.loads(pickle.dumps(real))):
        assert twin == real and twin.is_real is True


def test_second_compose_reuses_the_derivatives(monkeypatch):
    s, _ = _memo_case()
    a = partial_d(2, 0, 2) + DiffOp(2, {(1, 1): coord(2, 1)})
    right = mult(s)
    calls = []
    diff = CoefFn.diff

    def counting_diff(self, axis):
        calls.append(axis)
        return diff(self, axis)

    monkeypatch.setattr(CoefFn, "diff", counting_diff)
    first = compose(a, right)
    assert calls
    calls.clear()
    assert compose(a, right) == first
    assert compose(a, mult(s)) == first
    assert calls == []


def test_zero_order_product_computes_no_derivative():
    s, _ = _memo_case()
    compose(mult(coord(2, 0)) + mult(one(2)), mult(s))
    assert "derivative_caps" not in vars(s) and "_derivatives" not in vars(s)


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


_ZERO_FREQ = (ComplexRational(),)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: CoefFn(1, {((1, 0), _ZERO_FREQ): I}), ValueError,
         "term key length does not match dim"),
        (lambda: CoefFn(1, {((-1,), _ZERO_FREQ): I}), ValueError,
         "monomial exponents must be non-negative"),
        (lambda: CoefFn(0, {}), ValueError, "dim must be >= 1"),
        (lambda: DiffOp(0, {}), ValueError, "dim must be >= 1"),
        (lambda: coord(2, 2), IndexError, "axis 2 out of range for dim 2"),
        (lambda: monomial(2, (1,)), ValueError, "exponent vector length does not match dim"),
        (lambda: exponential(2, (I,)), ValueError,
         "frequency vector length does not match dim"),
    ],
    ids=[
        "key-length", "negative-exponent", "coef-fn-dim-0", "diff-op-dim-0",
        "coord-axis", "monomial-length", "exponential-length",
    ],
)
def test_malformed_function_is_refused(build, error, message):
    with pytest.raises(error) as excinfo:
        build()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message
