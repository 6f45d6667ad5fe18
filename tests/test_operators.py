"""Normal ordering, composition, and the plain commutator."""

from fractions import Fraction

import pytest

from geobracket.errors import DimensionMismatch
from geobracket.functions import coord, exponential, monomial, one, sin_of, zero
from geobracket.operators import (
    DiffOp,
    commutator,
    compose,
    identity,
    momentum,
    mult,
    partial_d,
    position,
    scalar_op,
    zero_op,
)
from geobracket.randomized import random_coef_fn, random_diff_op, trial_rng
from geobracket.scalars import ComplexRational

I = ComplexRational(0, 1)


def test_leibniz_one_step():
    # d (x .) = 1 + x d
    assert compose(partial_d(1), position(1)) == identity(1) + compose(
        position(1), partial_d(1)
    )


def test_leibniz_with_symbolic_coefficient():
    s = monomial(1, (3,)) + coord(1, 0)
    lhs = compose(partial_d(1), mult(s))
    assert lhs == mult(s.diff(0)) + compose(mult(s), partial_d(1))


def test_momentum_squared():
    p = momentum(1)
    assert compose(p, p) == partial_d(1, 0, 2).scaled(-1)


def test_apply_canonical_pair_to_sine():
    op = commutator(partial_d(1), position(1))
    assert op == identity(1)
    assert op(sin_of(1)) == sin_of(1)


def test_apply_identity():
    psi = random_coef_fn(trial_rng(0, "apply", 0), 2)
    assert identity(2)(psi) == psi


def test_momentum_eigenfunction():
    e = exponential(1, (I,))
    assert momentum(1)(e) == e  # -i d/dx e^{ix} = e^{ix} with hbar = 1


def test_qpb_canonical_pair():
    assert commutator(partial_d(1), position(1)) == identity(1)


def test_qpb_exponential_pair():
    f = mult(exponential(1, (I,))).scaled(-I) * partial_d(1)
    g = mult(exponential(1, (I,)))
    assert commutator(f, g) == mult(exponential(1, (ComplexRational(0, 2),)))


def test_qpb_self_is_zero():
    a = random_diff_op(trial_rng(0, "qpb-self", 0), 2)
    assert commutator(a, a).is_zero


def test_linear_ops():
    a = random_diff_op(trial_rng(0, "linear", 0), 1)
    assert a + zero_op(1) == a
    assert partial_d(1).scaled(I) == DiffOp(1, {(1,): one(1).scaled(I)})
    assert (a - a).is_zero
    assert scalar_op(1, Fraction(1, 2)) + scalar_op(1, Fraction(1, 2)) == identity(1)


@pytest.mark.parametrize("index", range(20))
def test_compose_associative(index):
    rng = trial_rng(5, "assoc", index)
    dim = rng.randint(1, 2)
    a, b, c = (random_diff_op(rng, dim, max_terms=2) for _ in range(3))
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


@pytest.mark.parametrize("index", range(20))
def test_compose_apply_coherence(index):
    # A (f psi) = (A mult(f)) psi
    rng = trial_rng(6, "coherence", index)
    dim = rng.randint(1, 2)
    a = random_diff_op(rng, dim, max_terms=2)
    f = random_coef_fn(rng, dim)
    psi = random_coef_fn(rng, dim)
    assert a(f * psi) == compose(a, mult(f))(psi)


@pytest.mark.parametrize("index", range(20))
def test_qpb_bilinear_antisymmetric_leibniz(index):
    rng = trial_rng(7, "qpb-props", index)
    dim = rng.randint(1, 2)
    a, b, c = (random_diff_op(rng, dim, max_terms=2) for _ in range(3))
    scalar = ComplexRational(Fraction(2, 3), Fraction(-1, 2))
    assert commutator(a, b) == -commutator(b, a)
    assert commutator(a + c, b) == commutator(a, b) + commutator(c, b)
    assert commutator(a, b.scaled(scalar)) == commutator(a, b).scaled(scalar)
    # classical Leibniz: [a, bc] = b [a, c] + [a, b] c
    assert commutator(a, compose(b, c)) == compose(b, commutator(a, c)) + compose(
        commutator(a, b), c
    )


def test_order_and_coefficient_views():
    a = partial_d(2, 0, 2) + compose(mult(coord(2, 1)), partial_d(2, 1))
    assert max(sum(alpha) for alpha in a.terms) == 2
    assert a.coefficient((2, 0)) == one(2)
    assert a.coefficient((5, 5)).is_zero


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compose(partial_d(1), partial_d(2))
    with pytest.raises(DimensionMismatch):
        partial_d(2)(one(3))


def test_normal_form_unique():
    # x d + 1 built two ways compares equal
    left = compose(partial_d(1), position(1))
    right = identity(1) + compose(position(1), partial_d(1))
    assert left == right
    assert str(left) == str(right)


@pytest.mark.parametrize("index", range(10))
def test_apply_equals_iterated_derivatives(index):
    # A psi = sum_alpha c_alpha d^alpha psi, with d^alpha taken axis by axis
    rng = trial_rng(8, "apply-diff", index)
    a = random_diff_op(rng, 2, max_order=3)
    psi = random_coef_fn(rng, 2)
    expected = zero(2)
    for (i, j), coeff in a.terms.items():
        derivative = psi
        for axis in (0,) * i + (1,) * j:
            derivative = derivative.diff(axis)
        expected = expected + coeff * derivative
    assert a(psi) == expected


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: DiffOp(1, {(0, 1): one(1)}), ValueError,
         "derivative multi-index length does not match dim"),
        (lambda: DiffOp(1, {(-1,): one(1)}), ValueError,
         "derivative orders must be non-negative"),
        (lambda: DiffOp(1, {(1,): one(2)}), DimensionMismatch,
         "coefficient dimension does not match operator dimension"),
        (lambda: partial_d(2, 2), IndexError, "axis 2 out of range for dim 2"),
    ],
    ids=["index-length", "negative-order", "coefficient-dim", "partial-axis"],
)
def test_malformed_operator_is_refused(build, error, message):
    with pytest.raises(error) as excinfo:
        build()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message
