"""Normal ordering, composition, and the plain commutator."""

import itertools
import math
from fractions import Fraction

import pytest

from geobracket.errors import DimensionMismatch
from geobracket.functions import CoefFn, coord, exponential, monomial, one, sin_of, zero
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


# -- the product kernel against plain scalar arithmetic -----------------------------

# Scalars with several coprime denominators, and frequencies of each kind
# the grammar reaches: integer-imaginary (exp(i*x2)), fractional
# (exp(1/2*x1)) and real.
_DENOMINATORS = (1, 2, 3, 5, 7)
_FREQUENCIES = (
    ComplexRational(0, 1),
    ComplexRational(0, -2),
    ComplexRational(Fraction(1, 2)),
    ComplexRational(Fraction(-2, 3), Fraction(1, 5)),
    ComplexRational(-1),
)


def _draw_scalar(rng):
    def part():
        return Fraction(rng.randint(-4, 4), rng.choice(_DENOMINATORS))

    value = ComplexRational(part(), part())
    return value if value else ComplexRational(Fraction(1, rng.choice(_DENOMINATORS)))


def _draw_fn(rng, dim):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        nu = tuple(rng.randint(0, 2) for _ in range(dim))
        kappa = tuple(
            rng.choice(_FREQUENCIES) if rng.random() < 0.4 else ComplexRational()
            for _ in range(dim)
        )
        terms[(nu, kappa)] = _draw_scalar(rng)
    return CoefFn(dim, terms)


def _draw_op(rng, dim):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        order = rng.randint(0, 3)
        alpha = [0] * dim
        for _ in range(order):
            alpha[rng.randrange(dim)] += 1
        terms[tuple(alpha)] = _draw_fn(rng, dim)
    return DiffOp(dim, terms)


def _scalar_product(f, g):
    """``f * g`` term by term with ``ComplexRational`` arithmetic only."""
    out = {}
    for (nu1, k1), c1 in f.terms.items():
        for (nu2, k2), c2 in g.terms.items():
            key = (
                tuple(a + b for a, b in zip(nu1, nu2)),
                tuple(a + b for a, b in zip(k1, k2)),
            )
            out[key] = out.get(key, ComplexRational()) + c1 * c2
    return CoefFn(f.dim, out)


def _scalar_compose(a, b):
    """``a b`` by the Leibniz rule with no caps, no memo and no kernel."""
    out = {}
    for beta, cb in b.terms.items():
        for alpha, ca in a.terms.items():
            for gamma in itertools.product(*(range(al + 1) for al in alpha)):
                deriv = cb
                for axis, count in enumerate(gamma):
                    for _ in range(count):
                        deriv = deriv.diff(axis)
                weight = math.prod(math.comb(al, g) for al, g in zip(alpha, gamma))
                key = tuple(al - g + be for al, g, be in zip(alpha, gamma, beta))
                piece = _scalar_product(ca, deriv).scaled(weight)
                out[key] = out.get(key, zero(a.dim)) + piece
    return DiffOp(a.dim, out)


def _assert_canonical(value):
    """No empty operator coefficient; every scalar a ``ComplexRational``
    ``(a, b, d)`` with ``d > 0``, ``gcd(a, b, d) == 1`` and a nonzero value."""
    if isinstance(value, DiffOp):
        fns = value.terms.values()
        assert all(type(fn) is CoefFn and fn.terms for fn in fns)
    else:
        fns = [value]
    for fn in fns:
        for scalar in fn.terms.values():
            assert type(scalar) is ComplexRational
            a, b, d = scalar
            assert d > 0 and math.gcd(a, b, d) == 1 and (a or b)


@pytest.mark.parametrize("index", range(64))
def test_product_kernel_against_scalar_arithmetic(index):
    rng = trial_rng(24, "kernel", index)
    dim = 1 + index % 3
    a, b = _draw_op(rng, dim), _draw_op(rng, dim)
    f, psi = _draw_fn(rng, dim), _draw_fn(rng, dim)
    ab = compose(a, b)
    applied = ab(psi)
    in_turn = a(b(psi))
    product = f * psi
    for value in (ab, applied, in_turn, b(psi), product):
        _assert_canonical(value)
    assert applied == in_turn
    assert ab == _scalar_compose(a, b)
    assert product == _scalar_product(f, psi)


def test_kernel_draws_cover_every_frequency_and_order():
    seen_orders, seen_freqs, seen_dens = set(), set(), set()
    for index in range(64):
        rng = trial_rng(24, "kernel", index)
        for op in (_draw_op(rng, 1 + index % 3), _draw_op(rng, 1 + index % 3)):
            seen_orders.update(sum(alpha) for alpha in op.terms)
            for fn in op.terms.values():
                for (_, kappa), scalar in fn.terms.items():
                    seen_freqs.update(k for k in kappa if k)
                    seen_dens.add(scalar[2])
    assert seen_orders == {0, 1, 2, 3}
    assert seen_freqs == set(_FREQUENCIES)
    assert all(any(d % p == 0 for d in seen_dens) for p in (2, 3, 5, 7))


def test_difference_keeps_the_order_of_adding_the_negation():
    for index in range(20):
        rng = trial_rng(24, "difference", index)
        dim = rng.randint(1, 2)
        a, b = compose(_draw_op(rng, dim), _draw_op(rng, dim)), _draw_op(rng, dim)
        # Share some of ``a``'s terms, so that coefficients cancel.
        shared = {alpha: coeff for alpha, coeff in a.terms.items() if rng.random() < 0.5}
        b = b + DiffOp(dim, shared)
        difference, negated_sum = a - b, a + (-b)
        assert difference == negated_sum
        assert list(difference.terms) == list(negated_sum.terms)
        for alpha, coeff in difference.terms.items():
            assert list(coeff.terms) == list(negated_sum.terms[alpha].terms)
