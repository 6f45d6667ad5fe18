"""Seeded random generators for functions, operators, and matrices.

Used by both the test suite and the ``verify`` command; everything is a pure
function of the supplied :class:`random.Random`, so runs are reproducible
byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .classical import StructureMatrix
from .functions import CoefFn, exponential, monomial, zero
from .operators import DiffOp, mult, zero_op
from .scalars import ComplexRational


def trial_rng(seed: int, label: str, index: int) -> random.Random:
    """Deterministic per-trial generator, independent of execution order."""
    return random.Random(f"{seed}/{label}/{index}")


def random_fraction(rng: random.Random) -> Fraction:
    """``num / den`` with ``num`` in ``[-3, 3]`` and ``den`` in ``{1, 2}``."""
    return Fraction(rng.randint(-3, 3), rng.randint(1, 2))


def random_scalar(rng: random.Random, real: bool = False) -> ComplexRational:
    re = random_fraction(rng)
    im = Fraction(0) if real else random_fraction(rng)
    return ComplexRational(re, im)


def _random_exponents(rng: random.Random, dim: int, max_degree: int):
    total = rng.randint(0, max_degree)
    exponents = [0] * dim
    for _ in range(total):
        exponents[rng.randrange(dim)] += 1
    return tuple(exponents)


def random_polynomial(rng: random.Random, dim: int, max_degree: int = 3) -> CoefFn:
    out = zero(dim)
    for _ in range(rng.randint(1, 3)):
        coeff = random_scalar(rng, real=True)
        out = out + monomial(dim, _random_exponents(rng, dim, max_degree), coeff)
    return out


def random_coef_fn(
    rng: random.Random,
    dim: int,
    max_degree: int = 2,
    max_terms: int = 3,
) -> CoefFn:
    """Mixed monomial/plane-wave coefficient with small integer frequencies."""
    out = zero(dim)
    for _ in range(rng.randint(1, max_terms)):
        coeff = random_scalar(rng)
        term = monomial(dim, _random_exponents(rng, dim, max_degree), coeff)
        if rng.random() < 0.5:
            freqs = [
                ComplexRational(0, rng.choice((-1, 0, 1))) for _ in range(dim)
            ]
            term = term * exponential(dim, freqs)
        out = out + term
    return out


def random_structure_fn(rng: random.Random, dim: int) -> CoefFn:
    """Real structure function: a random real polynomial of degree <= 3."""
    return random_polynomial(rng, dim, max_degree=3)


def random_diff_op(
    rng: random.Random,
    dim: int,
    max_order: int = 2,
    max_terms: int = 3,
    max_degree: int = 2,
) -> DiffOp:
    out = zero_op(dim)
    for _ in range(rng.randint(1, max_terms)):
        total = rng.randint(0, max_order)
        alpha = [0] * dim
        for _ in range(total):
            alpha[rng.randrange(dim)] += 1
        coeff = random_coef_fn(rng, dim, max_degree=max_degree, max_terms=2)
        out = out + DiffOp(dim, {tuple(alpha): coeff})
    return out


def random_first_order_op(rng: random.Random, dim: int) -> DiffOp:
    return random_diff_op(rng, dim, max_order=1)


def random_periodic_fn(
    rng: random.Random,
    max_freq: int = 2,
    max_terms: int = 3,
    real: bool = False,
) -> CoefFn:
    """1-D combination of resolved plane waves exp(i k x)."""
    out = zero(1)
    for _ in range(rng.randint(1, max_terms)):
        k = rng.randint(-max_freq, max_freq)
        coeff = random_scalar(rng, real=real)
        term = exponential(1, (ComplexRational(0, k),)).scaled(coeff)
        if real:
            term = term + term.conjugate()
        out = out + term
    return out


def random_periodic_diff_op(rng: random.Random) -> DiffOp:
    """Nonzero 1-D operator: up to two terms of order <= 2, periodic coefficients."""
    out = zero_op(1)
    for _ in range(rng.randint(1, 2)):
        order = rng.randint(0, 2)
        coeff = random_periodic_fn(rng, max_freq=2, max_terms=2)
        out = out + DiffOp(1, {(order,): coeff})
    if out.is_zero:
        out = mult(random_periodic_fn(rng, max_terms=1))
    return out


def random_antisymmetric_matrix(rng: random.Random, size: int) -> StructureMatrix:
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            value = random_fraction(rng)
            rows[i][j] = value
            rows[j][i] = -value
    return StructureMatrix(tuple(tuple(row) for row in rows))
