"""Structural Poisson brackets over polynomial phase space."""

from fractions import Fraction

import pytest

from geobracket.classical import (
    StructureMatrix,
    dynamics_rhs,
    geobracket_part,
    gpb,
    gspb,
)
from geobracket.errors import DimensionMismatch, NonPolynomialPhaseFunction
from geobracket.functions import const, coord, cos_of, monomial, one, zero
from geobracket.randomized import (
    random_antisymmetric_matrix,
    random_polynomial,
    trial_rng,
)
from geobracket.verify import position_momentum_expansion_holds

J1 = StructureMatrix.canonical(1)
J2 = StructureMatrix.canonical(2)


def q(i, pairs=1):
    return coord(2 * pairs, i)


def p(i, pairs=1):
    return coord(2 * pairs, pairs + i)


def test_canonical_matrix_shape():
    assert J2.size == 4
    assert J2[0, 2] == 1
    assert J2[2, 0] == -1
    assert J2[0, 1] == 0


def test_antisymmetry_validated():
    with pytest.raises(ValueError):
        StructureMatrix(((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        StructureMatrix(((0, 1, 0), (-1, 0, 0)))


def test_canonical_pair_bracket():
    assert gpb(q(0), p(0), J1) == one(2)


def test_self_bracket_vanishes():
    f = random_polynomial(trial_rng(31, "gpb", 0), 2, max_degree=3)
    assert gpb(f, f, J1).is_zero


def test_square_bracket():
    # {q^2, p} = 2 q
    assert gpb(q(0) * q(0), p(0), J1) == q(0).scaled(2)


def test_constant_structure_degenerates():
    f = random_polynomial(trial_rng(31, "deg", 0), 2)
    g = random_polynomial(trial_rng(31, "deg", 1), 2)
    assert gspb(const(2, 4), f, g, J1) == gpb(f, g, J1)


def test_gspb_antisymmetric():
    rng = trial_rng(31, "anti", 0)
    s, f, g = (random_polynomial(rng, 4, max_degree=2) for _ in range(3))
    assert gspb(s, f, g, J2) == -gspb(s, g, f, J2)
    assert gspb(s, f, f, J2).is_zero


@pytest.mark.parametrize("index", range(10))
def test_gspb_bilinear(index):
    rng = trial_rng(31, "bilinear", index)
    s, f, g, h = (random_polynomial(rng, 2, max_degree=2) for _ in range(4))
    assert gspb(s, f + h, g, J1) == gspb(s, f, g, J1) + gspb(s, h, g, J1)


@pytest.mark.parametrize("pairs", [1, 2])
def test_position_momentum_expansion(pairs):
    """{x_j, p_k}_s = delta_jk + x_j d_k s + p_k * sum_q J_jq d_q s."""
    size = 2 * pairs
    canonical = StructureMatrix.canonical(pairs)
    for index in range(6):
        rng = trial_rng(32, f"cche-{pairs}", index)
        s = random_polynomial(rng, size, max_degree=3)
        assert position_momentum_expansion_holds(s, canonical, pairs)
        j = random_antisymmetric_matrix(rng, size)
        assert position_momentum_expansion_holds(s, j, pairs)
        for a in range(pairs):
            for b in range(pairs):
                # fully explicit canonical form
                x_a, p_b = q(a, pairs), p(b, pairs)
                delta = one(size) if a == b else zero(size)
                explicit = delta + x_a * s.diff(b) + p_b * s.diff(pairs + a)
                assert gspb(s, x_a, p_b, canonical) == explicit


def test_dynamics_kinds_and_identity():
    rng = trial_rng(33, "dyn", 0)
    s = random_polynomial(rng, 2, max_degree=2)
    h = random_polynomial(rng, 2, max_degree=3)
    f = random_polynomial(rng, 2, max_degree=2)
    gchs = dynamics_rhs(s, h, f, J1, "gchs")
    tghs = dynamics_rhs(s, h, f, J1, "tghs")
    w = dynamics_rhs(s, h, f, J1, "sdyn")
    assert gchs == tghs + f * w
    assert w == gpb(s, h, J1)


def test_hamiltonian_covariantly_conserved():
    rng = trial_rng(33, "cons", 0)
    s = random_polynomial(rng, 2, max_degree=2)
    h = random_polynomial(rng, 2, max_degree=3)
    assert dynamics_rhs(s, h, h, J1, "gchs").is_zero


def test_constant_structure_gives_hamiltonian_flow():
    rng = trial_rng(33, "flow", 0)
    h = random_polynomial(rng, 2, max_degree=3)
    f = random_polynomial(rng, 2, max_degree=2)
    assert dynamics_rhs(const(2, 3), h, f, J1, "gchs") == gpb(f, h, J1)


def test_canonical_equations_flat_structure():
    # H = p^2/2m + V(q), s = 0: qdot = p/m, pdot = -V'
    m = Fraction(2)
    h = (p(0) * p(0)).scaled(Fraction(1, 2 * m)) + monomial(2, (3, 0))
    s = zero(2)
    qdot = dynamics_rhs(s, h, q(0), J1, "gchs")
    pdot = dynamics_rhs(s, h, p(0), J1, "gchs")
    assert qdot == p(0).scaled(Fraction(1) / m)
    assert pdot == monomial(2, (2, 0), -3)


def test_geobracket_part_splits_gspb():
    rng = trial_rng(33, "split", 0)
    s, f, g = (random_polynomial(rng, 2, max_degree=2) for _ in range(3))
    assert gspb(s, f, g, J1) == gpb(f, g, J1) + geobracket_part(s, f, g, J1)


def test_non_polynomial_rejected():
    with pytest.raises(NonPolynomialPhaseFunction):
        gpb(cos_of(2, 0), one(2), J1)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        gpb(one(2), one(2), J2)


def test_unknown_dynamics_kind():
    with pytest.raises(ValueError):
        dynamics_rhs(zero(2), one(2), one(2), J1, "bogus")
