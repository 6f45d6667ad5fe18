"""Covariant dynamics, flow generator, and canonical commutation table."""

from fractions import Fraction

import pytest
from identity_catalogue import catalogue_test

from geobracket.brackets import qcpb
from geobracket.functions import const, coord, monomial, one, zero
from geobracket.operators import (
    commutator,
    compose,
    identity,
    momentum,
    mult,
    partial_d,
    position,
)
from geobracket.quantum import (
    Hamiltonian,
    Params,
    gdynamics,
    gen_heisenberg_rhs,
    geomentum,
    geometric_ccr_suite,
    harmonic_oscillator,
)
from geobracket.randomized import (
    random_diff_op,
    random_polynomial,
    random_structure_fn,
    trial_rng,
)
from geobracket.scalars import ComplexRational
from geobracket.verify import ccr_table_holds, check_covariant_decomposition

I = ComplexRational(0, 1)


def test_params_validation():
    with pytest.raises(ValueError):
        Params(hbar=0)
    with pytest.raises(ValueError):
        Params(mass=-1)
    assert Params(omega=0).omega == 0
    with pytest.raises(ValueError) as excinfo:
        Params(omega=-1)
    assert str(excinfo.value) == "omega must be non-negative"


def test_oscillator_expansion():
    params = Params(hbar=Fraction(1, 2), mass=Fraction(3), omega=Fraction(2))
    h = harmonic_oscillator(params)
    expected = partial_d(1, 0, 2).scaled(Fraction(-1, 24)) + mult(
        monomial(1, (2,), Fraction(6))
    )
    assert h.op == expected


def test_flow_generator_vanishes_for_constant_structure():
    h = harmonic_oscillator(Params())
    w = gdynamics(const(1, 5), h)
    assert w.is_zero
    assert commutator(mult(const(1, 5)), h.op).is_zero


def test_flow_generator_for_quadratic_structure():
    # s = x^2, hbar = m = 1: w = -i (1 + 2 x d)
    h = harmonic_oscillator(Params())
    s = monomial(1, (2,))
    w = gdynamics(s, h)
    expected = (identity(1) + compose(position(1), partial_d(1)).scaled(2)).scaled(-I)
    assert w == expected
    assert commutator(mult(s), h.op) == w.scaled(ComplexRational(0, 1))


test_covariant_decomposition_random = catalogue_test(
    22, "decomp", 10, check_covariant_decomposition
)


def test_equilibrium_characterization():
    # plain rate vanishes exactly when [f, H] = H [s, f]
    rng = trial_rng(22, "equilibrium", 0)
    s = random_structure_fn(rng, 1)
    h = Hamiltonian(random_diff_op(rng, 1))
    f = random_diff_op(rng, 1)
    lhs = commutator(f, h.op)
    rhs = compose(h.op, commutator(mult(s), f))
    assert gen_heisenberg_rhs(s, h, f).is_zero == (lhs == rhs)
    # and the Hamiltonian itself realizes equality only when H [s, H] = [H, s H]
    assert gen_heisenberg_rhs(s, h, h.op).is_zero == (
        commutator(h.op, h.op) == compose(h.op, commutator(mult(s), h.op))
    )


def test_geomentum_flat_case():
    assert geomentum(zero(1)) == momentum(1)


def test_geomentum_quadratic_structure():
    s = monomial(1, (2,))
    expected = (partial_d(1) + mult(coord(1, 0).scaled(2))).scaled(-I)
    assert geomentum(s) == expected


def test_geomentum_axis_out_of_range():
    with pytest.raises(IndexError):
        geomentum(zero(1), axis=1)


def test_position_geomentum_bracket():
    # [x ., p] under the extended bracket = i hbar (1 + x s')
    s = monomial(1, (2,))
    params = Params(hbar=Fraction(2))
    report = qcpb(s, position(1), geomentum(s, 0, params))
    expected = mult(one(1) + coord(1, 0) * s.diff(0)).scaled(
        ComplexRational(0, params.hbar)
    )
    assert report.total == expected


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ccr_table(dim):
    for index in range(6):
        rng = trial_rng(23, f"ccr-{dim}", index)
        s = random_polynomial(rng, dim, max_degree=3)
        assert ccr_table_holds(s, Params(hbar=Fraction(rng.randint(1, 2))))


def test_momentum_momentum_closed_form_vanishes_only_in_1d():
    s1 = monomial(1, (2,))
    table1 = geometric_ccr_suite(s1)
    assert table1.momentum_momentum[0, 0].total.is_zero

    s2 = monomial(2, (1, 1))  # x1 x2
    table2 = geometric_ccr_suite(s2)
    residual = table2.momentum_momentum[0, 1].total
    assert not residual.is_zero
    # hbar^2 ((d2 s) d1 - (d1 s) d2) = x1 d1 - x2 d2
    expected = compose(mult(coord(2, 0)), partial_d(2, 0)) - compose(
        mult(coord(2, 1)), partial_d(2, 1)
    )
    assert residual == expected


@pytest.mark.parametrize("dim", [1, 2])
def test_geomutator_ccr_coherence(dim):
    rng = trial_rng(23, f"coherence-{dim}", 0)
    assert ccr_table_holds(random_polynomial(rng, dim, max_degree=3), Params())
