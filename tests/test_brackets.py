"""Extended-bracket identities: worked examples, transforms, Jacobi sums."""

import pytest
from identity_catalogue import catalogue_test

from geobracket import brackets, quantum, verify
from geobracket.brackets import (
    geomutator,
    hermitian_split_qcpb,
    jacobi_residuals,
    qcpb,
    sandwich,
    s_transform,
)
from geobracket.errors import DimensionMismatch, NonRealStructureFunction
from geobracket.functions import (
    CoefFn,
    const,
    coord,
    exponential,
    monomial,
    one,
    zero,
)
from geobracket.operators import (
    commutator,
    compose,
    identity,
    momentum,
    mult,
    partial_d,
    position,
    zero_op,
)
from geobracket.randomized import random_diff_op, random_structure_fn, trial_rng
from geobracket.scalars import ComplexRational
from geobracket.verify import run_identity_suite, structure_bracket_scaling_holds

I = ComplexRational(0, 1)

EXP_IX = exponential(1, (I,))


def test_self_bracket_vanishes():
    rng = trial_rng(1, "self", 0)
    s = random_structure_fn(rng, 2)
    a = random_diff_op(rng, 2)
    assert qcpb(s, a, a).total.is_zero
    assert geomutator(s, a, a).is_zero


def test_constant_structure_degenerates_to_commutator():
    rng = trial_rng(1, "const-s", 0)
    a = random_diff_op(rng, 1)
    b = random_diff_op(rng, 1)
    report = qcpb(const(1, 7), a, b)
    assert report.geomutator_part.is_zero
    assert report.total == commutator(a, b)


def test_structure_of_structure_special_values():
    rng = trial_rng(1, "g-special", 0)
    dim = 1
    s = random_structure_fn(rng, dim)
    b = random_diff_op(rng, dim)
    s_op = mult(s)
    # G(s, s, b) = s [s, b] and G(s, b, s) = s [b, s]
    assert geomutator(s, s_op, b) == compose(s_op, commutator(s_op, b))
    assert geomutator(s, b, s_op) == compose(s_op, commutator(b, s_op))
    assert geomutator(s, s_op, s_op).is_zero


def test_position_momentum_geomutator_value():
    # G(s, x ., -i hbar d) = i hbar x s' in one dimension
    s = random_structure_fn(trial_rng(1, "xp", 0), 1)
    value = geomutator(s, position(1), momentum(1))
    assert value == mult(coord(1, 0) * s.diff(0)).scaled(I)


def test_non_real_structure_rejected():
    with pytest.raises(NonRealStructureFunction):
        qcpb(EXP_IX, partial_d(1), position(1))


def test_second_bracket_with_the_same_s_takes_no_conjugate(monkeypatch):
    rng = trial_rng(1, "is-real-memo", 0)
    s = random_structure_fn(rng, 2)
    a = random_diff_op(rng, 2)
    b = random_diff_op(rng, 2)
    calls = []
    conjugate = CoefFn.conjugate

    def counting_conjugate(self):
        calls.append(self)
        return conjugate(self)

    monkeypatch.setattr(CoefFn, "conjugate", counting_conjugate)
    first = qcpb(s, a, b)
    assert calls == [s]
    calls.clear()
    assert qcpb(s, b, a).total == -first.total
    assert calls == []
    wave = exponential(1, (I,))
    for _ in range(2):
        with pytest.raises(NonRealStructureFunction):
            qcpb(wave, partial_d(1), position(1))
    assert calls == [wave]


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        qcpb(zero(2), partial_d(1), position(1))


def test_sandwich_reduces_to_commutator_for_unit_structure():
    rng = trial_rng(2, "sandwich", 0)
    a = random_diff_op(rng, 1)
    b = random_diff_op(rng, 1)
    assert sandwich(one(1), a, b) == commutator(a, b)
    assert sandwich(one(1), a, a).is_zero


def test_plain_transform_with_zero_structure():
    a = random_diff_op(trial_rng(3, "transform", 0), 1)
    assert s_transform(zero(1), a, "plain") == a


def test_unknown_transform_variant():
    with pytest.raises(ValueError):
        s_transform(zero(1), identity(1), "bogus")


@pytest.mark.parametrize("index", range(10))
def test_structure_bracket_scaling(index):
    # [s ., b] under the extended bracket = (1 + s) [s ., b]
    rng = trial_rng(6, "scaling", index)
    dim = rng.randint(1, 2)
    s = random_structure_fn(rng, dim)
    assert structure_bracket_scaling_holds(s, random_diff_op(rng, dim, max_terms=2))


def test_jacobi_zero_structure_reduces_to_plain_jacobi():
    rng = trial_rng(4, "jacobi0", 0)
    a, b, c = (random_diff_op(rng, 2, max_terms=2) for _ in range(3))
    res = jacobi_residuals(zero(2), a, b, c)
    assert res.n_cc.is_zero
    assert res.n_ll.is_zero
    assert res.n_cl.is_zero


def test_jacobi_worked_triple():
    # (x ., d, s .) with s = x^2: all first order and one dimensional.
    s = monomial(1, (2,))
    res = jacobi_residuals(s, position(1), partial_d(1), mult(s))
    assert res.n_cl.is_zero


def test_jacobi_vanishing_fails_beyond_first_order():
    # The cyclic sum is NOT zero in general: a single second-order operand
    # already leaves a nonzero residual.
    s = monomial(1, (2,))
    res = jacobi_residuals(s, partial_d(1, 0, 2), position(1), partial_d(1))
    assert not res.n_cl.is_zero
    assert res.n_cl == res.n_ll  # the plain part still cancels


def test_hermitian_split_reduces_when_imaginary_parts_vanish():
    rng = trial_rng(5, "split0", 0)
    s = random_structure_fn(rng, 1)
    f_plus = random_diff_op(rng, 1)
    g_plus = random_diff_op(rng, 1)
    report = hermitian_split_qcpb(s, f_plus, zero_op(1), g_plus, zero_op(1))
    assert report.combined.total == qcpb(s, f_plus, g_plus).total
    assert verify.hermitian_split_holds(report)


# Identities stated once in geobracket.verify, each on the draws it makes there.
test_sandwich_decomposition_identity = catalogue_test(
    2, "sandwich-id", 20, verify.check_sandwich_decomposition
)
test_transform_rewritings_of_the_bracket = catalogue_test(
    3, "transform-id", 20, verify.check_s_transform_plain, verify.check_s_transform_sg
)
test_generalized_leibniz_rule = catalogue_test(6, "leibniz", 10, verify.check_leibniz)
test_geomutator_product_expansion = catalogue_test(
    6, "g-product", 10, verify.check_geomutator_product
)
test_jacobi_decomposition_always_exact = catalogue_test(
    4, "jacobi-dec", 10, verify.check_jacobi_decomposition
)
test_jacobi_vanishes_on_first_order_1d_triples = catalogue_test(
    4, "jacobi-1d", 10, verify.check_jacobi_vanishing_first_order
)
test_hermitian_split_expansion = catalogue_test(
    5, "split", 15, verify.check_hermitian_split
)


# Checks that hold for any bilinear ``G``, or never meet a nonzero one.
_BLIND_TO_G = {
    "bilinearity",
    "generalized leibniz",
    "jacobi decomposition",
    "hermitian split",
    "constant structure degenerates",
    "classical brackets",
}


@pytest.mark.parametrize(
    ("broken", "also_passing"),
    [
        (
            lambda s, a, b: zero_op(s.dim),
            {"antisymmetry", "jacobi vanishing (1-D first order)"},
        ),
        (
            lambda s, a, b: compose(a, commutator(mult(s), b)),
            {"sandwich decomposition", "structure bracket scaling"},
        ),
    ],
    ids=["zero", "half"],
)
def test_identity_suite_fails_with_a_broken_geomutator(monkeypatch, broken, also_passing):
    """With ``G(s, a, b)`` replaced by 0, or by its half ``a [s, b]``, the
    checks that pass at ``trials=3, seed=7`` are exactly those blind to
    ``G`` and the two the mutant happens to satisfy; every other check
    fails."""
    for module in (brackets, verify, quantum):
        monkeypatch.setattr(module, "geomutator", broken)
    passing = {r.name for r in run_identity_suite(trials=3, seed=7) if r.ok}
    assert passing == _BLIND_TO_G | also_passing
