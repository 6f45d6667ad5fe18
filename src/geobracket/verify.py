"""Randomized identity suite behind the ``verify`` command.

Each check asserts an exact structural identity of the engine on seeded
random inputs.  Checks run in their domain of validity: the cyclic Jacobi
sum of the extended bracket vanishes for one-dimensional first-order
operators (and is checked there), while in higher dimension or at higher
order only the decomposition ``N_cl = N_cc + N_ll`` holds and is checked on
order-2 draws.  Likewise the momentum-momentum bracket is compared against
its exact closed form, which vanishes for i != j only where
``d_i s = d_j s = 0``, so for every ``s`` only in one dimension.

Not every check guards the correction term ``G(s, a, b)``.  Bilinearity,
generalized leibniz, jacobi decomposition and hermitian split hold for any
bilinear ``G`` (the Leibniz check's right side contains ``G`` itself, and
``N_cl = N_cc + N_ll`` follows from bilinearity), so they do not guard it;
nor do constant structure degenerates, where ``[s, .]`` vanishes, and
classical brackets, which never calls it.  ``tests/test_brackets.py`` pins
which checks a wrong ``G`` gets past.

Each identity is stated once, here: the unit tests and the acceptance gate
call these checks, or the ``*_hold(s)`` predicates they are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .brackets import (
    geomutator,
    hermitian_split_qcpb,
    jacobi_residuals,
    qcpb,
    sandwich,
    s_transform,
)
from .classical import StructureMatrix, dynamics_rhs, gpb, gspb
from .functions import const, coord, one, zero
from .operators import commutator, compose, mult
from .quantum import (
    Hamiltonian,
    Params,
    covariant_rhs,
    gdynamics,
    gen_heisenberg_rhs,
    geometric_ccr_suite,
    geomutator_ccr_part,
)
from .randomized import (
    random_antisymmetric_matrix,
    random_diff_op,
    random_first_order_op,
    random_polynomial,
    random_scalar,
    random_structure_fn,
    trial_rng,
)
from .scalars import I


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: int
    trials: int

    @property
    def ok(self) -> bool:
        return self.passed == self.trials


def _pick_dim(rng, max_dim):
    return rng.randint(1, max_dim)


def _draw(rng, max_dim):
    dim = _pick_dim(rng, max_dim)
    s = random_structure_fn(rng, dim)
    a = random_diff_op(rng, dim, max_terms=2)
    b = random_diff_op(rng, dim, max_terms=2)
    return dim, s, a, b


def check_antisymmetry(rng, max_dim) -> bool:
    _, s, a, b = _draw(rng, max_dim)
    forward = qcpb(s, a, b).total
    backward = qcpb(s, b, a).total
    return forward == -backward and qcpb(s, a, a).total.is_zero


def check_bilinearity(rng, max_dim) -> bool:
    dim, s, a, b = _draw(rng, max_dim)
    c = random_diff_op(rng, dim, max_terms=2)
    scalar = random_scalar(rng)
    additive = (
        qcpb(s, a + c, b).total == qcpb(s, a, b).total + qcpb(s, c, b).total
    )
    homogeneous = (
        qcpb(s, a, b.scaled(scalar)).total == qcpb(s, a, b).total.scaled(scalar)
    )
    return additive and homogeneous


def check_leibniz(rng, max_dim) -> bool:
    dim, s, a, b = _draw(rng, max_dim)
    h = random_diff_op(rng, dim, max_order=1, max_terms=2)
    product = compose(h, b)
    expected = (
        compose(h, commutator(a, b))
        + compose(commutator(a, h), b)
        + geomutator(s, a, product)
    )
    return qcpb(s, a, product).total == expected


def check_geomutator_product(rng, max_dim) -> bool:
    dim, s, a, b = _draw(rng, max_dim)
    h = random_diff_op(rng, dim, max_order=1, max_terms=2)
    s_op = mult(s)
    expected = (
        compose(a, compose(commutator(s_op, h), b))
        + compose(a, compose(h, commutator(s_op, b)))
        - compose(compose(h, b), commutator(s_op, a))
    )
    return geomutator(s, a, compose(h, b)) == expected


def check_sandwich_decomposition(rng, max_dim) -> bool:
    _, s, a, b = _draw(rng, max_dim)
    rebuilt = sandwich(s, a, b) - compose(commutator(a, b), mult(s))
    return geomutator(s, a, b) == rebuilt


def check_s_transform_plain(rng, max_dim) -> bool:
    _, s, a, b = _draw(rng, max_dim)
    rebuilt = (
        compose(a, s_transform(s, b, "plain"))
        - compose(b, s_transform(s, a, "plain"))
        - compose(commutator(a, b), mult(s))
    )
    return qcpb(s, a, b).total == rebuilt


def check_s_transform_sg(rng, max_dim) -> bool:
    _, s, a, b = _draw(rng, max_dim)
    rebuilt = compose(a, s_transform(s, b, "sg")) - compose(
        b, s_transform(s, a, "sg")
    )
    return qcpb(s, a, b).total == rebuilt


def jacobi_decomposition_holds(s, a, b, c) -> bool:
    """``N_cl = N_cc + N_ll`` with ``N_cc = 0``, at any order and dimension."""
    res = jacobi_residuals(s, a, b, c)
    return res.n_cc.is_zero and res.n_cl == res.n_cc + res.n_ll


def check_jacobi_decomposition(rng, max_dim) -> bool:
    dim, s, a, b = _draw(rng, max_dim)
    return jacobi_decomposition_holds(s, a, b, random_diff_op(rng, dim, max_terms=2))


def check_jacobi_vanishing_first_order(rng, max_dim) -> bool:
    # The cyclic sum vanishes exactly on the 1-D first-order sector (the
    # correction term of two first-order 1-D operators is a plain
    # function); in higher dimension it keeps a first-order remainder.
    del max_dim
    s = random_structure_fn(rng, 1)
    a = random_first_order_op(rng, 1)
    b = random_first_order_op(rng, 1)
    c = random_first_order_op(rng, 1)
    return jacobi_residuals(s, a, b, c).n_cl.is_zero


def check_degenerate_structure(rng, max_dim) -> bool:
    dim = _pick_dim(rng, max_dim)
    s = const(dim, Fraction(rng.randint(-3, 3)))
    a = random_diff_op(rng, dim, max_terms=2)
    b = random_diff_op(rng, dim, max_terms=2)
    report = qcpb(s, a, b)
    return report.geomutator_part.is_zero and report.total == commutator(a, b)


def structure_bracket_scaling_holds(s, b) -> bool:
    """The extended bracket of ``s .`` itself: ``[s ., b] = (1 + s) [s ., b]``."""
    s_op = mult(s)
    return qcpb(s, s_op, b).total == compose(mult(one(s.dim) + s), commutator(s_op, b))


def check_structure_bracket_scaling(rng, max_dim) -> bool:
    _, s, _, b = _draw(rng, max_dim)
    return structure_bracket_scaling_holds(s, b)


def hermitian_split_holds(report) -> bool:
    """The parts of a ``hermitian_split_qcpb`` report rebuild the combined
    bracket, ``[f, g] = [f+, g+] - [f-, g-] + i ([f-, g+] + [f+, g-])``,
    for the total and for the commutator and correction parts separately."""
    parts = (report.plus_plus, report.minus_minus, report.minus_plus, report.plus_minus)
    for name in ("total", "qpb_part", "geomutator_part"):
        pp, mm, mp, pm = (getattr(part, name) for part in parts)
        if getattr(report.combined, name) != pp - mm + (mp + pm).scaled(I):
            return False
    return True


def check_hermitian_split(rng, max_dim) -> bool:
    dim = _pick_dim(rng, max_dim)
    s = random_structure_fn(rng, dim)
    parts = [random_diff_op(rng, dim, max_terms=2) for _ in range(4)]
    return hermitian_split_holds(hermitian_split_qcpb(s, *parts))


def position_brackets_hold(table) -> bool:
    """``[x_i, p_j] = i hbar theta_ij`` and ``[x_i, x_j] = 0`` on every entry."""
    return all(
        table.position_momentum[i, j].total == table.expected_position_momentum(i, j)
        and table.position_position[i, j].total.is_zero
        for i, j in table.theta
    )


def ccr_table_holds(s, params) -> bool:
    """The position brackets, ``[p_i, p_j] = hbar^2 ((d_j s) d_i - (d_i s) d_j)``
    and the coherence ``G(s, x_i, p_j) / (i hbar) = theta_ij - delta_ij``."""
    table = geometric_ccr_suite(s, params)
    return position_brackets_hold(table) and all(
        table.momentum_momentum[i, j].total == table.expected_momentum_momentum(i, j)
        and geomutator_ccr_part(s, i, j, params)
        == mult(table.theta[i, j] - (one(s.dim) if i == j else zero(s.dim)))
        for i, j in table.theta
    )


def check_ccr_suite(rng, max_dim) -> bool:
    dim = _pick_dim(rng, max_dim)
    return ccr_table_holds(random_polynomial(rng, dim, max_degree=3), Params())


def check_covariant_decomposition(rng, max_dim) -> bool:
    dim = _pick_dim(rng, max_dim)
    s = random_structure_fn(rng, dim)
    h = Hamiltonian(random_diff_op(rng, dim, max_terms=2))
    f = random_diff_op(rng, dim, max_terms=2)
    w = gdynamics(s, h)
    decomposed = gen_heisenberg_rhs(s, h, f) + compose(f, w)
    conserved = covariant_rhs(s, h, h.op).is_zero
    return covariant_rhs(s, h, f) == decomposed and conserved


def position_momentum_expansion_holds(s, j, pairs) -> bool:
    """``{x_a, p_b}_s = {x_a, p_b} + x_a {s, p_b} + p_b sum_q J_aq d_q s``, with
    the J-contraction term built verbatim from the matrix entries."""
    size = 2 * pairs
    for a in range(pairs):
        for b in range(pairs):
            x_a = coord(size, a)
            p_b = coord(size, pairs + b)
            contraction = zero(size)
            for q in range(size):
                if j[a, q]:
                    contraction = contraction + s.diff(q).scaled(j[a, q])
            expected = gpb(x_a, p_b, j) + x_a * gpb(s, p_b, j) + p_b * contraction
            if gspb(s, x_a, p_b, j) != expected:
                return False
    return True


def check_classical_brackets(rng, max_dim) -> bool:
    pairs = _pick_dim(rng, min(max_dim, 2))
    size = 2 * pairs
    j = (
        StructureMatrix.canonical(pairs)
        if rng.random() < 0.5
        else random_antisymmetric_matrix(rng, size)
    )
    s = random_polynomial(rng, size, max_degree=2)
    f = random_polynomial(rng, size, max_degree=2)
    g = random_polynomial(rng, size, max_degree=2)
    h = random_polynomial(rng, size, max_degree=2)
    antisymmetric = gspb(s, f, g, j) == -gspb(s, g, f, j)
    decomposition = gspb(s, f, h, j) == dynamics_rhs(s, h, f, j) + f * gpb(s, h, j)
    expansion = position_momentum_expansion_holds(s, j, pairs)
    return antisymmetric and decomposition and expansion


ALL_CHECKS = (
    ("antisymmetry", check_antisymmetry),
    ("bilinearity", check_bilinearity),
    ("generalized leibniz", check_leibniz),
    ("geomutator product expansion", check_geomutator_product),
    ("sandwich decomposition", check_sandwich_decomposition),
    ("s-transform (plain)", check_s_transform_plain),
    ("s-transform (sg)", check_s_transform_sg),
    ("jacobi decomposition", check_jacobi_decomposition),
    ("jacobi vanishing (1-D first order)", check_jacobi_vanishing_first_order),
    ("constant structure degenerates", check_degenerate_structure),
    ("structure bracket scaling", check_structure_bracket_scaling),
    ("hermitian split", check_hermitian_split),
    ("canonical commutation table", check_ccr_suite),
    ("covariant decomposition", check_covariant_decomposition),
    ("classical brackets", check_classical_brackets),
)


def run_identity_suite(trials: int = 100, seed: int = 0, max_dim: int = 2):
    """Run every check ``trials`` times; returns a list of CheckResult."""
    results = []
    for name, check in ALL_CHECKS:
        passed = 0
        for index in range(trials):
            if check(trial_rng(seed, name, index), max_dim):
                passed += 1
        results.append(CheckResult(name, passed, trials))
    return results

