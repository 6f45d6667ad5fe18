"""Acceptance gate: one check per shipping criterion, with a printed verdict.

Run as ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Two checks (3b and 4b) test vanishing claims that hold only
on a sector: ``[p_i, p_j] = 0`` exactly when ``i == j`` or
``d_i s = d_j s = 0``, and the Jacobi cyclic sum ``N_cl = 0`` on 1-D triples
of order <= 1.  Each asserts the claim on its sector, asserts the documented
behaviour outside it, and prints the first counterexample as its detail.
"""

import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from geobracket import verify
from geobracket.brackets import jacobi_residuals, qcpb
from geobracket.classical import StructureMatrix, gspb
from geobracket.functions import (
    coord,
    cos_of,
    exponential,
    monomial,
    one,
    sin_of,
    zero,
)
from geobracket.grid import (
    GridSpec,
    compare,
    discretize,
    evolve,
    matrix_bracket,
    sample,
)
from geobracket.operators import (
    compose,
    momentum,
    mult,
    partial_d,
    position,
)
from geobracket.printing import format_coef_fn, format_diff_op
from geobracket.quantum import (
    Params,
    covariant_rhs,
    gdynamics,
    gen_heisenberg_rhs,
    geometric_ccr_suite,
    geomentum,
    harmonic_oscillator,
)
from geobracket.randomized import (
    random_antisymmetric_matrix,
    random_diff_op,
    random_periodic_diff_op,
    random_periodic_fn,
    random_polynomial,
    random_structure_fn,
    trial_rng,
)
from geobracket.scalars import ComplexRational

I = ComplexRational(0, 1)
E_IX = exponential(1, (I,))
E_2IX = exponential(1, (ComplexRational(0, 2),))
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def report(tag, label, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {tag:<4} {'PASS' if ok else 'FAIL'} {label}{suffix}")
    assert ok, f"{label}{suffix}"


def test_criterion_1_exponential_pair_closed_form():
    """[F, G] with F = -i e^{ix} d, G = e^{ix} equals e^{2ix}(1 - i s').

    Its commutator part is e^{2ix}, and the total is the commutator part
    plus the correction part.
    """
    start = time.monotonic()
    wave_f = mult(E_IX).scaled(-I) * partial_d(1)
    wave_g = mult(E_IX)
    ok = True
    for s in (zero(1), coord(1, 0), monomial(1, (2,)), cos_of(1)):
        bracket = qcpb(s, wave_f, wave_g)
        expected = mult(E_2IX * (one(1) - s.diff(0).scaled(I)))
        ok = ok and bracket.total == expected
        ok = ok and bracket.qpb_part == mult(E_2IX)
        ok = ok and bracket.total == bracket.qpb_part + bracket.geomutator_part
    elapsed = time.monotonic() - start
    report("1", "exponential pair closed form", ok and elapsed < 1.0,
           f"{elapsed:.3f}s")


def test_criterion_2_canonical_pair_closed_form():
    """[d, x .] equals (1 + x s') and reproduces (1 + x s') sin x on sin x."""
    ok = True
    for s in (zero(1), coord(1, 0), monomial(1, (2,)), cos_of(1)):
        factor = one(1) + coord(1, 0) * s.diff(0)
        total = qcpb(s, partial_d(1), position(1)).total
        ok = ok and total == mult(factor)
        ok = ok and total(sin_of(1)) == factor * sin_of(1)
    report("2", "canonical pair closed form", ok)


def _ccr_draws(count=200):
    for index in range(count):
        dim = index % 3 + 1
        rng = trial_rng(97, "acceptance-ccr", index)
        yield dim, random_polynomial(rng, dim, max_degree=3)


def test_criterion_3a_position_brackets_exact():
    """[x_i, p_j] = i hbar theta_ij and [x_i, x_j] = 0, 200 random draws."""
    start = time.monotonic()
    ok = True
    for _, s in _ccr_draws():
        ok = ok and verify.position_brackets_hold(geometric_ccr_suite(s, Params()))
    elapsed = time.monotonic() - start
    report("3a", "position commutation table", ok and elapsed < 10.0,
           f"200 draws, n in 1..3, {elapsed:.2f}s")


def test_criterion_3b_momentum_momentum_vanishing():
    """[p_i, p_j] = 0 exactly when i == j or d_i s = d_j s = 0.

    Off that sector the bracket is the closed form
    hbar^2 ((d_j s) d_i - (d_i s) d_j), which is nonzero.  On 200 draws
    every entry equals the closed form, an entry vanishes if and only if it
    lies in the sector (so every n = 1 draw vanishes), and at least one
    n >= 2 entry does not vanish; the first such entry is the witness.
    """
    ok = True
    nonzero = 0
    entries = 0
    witness = ""
    for dim, s in _ccr_draws():
        table = geometric_ccr_suite(s, Params())
        for i in range(dim):
            for j in range(dim):
                total = table.momentum_momentum[i, j].total
                ok = ok and total == table.expected_momentum_momentum(i, j)
                in_sector = i == j or (s.diff(i).is_zero and s.diff(j).is_zero)
                ok = ok and total.is_zero == in_sector
                entries += 1
                if not total.is_zero:
                    nonzero += 1
                    if not witness:
                        witness = (
                            f"n={dim}, s={format_coef_fn(s)}: "
                            f"[p_{i + 1}, p_{j + 1}] = {format_diff_op(total)}"
                        )
    report("3b", "momentum-momentum vanishing", ok and nonzero > 0,
           f"{nonzero} of {entries} entries nonzero, "
           f"first: {witness or 'none'}")


def _jacobi_draws(count=100):
    for index in range(count):
        rng = trial_rng(97, "acceptance-jacobi", index)
        dim = rng.randint(1, 2)
        s = random_structure_fn(rng, dim)
        ops = tuple(
            random_diff_op(rng, dim, max_order=2, max_terms=2, max_degree=3)
            for _ in range(3)
        )
        yield s, ops


def _order(op):
    return max((sum(alpha) for alpha in op.terms), default=0)


def test_criterion_4a_jacobi_decomposition():
    """N_cl = N_cc + N_ll exactly on 100 random order-2 triples."""
    start = time.monotonic()
    ok = True
    for s, ops in _jacobi_draws():
        ok = ok and verify.jacobi_decomposition_holds(s, *ops)
    elapsed = time.monotonic() - start
    report("4a", "jacobi decomposition", ok and elapsed < 30.0,
           f"100 triples, {elapsed:.2f}s")


def test_criterion_4b_jacobi_vanishing():
    """N_cl = 0 on 1-D triples of order <= 1; nonzero beyond that sector.

    The cyclic sum of the extended bracket vanishes on 1-D triples whose
    operands all have order <= 1.  In two dimensions, or once an operand
    has order 2, it generally keeps a remainder (4a checks its exact
    decomposition there).  Every in-sector draw must give N_cl = 0, at
    least one draw must be in the sector, and at least one out-of-sector
    draw must leave a nonzero remainder; the first such draw is printed in
    DSL form as the witness.
    """
    in_sector = 0
    vanished = 0
    remainders = 0
    witness = ""
    for s, ops in _jacobi_draws():
        n_cl = jacobi_residuals(s, *ops).n_cl
        orders = tuple(_order(op) for op in ops)
        if s.dim == 1 and max(orders) <= 1:
            in_sector += 1
            vanished += n_cl.is_zero
        elif not n_cl.is_zero:
            remainders += 1
            if not witness:
                a, b, c = (format_diff_op(op) for op in ops)
                witness = (
                    f"n={s.dim}, orders {orders}, s={format_coef_fn(s)}, "
                    f"a={a}, b={b}, c={c}: N_cl has order {_order(n_cl)}"
                )
    report("4b", "jacobi cyclic-sum vanishing",
           vanished == in_sector > 0 and remainders > 0,
           f"{vanished} of {in_sector} in-sector draws zero, {remainders} "
           f"remainders outside, first: {witness or 'none'}")


def _sympy_bracket(s, a, b):
    """``(ab - ba) + a[s, b] - b[s, a]``, ``s`` acting by multiplication."""

    def with_s(op):
        return lambda f: s * op(f) - op(s * f)

    return lambda f: a(b(f)) - b(a(f)) + a(with_s(b)(f)) - b(with_s(a)(f))


def test_vanishing_counterexamples_match_sympy():
    """The 3b and 4b counterexamples, rebuilt in SymPy from the definition.

    SymPy shares no code with the engine: it applies the bracket definition
    to a generic f and must agree with the written-out closed forms and with
    the engine's operators, printed in the DSL and read back by the
    benchmark's independent SymPy reader (``perfbench/sympy_dsl.py``).
    """
    sp = pytest.importorskip("sympy")
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import sympy_dsl
    x1, x2 = sp.symbols("x1 x2")

    # first 3b witness: n = 2, hbar = 1, p_j = -i (d_j + d_j s)
    f = sp.Function("f")(x1, x2)
    s_expr = -sp.Rational(3, 2) * x2 - 3 * x1 + 3 * x1 * x2**2

    def p(x):
        return lambda g: -sp.I * (sp.diff(g, x) + sp.diff(s_expr, x) * g)

    reference = sp.expand(_sympy_bracket(s_expr, p(x1), p(x2))(f))
    closed = (3 - 3 * x2**2) * sp.diff(f, x2) + (
        -sp.Rational(3, 2) + 6 * x1 * x2
    ) * sp.diff(f, x1)
    assert sp.expand(reference - closed) == 0
    s = (
        monomial(2, (0, 1), Fraction(-3, 2))
        + monomial(2, (1, 0), -3)
        + monomial(2, (1, 2), 3)
    )
    engine = qcpb(s, geomentum(s, 0), geomentum(s, 1)).total
    assert sp.expand(sympy_dsl.operator(str(engine), (x1, x2))(f) - reference) == 0

    # 1-D remainder beyond first order: s = x1^2, triple (d1^2, x1, d1)
    g = sp.Function("g")(x1)
    ops = (
        lambda h: sp.diff(h, x1, 2),
        lambda h: x1 * h,
        lambda h: sp.diff(h, x1),
    )
    cyclic = sp.Add(*(
        _sympy_bracket(x1**2, _sympy_bracket(x1**2, u, v), w)(g)
        for u, v, w in (ops, ops[1:] + ops[:1], ops[2:] + ops[:2])
    ))
    assert sp.expand(cyclic - (2 + 8 * x1**2) * g) == 0
    n_cl = jacobi_residuals(
        monomial(1, (2,)), partial_d(1, 0, 2), position(1), partial_d(1)
    ).n_cl
    assert sp.expand(sympy_dsl.operator(str(n_cl), (x1,))(g) - cyclic) == 0


def test_criterion_5_transform_rewritings():
    """Both transform rewritings of the bracket, 100 random pairs."""
    ok = all(
        check(trial_rng(97, "acceptance-transform", index), 2)
        for index in range(100)
        for check in (verify.check_s_transform_plain, verify.check_s_transform_sg)
    )
    report("5", "transform rewritings", ok, "100 pairs")


def _oscillator_cases():
    """``(params, s)`` pairs for criterion 6: ten draws at fixed constants,
    ten with drawn ``hbar`` and ``m``, and fixed cases at other constants,
    among them ``s = x^3``."""
    for index in range(10):
        rng = trial_rng(97, "acceptance-osc", index)
        params = Params(hbar=Fraction(2), mass=Fraction(3), omega=Fraction(2))
        yield params, random_structure_fn(rng, 1)
    for index in range(10):
        rng = trial_rng(21, "w-form", index)
        params = Params(hbar=Fraction(rng.randint(1, 3)), mass=Fraction(rng.randint(1, 3)))
        yield params, random_structure_fn(rng, 1)
    yield Params(mass=Fraction(2)), random_structure_fn(trial_rng(21, "x-rate", 0), 1)
    yield Params(), monomial(1, (3,))
    yield (
        Params(mass=Fraction(2), omega=Fraction(3)),
        random_structure_fn(trial_rng(21, "p-rate", 0), 1),
    )
    for index in range(5):
        yield Params(), random_structure_fn(trial_rng(21, "conserved", index), 1)
    yield Params(), random_structure_fn(trial_rng(21, "dh", 0), 1)


def test_criterion_6_oscillator_suite():
    """Flow generator and rate equations of the quadratic Hamiltonian.

    On every case: ``w`` in momentum form and in normal-ordered form, the
    plain and covariant rates of ``x``, the plain rate of ``p``, covariant
    conservation of ``H`` and the plain rate ``-H w`` of ``H``.
    """
    x = position(1)
    ok = True
    cases = list(_oscillator_cases())
    for params, s in cases:
        h = harmonic_oscillator(params)
        p = momentum(1, hbar=params.hbar)
        w = gdynamics(s, h)
        # momentum-form reconstruction of the generator
        rebuilt = (
            (mult(compose(p, p)(s)) + compose(mult(p(s)), p).scaled(2))
            .scaled(ComplexRational(0, Fraction(1) / params.hbar))
            .scaled(Fraction(1, 2) / params.mass)
        )
        ok = ok and w == rebuilt
        # normal-ordered form: -(i hbar / 2m)(s'' + 2 s' d)
        normal = (
            mult(s.diff(0).diff(0))
            + compose(mult(s.diff(0)), partial_d(1)).scaled(2)
        ).scaled(ComplexRational(0, -params.hbar * Fraction(1, 2) / params.mass))
        ok = ok and w == normal
        ok = ok and covariant_rhs(s, h, x) == p.scaled(
            Fraction(1) / params.mass
        ) + compose(x, w)
        ok = ok and gen_heisenberg_rhs(s, h, x) == p.scaled(
            Fraction(1) / params.mass
        )
        ok = ok and gen_heisenberg_rhs(s, h, p) == mult(coord(1, 0)).scaled(
            -params.mass * params.omega**2
        ) - compose(h.op, mult(s.diff(0)))
        ok = ok and covariant_rhs(s, h, h.op).is_zero
        ok = ok and gen_heisenberg_rhs(s, h, h.op) == compose(h.op, w).scaled(-1)
    report("6", "oscillator dynamics suite", ok, f"{len(cases)} structure functions")


def test_criterion_7_oracle_homomorphism():
    """Symbolic-then-discretize matches matrix bracket at 1e-8, N = 256."""
    start = time.monotonic()
    spec = GridSpec(256)
    ok = True
    worst = 0.0
    # the worked exponential pair first
    s0 = cos_of(1)
    wave_f = mult(E_IX).scaled(-I) * partial_d(1)
    wave_g = mult(E_IX)
    rep = compare(
        qcpb(s0, wave_f, wave_g).total,
        matrix_bracket(s0, wave_f, wave_g, spec, "qcpb"),
        E_IX,
        1e-8,
    )
    ok = ok and rep.passed
    worst = max(worst, rep.l2_residual, rep.spectral_residual)
    draws = 0
    index = 0
    while draws < 20:
        rng = trial_rng(97, "acceptance-oracle", index)
        index += 1
        s = random_periodic_fn(rng, real=True)
        a = random_periodic_diff_op(rng)
        b = random_periodic_diff_op(rng)
        symbolic = qcpb(s, a, b).total
        if symbolic.is_zero:
            continue
        draws += 1
        rep = compare(symbolic, matrix_bracket(s, a, b, spec, "qcpb"), E_IX, 1e-8)
        ok = ok and rep.passed
        worst = max(worst, rep.l2_residual, rep.spectral_residual)
    elapsed = time.monotonic() - start
    report("7", "oracle homomorphism", ok and elapsed < 20.0,
           f"worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_8_dynamics_reduction():
    """Flat-structure evolution matches exponential conjugation at 1e-6."""
    spec = GridSpec(64)
    h_op = partial_d(1, 0, 2).scaled(Fraction(-1, 2)) + mult(cos_of(1))
    f0 = mult(cos_of(1))
    result = evolve(
        zero(1), h_op, f0, t_final=1.0, steps=2000, spec=spec, psi=E_IX
    )
    h = discretize(h_op, spec).matrix
    u = expm(-1j * h)
    exact = u.conj().T @ discretize(f0, spec).matrix @ u
    error = float(
        np.linalg.norm(result.final.matrix - exact) / np.linalg.norm(exact)
    )
    # s = 0 and H Hermitian: the flow is unitary, so ||F||_F is conserved
    drift = max(abs(g - 1.0) for g in result.growth)
    ok = error <= 1e-6 and drift <= 1e-6

    # covariant flow of the Hamiltonian itself is frozen at rounding level:
    # F ends at h bitwise, and every sample reads the values of F = h,
    # growth 1.0 included
    covariant = evolve(
        cos_of(1), h_op, h_op, t_final=1.0, steps=200, spec=spec, law="covariant",
        psi=one(1),
    )
    frozen = (
        np.array_equal(covariant.final.matrix, h.astype(complex))
        and covariant.expectations == [covariant.expectations[0]] * 101
        and covariant.growth == [1.0] * 101
    )
    scale = -1j
    s_mat = np.diag(sample(cos_of(1), spec))
    rhs = scale * (
        (h @ h - h @ h) + h @ (s_mat @ h - h @ s_mat) - h @ (s_mat @ h - h @ s_mat)
    )
    rhs_norm = float(np.linalg.norm(rhs))
    ok = ok and frozen and rhs_norm <= 1e-12
    report("8", "dynamics reduction", ok,
           f"reduction error {error:.2e}, norm drift {drift:.1e}, "
           f"covariant RHS {rhs_norm:.1e}")


def test_criterion_9_classical_position_momentum_bracket():
    """{x_j, p_k}_s = {x_j, p_k} + x_j {s, p_k} + p_k J_jq d_q s exactly."""
    ok = True
    for index in range(40):
        rng = trial_rng(97, "acceptance-cche", index)
        pairs = rng.randint(1, 2)
        size = 2 * pairs
        s = random_polynomial(rng, size, max_degree=3)
        canonical = StructureMatrix.canonical(pairs)
        for j in (canonical, random_antisymmetric_matrix(rng, size)):
            ok = ok and verify.position_momentum_expansion_holds(s, j, pairs)
        for a in range(pairs):
            for b in range(pairs):
                x_a = coord(size, a)
                p_b = coord(size, pairs + b)
                delta = one(size) if a == b else zero(size)
                explicit = delta + x_a * s.diff(b) + p_b * s.diff(pairs + a)
                ok = ok and gspb(s, x_a, p_b, canonical) == explicit
    report("9", "classical position-momentum bracket", ok,
           "40 draws, canonical and random J")


def test_criterion_10_verify_determinism():
    """Two identical runs of the verify command emit identical bytes."""
    command = [sys.executable, "-m", "geobracket", "verify", "--seed", "7"]
    # Both runs start before either is read, so they run concurrently.
    first, second = [
        subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        for _ in range(2)
    ]
    first_out, _ = first.communicate()
    second_out, _ = second.communicate()
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first_out == second_out
        and first_out
    )
    report("10", "verify determinism", bool(ok),
           f"exit {first.returncode}, {len(first_out)} bytes")
