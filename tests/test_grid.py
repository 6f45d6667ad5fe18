"""Matrix oracle: discretization, bracket recomputation, and flows."""

import math
import tracemalloc
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from refusals import non_periodic_message
from scipy.linalg import expm

from geobracket.brackets import geomutator, qcpb
from geobracket.errors import (
    DimensionMismatch,
    EvolutionDiverged,
    NonPeriodicCoefficient,
)
from geobracket.functions import cos_of, coord, exponential, monomial, one, zero
from geobracket import cli, printing
from geobracket import grid as grid_module
from geobracket.grid import (
    LAWS,
    MAX_POINTS,
    ComparisonReport,
    GridSpec,
    _norm2,
    _resolved_band,
    compare,
    derivative_matrix,
    discretize,
    eigenvalues,
    evolve,
    is_hermitian,
    matrix_bracket,
    sample,
)
from geobracket.operators import commutator, mult, partial_d, position, zero_op
from geobracket.parsing import parse_function, parse_operator
from geobracket.quantum import geomentum
from geobracket.randomized import (
    random_periodic_diff_op,
    random_periodic_fn,
    trial_rng,
)
from geobracket.scalars import ComplexRational

I = ComplexRational(0, 1)
E_IX = exponential(1, (I,))
X1_SQUARED = monomial(1, (2,))


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(8)
    with pytest.raises(ValueError):
        GridSpec(100)  # not a power of two
    with pytest.raises(ValueError):
        GridSpec(64, "upwind")
    assert GridSpec().n_points == 256


def test_spec_size_cap():
    assert MAX_POINTS == 2048
    assert GridSpec(MAX_POINTS, "central2").n_points == MAX_POINTS
    for n in (2 * MAX_POINTS, 1 << 20, 1 << 40):
        with pytest.raises(ValueError, match="n_points must be <= 2048"):
            GridSpec(n)


def test_spectral_matrix_is_anti_hermitian_with_integer_spectrum():
    spec = GridSpec(64)
    d = derivative_matrix(spec)
    assert np.linalg.norm(d + d.conj().T) < 1e-12
    ev = np.sort(np.linalg.eigvals(d).imag)
    assert np.max(np.abs(np.linalg.eigvals(d).real)) < 1e-10
    assert np.allclose(ev, np.arange(-31, 33), atol=1e-8)


def test_spectral_derivative_exact_on_resolved_mode():
    spec = GridSpec(256)
    d = discretize(partial_d(1), spec)
    psi = sample(E_IX, spec)
    assert np.max(np.abs(d.matrix @ psi - 1j * psi)) <= 1e-10


def test_diagonal_sampling():
    spec = GridSpec(64)
    g = discretize(mult(E_IX), spec)
    assert np.allclose(np.diag(g.matrix), np.exp(1j * spec.points()))
    assert np.count_nonzero(g.matrix - np.diag(np.diag(g.matrix))) == 0


def test_polynomial_coefficient_policy():
    with pytest.raises(NonPeriodicCoefficient):
        discretize(position(1), GridSpec(64, "spectral"))
    g = discretize(position(1), GridSpec(64, "central2"))
    assert np.allclose(np.diag(g.matrix), GridSpec(64).points())


@pytest.mark.parametrize("kind", ["geomutator", "qcpb"])
@pytest.mark.parametrize(
    "s, name", [(coord(1, 0), "x1"), (X1_SQUARED, "x1^2")], ids=["x1", "x1^2"]
)
def test_spectral_bracket_refuses_non_periodic_s_before_discretizing(
    monkeypatch, s, name, kind
):
    def no_discretize(*args, **kwargs):
        pytest.fail("an operator was discretized before s was checked")

    monkeypatch.setattr(grid_module, "discretize", no_discretize)
    with pytest.raises(NonPeriodicCoefficient) as refusal:
        matrix_bracket(s, partial_d(1), mult(E_IX), GridSpec(64), kind)
    assert str(refusal.value) == non_periodic_message(name)


def test_matrix_bracket_refuses_an_unknown_kind_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        pytest.fail("an input was sampled before the kind was checked")

    monkeypatch.setattr(grid_module, "sample", no_sampling)
    monkeypatch.setattr(grid_module, "discretize", no_sampling)
    with pytest.raises(ValueError) as refusal:
        matrix_bracket(cos_of(1), partial_d(1), mult(E_IX), GridSpec(64), "commutator")
    assert str(refusal.value) == "unknown bracket kind 'commutator'"


def _grid_check_refusal(capsys, flag):
    """The message of a spectral ``grid-check`` whose ``flag`` is ``x1^2``."""
    options = {"--s": "exp(i*x1) + exp(-i*x1)", "--a": "d1", "--b": "exp(i*x1)",
               "--psi": "exp(i*x1)", flag: "x1^2"}
    argv = ["grid-check", "--n", "32"] + [item for pair in options.items() for item in pair]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    prefix = "invalid input: "
    assert err.startswith(prefix) and err.endswith("\n")
    return err[len(prefix):-1]


_SPEC32 = GridSpec(32)
_FLOW32 = dict(t_final=0.01, steps=2, spec=_SPEC32)


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(lambda: discretize(mult(X1_SQUARED) * partial_d(1), _SPEC32),
                     id="discretize-coefficient"),
        pytest.param(lambda: matrix_bracket(X1_SQUARED, partial_d(1), mult(E_IX), _SPEC32,
                                            "geomutator"), id="matrix_bracket-geomutator-s"),
        pytest.param(lambda: matrix_bracket(X1_SQUARED, partial_d(1), mult(E_IX), _SPEC32,
                                            "qcpb"), id="matrix_bracket-qcpb-s"),
        pytest.param(lambda: compare(partial_d(1), discretize(partial_d(1), _SPEC32),
                                     X1_SQUARED), id="compare-psi"),
        pytest.param(lambda: evolve(X1_SQUARED, partial_d(1), partial_d(1), psi=E_IX,
                                    **_FLOW32), id="evolve-s"),
        pytest.param(lambda: evolve(cos_of(1), partial_d(1), partial_d(1), psi=X1_SQUARED,
                                    **_FLOW32), id="evolve-psi"),
        pytest.param("--a", id="cli-a"),
        pytest.param("--s", id="cli-s"),
        pytest.param("--psi", id="cli-psi"),
    ],
)
def test_every_entry_point_states_the_periodicity_rule_alike(capsys, entry):
    """A call, or the ``grid-check`` flag that carries ``x1^2``."""
    if isinstance(entry, str):
        message = _grid_check_refusal(capsys, entry)
    else:
        with pytest.raises(NonPeriodicCoefficient) as refusal:
            entry()
        message = str(refusal.value)
    assert message == non_periodic_message("x1^2")


@pytest.mark.parametrize(
    "scheme, kind",
    [("spectral", "qpb"), ("central2", "geomutator"), ("central2", "qcpb")],
)
def test_polynomial_s_is_accepted_where_it_is_not_sampled_spectrally(scheme, kind):
    spec = GridSpec(64, scheme)
    out = matrix_bracket(monomial(1, (2,)), partial_d(1), mult(E_IX), spec, kind)
    assert out.matrix.shape == (64, 64)


def test_two_dimensional_rejected():
    with pytest.raises(DimensionMismatch):
        discretize(partial_d(2), GridSpec(64))
    with pytest.raises(DimensionMismatch) as excinfo:
        sample(one(2), GridSpec(16))
    assert str(excinfo.value) == "grid sampling requires 1-D functions"


def test_diagonal_matrices_commute_exactly():
    spec = GridSpec(64)
    a = discretize(mult(E_IX), spec).matrix
    b = discretize(mult(cos_of(1)), spec).matrix
    assert np.array_equal(a @ b, b @ a)


def test_matrix_bracket_self_is_zero():
    spec = GridSpec(64)
    a = mult(E_IX).scaled(-I) * partial_d(1)
    s = cos_of(1)
    out = matrix_bracket(s, a, a, spec, "geomutator")
    assert np.linalg.norm(out.matrix) < 1e-12


def test_wave_pair_bracket_matches_diagonal():
    spec = GridSpec(256)
    f = mult(E_IX).scaled(-I) * partial_d(1)
    g = mult(E_IX)
    out = matrix_bracket(zero(1), f, g, spec, "qpb")
    doubled = mult(exponential(1, (ComplexRational(0, 2),)))
    report = compare(doubled, out, E_IX, 1e-8)
    assert report.passed, (report.l2_residual, report.spectral_residual)
    action = out.matrix @ sample(E_IX, spec)
    expected = np.exp(2j * spec.points()) * sample(E_IX, spec)
    assert np.max(np.abs(action - expected)) <= 1e-8


def test_wave_pair_extended_bracket_matches_symbolic():
    spec = GridSpec(256)
    s = cos_of(1)
    f = mult(E_IX).scaled(-I) * partial_d(1)
    g = mult(E_IX)
    symbolic = qcpb(s, f, g).total
    numeric = matrix_bracket(s, f, g, spec, "qcpb")
    report = compare(symbolic, numeric, E_IX, 1e-8)
    assert report.passed


def test_compare_identical_source():
    spec = GridSpec(64)
    op = mult(cos_of(1)) * partial_d(1)
    report = compare(op, discretize(op, spec), E_IX, 1e-8)
    assert report.l2_residual <= 1e-12
    assert report.spectral_residual <= 1e-12


def test_compare_detects_injected_fault():
    spec = GridSpec(256)
    f = mult(E_IX).scaled(-I) * partial_d(1)
    g = mult(E_IX)
    s = cos_of(1)
    symbolic = qcpb(s, f, g).total
    perturbed = symbolic + mult(one(1).scaled(Fraction(1, 1000)))
    report = compare(perturbed, matrix_bracket(s, f, g, spec, "qcpb"), E_IX, 1e-8)
    assert report.l2_residual >= 1e-4
    assert report.spectral_residual >= 1e-4
    assert not report.passed


def test_compare_refuses_central2_before_sampling(monkeypatch):
    def no_sampling(*args, **kwargs):
        pytest.fail("an input was sampled before the scheme was checked")

    numeric = discretize(partial_d(1), GridSpec(64, "central2"))
    monkeypatch.setattr(grid_module, "sample", no_sampling)
    monkeypatch.setattr(grid_module, "discretize", no_sampling)
    with pytest.raises(ValueError) as refusal:
        compare(partial_d(1), numeric, E_IX)
    assert str(refusal.value) == "compare requires the spectral scheme, got 'central2'"


def test_compare_requires_periodic_state():
    spec = GridSpec(64)
    op = mult(cos_of(1))
    with pytest.raises(NonPeriodicCoefficient):
        compare(op, discretize(op, spec), coord(1, 0), 1e-8)


def test_compare_names_a_symbolic_matrix_that_is_not_finite():
    # 10^306 times the D^2 diagonal (about -341 at n = 64) overflows.
    symbolic = partial_d(1, 0, 2).scaled(ComplexRational(10**306))
    with pytest.raises(ValueError) as refusal:
        compare(symbolic, discretize(zero_op(1), GridSpec(64)), E_IX)
    assert str(refusal.value) == (
        f"the matrix entries of {symbolic} are not finite in double precision"
    )


def test_a_finite_oracle_check_prints_no_operand(monkeypatch):
    """Refusal messages name their operands, but only a refusal renders
    them: a passing bracket and comparison never call the printer."""
    def no_printing(*args, **kwargs):
        pytest.fail("a finite result rendered an operand")

    spec = GridSpec(64)
    s, a, b = cos_of(1), mult(E_IX).scaled(-I) * partial_d(1), mult(E_IX)
    symbolic = qcpb(s, a, b).total
    monkeypatch.setattr(printing, "format_coef_fn", no_printing)
    monkeypatch.setattr(printing, "format_diff_op", no_printing)
    numeric = matrix_bracket(s, a, b, spec, "qcpb")
    assert compare(symbolic, numeric, E_IX).passed


def draw_nondegenerate_bracket(rng):
    """Periodic (s, a, b) whose extended bracket is not identically zero."""
    while True:
        s = random_periodic_fn(rng, real=True)
        a = random_periodic_diff_op(rng)
        b = random_periodic_diff_op(rng)
        report = qcpb(s, a, b)
        if not report.total.is_zero:
            return s, a, b, report.total


@pytest.mark.parametrize("index", range(20))
def test_bracket_homomorphism(index):
    """Symbolic bracket then discretize == discretize then matrix bracket."""
    rng = trial_rng(41, "homomorphism", index)
    spec = GridSpec(256)
    s, a, b, symbolic = draw_nondegenerate_bracket(rng)
    numeric = matrix_bracket(s, a, b, spec, "qcpb")
    report = compare(symbolic, numeric, E_IX, 1e-8)
    assert report.passed, (report.l2_residual, report.spectral_residual)


def _kinetic_plus_cosine():
    return partial_d(1, 0, 2).scaled(Fraction(-1, 2)) + mult(cos_of(1))


def test_covariant_evolution_of_hamiltonian_is_frozen():
    spec = GridSpec(64)
    h_op = _kinetic_plus_cosine()
    result = evolve(
        cos_of(1),
        h_op,
        h_op,
        t_final=1.0,
        steps=100,
        spec=spec,
        law="covariant",
        psi=one(1),
    )
    h = discretize(h_op, spec).matrix
    assert np.array_equal(result.final.matrix, h.astype(complex))
    # F is h at every sample, so every sample reads the same values bitwise,
    # and ||F(t)|| / ||F(0)|| is x / x.
    assert result.expectations == [result.expectations[0]] * 101
    assert result.growth == [1.0] * 101


def test_evolve_keeps_no_per_sample_matrices():
    """A flow holds O(1) dense matrices, not one per sample: at n = 64 a
    per-sample copy is 64 KiB, so 101 samples would add 6.5 MiB."""
    spec = GridSpec(64)
    h_op = _kinetic_plus_cosine()
    tracemalloc.start()
    try:
        result = evolve(
            cos_of(1), h_op, mult(cos_of(1)), t_final=0.1, steps=100, spec=spec,
            psi=E_IX,
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.times) == 101
    assert peak < 3 * 2**20, peak


class _ProductCountingMatrix(np.ndarray):
    """An array that counts the matrix-matrix products it takes part in.

    Every ufunc on it runs on plain arrays, and a fresh result is viewed as
    this class again, so the count follows the matrices through a flow."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.matmul and all(np.ndim(x) == 2 for x in inputs):
            _ProductCountingMatrix.products += 1
        inputs = [np.asarray(x) for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(np.asarray(x) for x in out)
        result = getattr(ufunc, method)(*inputs, **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(type(self)) if isinstance(result, np.ndarray) else result


def _counted_flow(monkeypatch, s, h_op, f0, **kwargs):
    """``evolve`` with every discretized matrix counting its products."""
    plain_discretize = grid_module.discretize

    def counting_discretize(op, spec):
        matrix = plain_discretize(op, spec).matrix
        return grid_module.GridOp(matrix.view(_ProductCountingMatrix), spec)

    monkeypatch.setattr(grid_module, "discretize", counting_discretize)
    monkeypatch.setattr(_ProductCountingMatrix, "products", 0)
    result = evolve(s, h_op, f0, **kwargs)
    assert isinstance(result.final.matrix, _ProductCountingMatrix)
    return result


@pytest.mark.parametrize("law", ["generalized_heisenberg", "covariant"])
def test_flow_takes_eight_products_per_step_and_none_per_sample(monkeypatch, law):
    result = _counted_flow(
        monkeypatch, cos_of(1).scaled(Fraction(1, 8)), _kinetic_plus_cosine(), mult(cos_of(1)),
        t_final=0.1, steps=200, spec=GridSpec(32), law=law, psi=E_IX,
    )
    assert len(result.times) == 101
    assert _ProductCountingMatrix.products == 8 * 200


@pytest.mark.parametrize("law", ["generalized_heisenberg", "covariant"])
@pytest.mark.parametrize("n, per_step", [(32, 8), (128, 0)])
def test_central2_flow_takes_dense_products_below_the_band_cut(monkeypatch, law, n, per_step):
    """A ``central2`` second-order Hamiltonian has three nonzero wrapped
    diagonals: more than ``n // 16`` = 2 at n = 32, so every stage takes two
    dense products, and fewer than 8 at n = 128, so no stage takes one."""
    s, h_op, f0 = _flow_scenario("central2")
    _counted_flow(
        monkeypatch, s, h_op, f0, t_final=0.1, steps=20, spec=GridSpec(n, "central2"),
        law=law, psi=E_IX,
    )
    assert _ProductCountingMatrix.products == per_step * 20


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("role", ["s", "psi"])
def test_spectral_evolve_refuses_non_periodic_s_or_psi_before_discretizing(
    monkeypatch, role, law
):
    def no_discretize(*args, **kwargs):
        pytest.fail("an operator was discretized before s and psi were checked")

    monkeypatch.setattr(grid_module, "discretize", no_discretize)
    inputs = {"s": cos_of(1), "psi": E_IX, role: X1_SQUARED}
    with pytest.raises(NonPeriodicCoefficient) as refusal:
        evolve(inputs["s"], _kinetic_plus_cosine(), mult(cos_of(1)), psi=inputs["psi"],
               law=law, **_FLOW32)
    assert str(refusal.value) == non_periodic_message("x1^2")


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("role", ["hamiltonian", "f0"])
def test_spectral_evolve_refuses_non_periodic_operators(role, law):
    operators = {"hamiltonian": _kinetic_plus_cosine(), "f0": mult(cos_of(1)),
                 role: mult(X1_SQUARED)}
    with pytest.raises(NonPeriodicCoefficient) as refusal:
        evolve(cos_of(1), operators["hamiltonian"], operators["f0"], psi=E_IX,
               law=law, **_FLOW32)
    assert str(refusal.value) == non_periodic_message("x1^2")


def test_spectral_evolve_refuses_a_polynomial_flow():
    """This flow once ran and read the expectation 2.3e8 + 1.4e8i."""
    with pytest.raises(NonPeriodicCoefficient) as refusal:
        evolve(X1_SQUARED, partial_d(1, 0, 2).scaled(-1), partial_d(1),
               psi=coord(1, 0), **_FLOW32)
    assert str(refusal.value) == non_periodic_message("x1^2")


def test_growth_of_a_zero_operator_is_zero():
    result = evolve(
        cos_of(1), _kinetic_plus_cosine(), zero_op(1), t_final=0.1, steps=10,
        spec=GridSpec(16), psi=E_IX,
    )
    assert result.growth == [0.0] * 11


def test_rk4_is_fourth_order():
    spec = GridSpec(32)
    h_op = _kinetic_plus_cosine()
    f0 = mult(cos_of(1))
    h = discretize(h_op, spec).matrix
    f_start = discretize(f0, spec).matrix
    u = expm(-1j * h)
    exact = u.conj().T @ f_start @ u
    errors = []
    for steps in (200, 400):
        result = evolve(
            zero(1), h_op, f0, t_final=1.0, steps=steps, spec=spec, psi=one(1)
        )
        errors.append(np.linalg.norm(result.final.matrix - exact))
    factor = errors[0] / errors[1]
    assert 12.0 <= factor <= 20.0


@pytest.mark.parametrize(
    "options, message",
    [
        ({"law": "bogus"}, f"law must be one of {LAWS}"),
        ({"steps": 0}, "steps must be >= 1"),
    ],
    ids=["unknown-law", "zero-steps"],
)
def test_evolve_refuses_a_bad_law_or_step_count(options, message):
    arguments = {"t_final": 0.1, "steps": 10, "spec": GridSpec(16), "psi": E_IX, **options}
    with pytest.raises(ValueError) as excinfo:
        evolve(cos_of(1), _kinetic_plus_cosine(), zero_op(1), **arguments)
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == message


def test_evolution_divergence_aborts():
    # A step far outside the RK4 stability region blows up quickly.
    spec = GridSpec(64)
    h_op = partial_d(1, 0, 2).scaled(Fraction(-1, 2))
    with pytest.raises(EvolutionDiverged):
        evolve(
            zero(1), h_op, mult(cos_of(1)), t_final=500.0, steps=60, spec=spec,
            psi=one(1),
        )


def test_csv_format():
    spec = GridSpec(16)
    result = evolve(
        zero(1),
        _kinetic_plus_cosine(),
        mult(cos_of(1)),
        t_final=0.1,
        steps=10,
        spec=spec,
        psi=E_IX,
    )
    lines = list(result.csv_lines())
    assert lines[0] == "t,re_expect,im_expect,growth"
    assert len(lines) >= 3
    for row in lines[1:]:
        parts = row.split(",")
        assert len(parts) == 4
        float(parts[0])  # parseable


def test_geomentum_hermiticity_report():
    spec = GridSpec(64, "central2")
    flat = discretize(geomentum(zero(1)), spec)
    # -i d with an antisymmetric real stencil is Hermitian
    assert is_hermitian(flat)
    shifted = discretize(geomentum(monomial(1, (2,))), spec)
    assert not is_hermitian(shifted)


def test_eigenvalue_report_is_sorted():
    spec = GridSpec(16)
    values = eigenvalues(discretize(partial_d(1), spec))
    reals = values.real
    assert all(reals[i] <= reals[i + 1] + 1e-12 for i in range(len(reals) - 1))


# -- structure-aware realization against the dense reference formulation ------


def _dense_discretize(op, spec):
    """``sum diag(c_alpha) D^alpha`` with dense diagonals and fresh powers."""
    d1 = derivative_matrix(spec)
    out = np.zeros((spec.n_points, spec.n_points), dtype=complex)
    for (order,), coeff in op.terms.items():
        out += np.diag(sample(coeff, spec)) @ np.linalg.matrix_power(d1, order)
    return out


def _dense_bracket(s, a, b, spec, kind):
    s_mat = np.diag(sample(s, spec))
    a_mat = _dense_discretize(a, spec)
    b_mat = _dense_discretize(b, spec)

    def comm(x, y):
        return x @ y - y @ x

    qpb = comm(a_mat, b_mat)
    geo = a_mat @ comm(s_mat, b_mat) - b_mat @ comm(s_mat, a_mat)
    return {"qpb": qpb, "geomutator": geo, "qcpb": qpb + geo}[kind]


def _old_band_projector(n, band):
    wavenumbers = np.fft.fftfreq(n, d=1.0 / n)
    mask = (np.abs(wavenumbers) <= band).astype(float)
    modes = np.fft.fft(np.eye(n), axis=0)
    return np.real(np.fft.ifft(mask[:, None] * modes, axis=0))


def _old_derivative_matrix(spec):
    n = spec.n_points
    if spec.scheme == "spectral":
        wavenumbers = np.fft.fftfreq(n, d=1.0 / n)
        wavenumbers[n // 2] = n / 2
        modes = np.fft.fft(np.eye(n), axis=0)
        return np.fft.ifft(1j * wavenumbers[:, None] * modes, axis=0)
    previous = np.roll(np.eye(n), -1, axis=1)  # (previous @ f)[i] = f[i-1]
    following = np.roll(np.eye(n), 1, axis=1)  # (following @ f)[i] = f[i+1]
    return (following - previous) / (2.0 * spec.spacing)


@pytest.mark.parametrize("n", [16, 256, 1024])
def test_central2_derivative_matrix_matches_roll_construction_bitwise(n):
    spec = GridSpec(n, "central2")
    out = derivative_matrix(spec)
    ref = _old_derivative_matrix(spec)
    assert out.dtype == ref.dtype
    assert out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [16, 64, 1024])
def test_central2_derivative_matrix_differentiates_sine(n):
    # (sin(x + h) - sin(x - h)) / (2h) = cos(x) sin(h) / h, within h^2 / 6.
    spec = GridSpec(n, "central2")
    x = spec.points()
    error = np.max(np.abs(derivative_matrix(spec) @ np.sin(x) - np.cos(x)))
    assert error <= spec.spacing**2


@pytest.mark.parametrize("n", [16, 256, 1024])
def test_spectral_derivative_matrix_matches_eye_fft_construction(n):
    spec = GridSpec(n)
    out = derivative_matrix(spec)
    ref = _old_derivative_matrix(spec)
    assert out.dtype == ref.dtype
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_discretize_matches_dense_reference_bitwise_under_central2():
    spec = GridSpec(64, "central2")
    x1 = coord(1, 0)
    op = (
        mult(monomial(1, (2,))) * partial_d(1, 0, 2)
        + mult(x1.scaled(I)) * partial_d(1, 0, 3)
        + partial_d(1)
        + mult(cos_of(1) + x1)
    )
    assert np.array_equal(discretize(op, spec).matrix, _dense_discretize(op, spec))


@pytest.mark.parametrize("index", range(5))
def test_discretize_matches_dense_reference_under_spectral(index):
    spec = GridSpec(128)
    op = random_periodic_diff_op(trial_rng(5, "dense-reference", index))
    ref = _dense_discretize(op, spec)
    out = discretize(op, spec).matrix
    assert np.max(np.abs(out - ref)) <= 8 * np.finfo(float).eps * np.max(np.abs(ref))


def _nondegenerate_parts(rng):
    """Seeded periodic ``(s, a, b)`` whose commutator and geomutator are
    both nonzero."""
    while True:
        s = random_periodic_fn(rng, real=True)
        a = random_periodic_diff_op(rng)
        b = random_periodic_diff_op(rng)
        if not (commutator(a, b).is_zero or geomutator(s, a, b).is_zero):
            return s, a, b


@pytest.mark.parametrize("kind", ["qpb", "geomutator", "qcpb"])
@pytest.mark.parametrize("index", range(3))
def test_matrix_bracket_matches_dense_reference(kind, index):
    spec = GridSpec(64)
    s, a, b = _nondegenerate_parts(trial_rng(7, "dense-bracket", index))
    ref = _dense_bracket(s, a, b, spec, kind)
    out = matrix_bracket(s, a, b, spec, kind).matrix
    assert np.linalg.norm(ref) > 1.0
    assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [64, 256])
def test_band_limited_norm_matches_projector(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    expected = np.linalg.norm(x @ _old_band_projector(n, n // 4), 2)
    columns = np.fft.ifft(x, axis=1)[:, _resolved_band(n)]
    assert np.isclose(_norm2(columns), expected, rtol=1e-13, atol=0)


def _count_builds(monkeypatch):
    """Record the arguments, ``(spec, order)``, of each ``derivative_matrix`` call."""
    calls = []

    def counting(*args):
        calls.append(args)
        return derivative_matrix(*args)

    monkeypatch.setattr(grid_module, "derivative_matrix", counting)
    return calls


def test_one_spec_builds_the_derivative_matrix_once(monkeypatch):
    # Once per (spec, order) used: a and b use orders 1 and 2, and so does
    # the bracket's total.
    calls = _count_builds(monkeypatch)
    spec = GridSpec(64)
    s = cos_of(1)
    a = mult(E_IX).scaled(-I) * partial_d(1)
    b = mult(E_IX) * partial_d(1, 0, 2) + mult(E_IX)
    discretize(a, spec)
    numeric = matrix_bracket(s, a, b, spec, "qcpb")
    compare(qcpb(s, a, b).total, numeric, E_IX, 1e-8)
    assert calls == [(spec, 1), (spec, 2)]


def test_spectral_second_order_operator_builds_only_its_order(monkeypatch):
    calls = _count_builds(monkeypatch)
    spec = GridSpec(64)
    discretize(mult(E_IX) * partial_d(1, 0, 2), spec)
    assert calls == [(spec, 2)]


def test_cached_derivative_powers_are_read_only():
    spec = GridSpec(32)
    for order in (0, 1, 2):
        power = spec.derivative_power(order)
        assert power is spec.derivative_power(order)
        with pytest.raises(ValueError):
            power[0, 0] = 1.0


def test_grid_spec_equality_and_hash_ignore_the_cache():
    warm = GridSpec(64, "central2")
    warm.derivative_power(2)
    cold = GridSpec(64, "central2")
    assert warm == cold
    assert hash(warm) == hash(cold)
    assert {warm: "spec"}[cold] == "spec"
    assert GridSpec(64) != cold


# -- spectral derivative powers, the band-limited norm, and the flow loop --


@pytest.mark.parametrize("n", [16, 256, 1024])
def test_spectral_derivative_power_is_the_symbol_circulant(n):
    spec = GridSpec(n)
    d1 = derivative_matrix(spec)
    x = spec.points()
    resolved = np.arange(-n // 2 + 1, n // 2)
    modes = np.exp(1j * np.outer(x, resolved))
    nyquist = np.exp(1j * (n // 2) * x)
    eps = np.finfo(float).eps
    for order in range(5):
        power = spec.derivative_power(order)
        top = float(n // 2) ** order
        # Each resolved mode exp(i m x) is mapped to (i m)^order exp(i m x).
        expected = modes * (1j * resolved) ** order
        assert np.max(np.abs(power @ modes - expected)) <= 8 * n * eps * top
        # The Nyquist mode carries the full symbol (i n/2)^order.
        nyquist_error = power @ nyquist - (0.5j * n) ** order * nyquist
        assert np.max(np.abs(nyquist_error)) <= 8 * n * eps * top
        # It agrees with the product of first-derivative matrices to
        # n * eps relative to the largest entry (measured: at most 0.16 of it).
        reference = np.linalg.matrix_power(d1, order)
        bound = n * eps * np.max(np.abs(reference))
        assert np.max(np.abs(power - reference)) <= bound
        assert not power.flags.writeable
        with pytest.raises(ValueError):
            power[0, 0] = 1.0


@pytest.mark.parametrize("n", [16, 64, 256])
def test_central2_derivative_powers_are_matrix_powers_bitwise(n):
    spec = GridSpec(n, "central2")
    d1 = derivative_matrix(spec)
    for order in range(5):
        reference = np.linalg.matrix_power(d1, order)
        assert spec.derivative_power(order).tobytes() == reference.tobytes()


# -- the four-buffer oracle against the dense-copy expressions, bit for bit ----


def _old_circulant(column):
    n = len(column)
    reversed_twice = np.concatenate((column[::-1], column[::-1]))
    return np.ascontiguousarray(sliding_window_view(reversed_twice, n)[n - 1 :: -1])


def _old_discretize(op, spec):
    """``discretize`` with a dense copy of each spectral ``D^k``."""
    n = spec.n_points
    wavenumbers = np.fft.fftfreq(n, d=1.0 / n)
    wavenumbers[n // 2] = n / 2
    out = np.zeros((n, n), dtype=complex)
    for (order,), coeff in op.terms.items():
        values = sample(coeff, spec)
        if order:
            power = _old_circulant(np.fft.ifft((1j * wavenumbers) ** order))
            out += values[:, None] * power
        else:
            out[np.diag_indices(n)] += values
    return out


def _old_matrix_bracket(s, a, b, spec, kind):
    """``matrix_bracket`` by two dense products, holding the factor ``(1 +)
    s_i - s_j`` throughout."""
    old_discretize = _old_discretize if spec.scheme == "spectral" else _dense_discretize
    a_mat = old_discretize(a, spec)
    b_mat = old_discretize(b, spec)
    if kind == "qpb":
        out = a_mat @ b_mat
        out -= b_mat @ a_mat
        return out
    s_vec = sample(s, spec)
    factor = s_vec[:, None] - s_vec[None, :]
    if kind == "qcpb":
        factor += 1.0
    out = a_mat @ (factor * b_mat)
    factor *= a_mat
    out -= b_mat @ factor
    return out


def _old_band_limited_norm(x):
    """The band-limited 2-norm through the full n x n ``ifft``."""
    n = x.shape[1]
    columns = np.fft.ifft(x, axis=1)[:, np.abs(grid_module._wavenumbers(n)) <= n // 4]
    gram = columns.conj().T @ columns
    return math.sqrt(n) * math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def _old_compare(symbolic, numeric, psi, tolerance):
    """``compare`` with the exact norms on every input, the difference
    matrix formed out of place."""
    spec = numeric.spec
    psi_vec = sample(psi, spec)
    sym_mat = _old_discretize(symbolic, spec)
    sym_action = sym_mat @ psi_vec
    num_action = numeric.matrix @ psi_vec
    op_scale = max(_old_band_limited_norm(sym_mat), 1.0)
    spectral = _old_band_limited_norm(sym_mat - numeric.matrix) / op_scale
    action_scale = max(
        float(np.linalg.norm(sym_action)),
        op_scale * float(np.linalg.norm(psi_vec)),
    )
    l2 = float(np.linalg.norm(sym_action - num_action)) / action_scale
    return ComparisonReport(l2, spectral, tolerance)


def _assert_certified_or_exact(report, old):
    """``report``'s verdict is ``old``'s; a pass reports upper bounds of
    ``old``'s residuals (to a relative 1e-12), each at most the tolerance,
    and a FAIL reports ``old``'s fields bit for bit."""
    assert report.passed == old.passed
    if report.passed:
        for bound, exact in [(report.l2_residual, old.l2_residual),
                             (report.spectral_residual, old.spectral_residual)]:
            assert exact * (1 - 1e-12) <= bound <= report.tolerance
    else:
        # Every field bit for bit (float.hex tells -0.0 from 0.0).
        assert [x.hex() for x in astuple(report)] == [x.hex() for x in astuple(old)]


def _second_order_pair(index):
    """A seeded real ``s`` and operands ``a``, ``b``, one of them of order 2."""
    rng = trial_rng(26, "four-buffers", index)
    while True:
        s = random_periodic_fn(rng, real=True)
        a = random_periodic_diff_op(rng)
        b = random_periodic_diff_op(rng)
        if 2 in (order for op in (a, b) for (order,) in op.terms):
            return s, a, b


def _assert_within_rounding_of_dense_products(numeric, s, a, b, spec, kind):
    """``numeric`` agrees with the two dense products of the factors.

    Each dense product is within ``gamma_n |A| |B|`` of the exact product of
    its factors, ``gamma_n = n u / (1 - n u)`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., section 3.5).  A bracket
    taken from Fourier diagonals sums a few terms per entry and rounds its
    FFTs to O(u log n) of the same norms, so it lies within that bound too,
    and the two differ by at most twice its Frobenius norm."""
    a_mat, b_mat = (_old_discretize(op, spec) for op in (a, b))
    if kind == "qpb":
        a_right, b_right = a_mat, b_mat
    else:
        s_vec = sample(s, spec)
        factor = s_vec[:, None] - s_vec[None, :] + (1.0 if kind == "qcpb" else 0.0)
        a_right, b_right = factor * a_mat, factor * b_mat
    n = spec.n_points
    unit = np.finfo(float).eps / 2
    gamma = n * unit / (1 - n * unit)
    bound = 2 * gamma * (np.linalg.norm(np.abs(a_mat) @ np.abs(b_right))
                         + np.linalg.norm(np.abs(b_mat) @ np.abs(a_right)))
    reference = _old_matrix_bracket(s, a, b, spec, kind)
    assert np.linalg.norm(numeric - reference) <= bound


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("index", range(3))
def test_oracle_is_bitwise_the_dense_copy_oracle(n, index):
    """``discretize`` and ``compare`` bit for bit; a spectral bracket from
    Fourier diagonals within the dense products' rounding bound."""
    s, a, b = _second_order_pair(index)
    for op in (a, b):
        matrix = discretize(op, GridSpec(n)).matrix
        assert matrix.tobytes() == _old_discretize(op, GridSpec(n)).tobytes()
    for kind in ("qpb", "geomutator", "qcpb"):
        numeric = matrix_bracket(s, a, b, GridSpec(n), kind)
        _assert_within_rounding_of_dense_products(numeric.matrix, s, a, b, GridSpec(n), kind)
        symbolic = {"qpb": commutator(a, b), "geomutator": geomutator(s, a, b),
                    "qcpb": qcpb(s, a, b).total}[kind]
        for psi in (E_IX, cos_of(1)):
            report = compare(symbolic, numeric, psi, 1e-10)
            _assert_certified_or_exact(report, _old_compare(symbolic, numeric, psi, 1e-10))


@pytest.mark.parametrize("index", range(3))
def test_central2_bracket_is_bitwise_the_dense_copy_oracle(index):
    """Under ``central2`` (whose ``s`` may be polynomial) a bracket keeps its
    two dense products bit for bit."""
    s, a, b = _second_order_pair(index)
    s, a = s + X1_SQUARED, a + mult(coord(1, 0))
    spec = GridSpec(64, "central2")
    for kind in ("qpb", "geomutator", "qcpb"):
        numeric = matrix_bracket(s, a, b, spec, kind)
        assert numeric.matrix.tobytes() == _old_matrix_bracket(s, a, b, spec, kind).tobytes()


def _traced_peak(call):
    """``(result, peak)``: the call's result and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _budget_operands():
    """``s``, and ``a`` and ``b`` of orders 1 and 2."""
    a = mult(E_IX).scaled(-I) * partial_d(1)
    return cos_of(1), a, mult(E_IX) * partial_d(1, 0, 2) + mult(E_IX)


@pytest.mark.parametrize("kind", ["qpb", "geomutator", "qcpb"])
def test_matrix_bracket_holds_at_most_four_dense_buffers(kind):
    """A bracket from Fourier diagonals holds one dense matrix, the result,
    besides its diagonals and one panel's product: 1.16-1.22 buffers at n =
    256 (4.1-4.3 with two dense products)."""
    n = 256
    s, a, b = _budget_operands()
    _, peak = _traced_peak(lambda: matrix_bracket(s, a, b, GridSpec(n), kind))
    buffers = peak / (n * n * 16)
    assert buffers <= 1.5, buffers


@pytest.mark.parametrize("kind", ["qpb", "geomutator", "qcpb"])
def test_a_dense_bracket_holds_at_most_four_dense_buffers(kind):
    """Under ``central2``: ``a``, ``b``, one scratch matrix and the result
    (4.0-4.3 buffers at n = 256).  The spec is warmed first, since it holds
    ``central2``'s ``D^1`` and ``D^2`` as dense matrices."""
    n = 256
    s, a, b = _budget_operands()
    spec = GridSpec(n, "central2")
    matrix_bracket(s, a, b, spec, kind)
    _, peak = _traced_peak(lambda: matrix_bracket(s, a, b, spec, kind))
    buffers = peak / (n * n * 16)
    assert buffers <= 4.5, buffers


def _budget_comparison(tolerance):
    """``(report, buffers)`` of a ``qcpb`` comparison at n = 256 on a fresh
    spec: its peak with its numeric input, in dense n x n matrices."""
    n = 256
    s, a, b = _budget_operands()
    numeric = grid_module.GridOp(matrix_bracket(s, a, b, GridSpec(n), "qcpb").matrix, GridSpec(n))
    symbolic = qcpb(s, a, b).total
    report, peak = _traced_peak(lambda: compare(symbolic, numeric, E_IX, tolerance))
    return report, (peak + numeric.matrix.nbytes) / (n * n * 16)


def test_compare_holds_at_most_four_dense_buffers_with_its_input():
    """A passing comparison stays within the oracle's four-buffer budget."""
    report, buffers = _budget_comparison(1e-8)
    assert report.passed
    assert buffers <= 4, buffers


def test_a_certified_pass_holds_one_and_a_half_dense_buffers_with_its_input():
    """The numeric matrix and a few row panels: the symbolic matrix is
    never held whole (3.5 buffers when every pass took the exact norms)."""
    report, buffers = _budget_comparison(1e-8)
    assert report.passed
    assert buffers <= 1.5, buffers


def test_an_exact_comparison_holds_the_resolved_band_only():
    """A FAIL takes the exact norms: the numeric matrix, the n x (n/2 + 1)
    bands of the symbolic matrix and of its defect, one band's conjugate
    and its Gram matrix (2.75 buffers and the bands' (n/2 + 1)-th
    columns).  The symbolic matrix is never held whole, nor a full n x n
    ``ifft`` (3.29 buffers when the symbolic matrix was held)."""
    report, buffers = _budget_comparison(1e-18)
    assert not report.passed
    assert buffers <= 3.0, buffers


def test_compare_never_discretizes_the_symbolic_operator(monkeypatch):
    """Both a certified pass and a FAIL stream the symbolic operator in row
    panels instead of building its matrix."""
    def no_discretize(*args, **kwargs):
        pytest.fail("compare built the whole symbolic matrix")

    spec = GridSpec(128)
    s, a, b = _budget_operands()
    numeric = matrix_bracket(s, a, b, spec, "qcpb")
    monkeypatch.setattr(grid_module, "discretize", no_discretize)
    symbolic = qcpb(s, a, b).total
    assert compare(symbolic, numeric, E_IX, 1e-8).passed
    assert not compare(symbolic, numeric, E_IX, 1e-18).passed


def test_a_passing_compare_calls_no_eigensolver(monkeypatch):
    def no_eigensolver(*args, **kwargs):
        pytest.fail("a passing comparison called an eigensolver")

    spec = GridSpec(128)
    s, a, b = _budget_operands()
    numeric = matrix_bracket(s, a, b, spec, "qcpb")
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolver)
    assert compare(qcpb(s, a, b).total, numeric, E_IX).passed


@pytest.mark.parametrize("n", [64, 128, 256, 512])
def test_compare_certifies_only_what_the_exact_norms_pass(n):
    """On seeded pairs of all three kinds and two mutants, the plain-only
    engine (``qcpb`` checked against ``[a, b]``) and the oracle with its
    geomutator dropped (``qpb`` matrices against ``qcpb``), the verdict is
    the exact norms' one: a pass reports upper bounds, a FAIL exact
    residuals."""
    certified = failed = 0
    for index in range(2):
        s, a, b = _nondegenerate_parts(trial_rng(28, f"certified-{n}", index))
        total = qcpb(s, a, b).total
        checks = [("qpb", commutator(a, b)), ("geomutator", geomutator(s, a, b)),
                  ("qcpb", total), ("qcpb", commutator(a, b)), ("qpb", total)]
        for kind, symbolic in checks:
            numeric = matrix_bracket(s, a, b, GridSpec(n), kind)
            for tolerance in (1e-8, 1e-12):
                report = compare(symbolic, numeric, E_IX, tolerance)
                old = _old_compare(symbolic, numeric, E_IX, tolerance)
                _assert_certified_or_exact(report, old)
                certified += report != old
                failed += not report.passed
    assert certified and failed >= 8, (certified, failed)


# The two brackets that ROADMAP direction 13 records as read at the edge of
# the default tolerance: (s, a, b, kind, psi) as grid-check reads them.
DIRECTION_13 = {
    "shared-top-order": ("0", "exp(2*i*x1)*d1^2", "2*exp(2*i*x1)*d1^2 + exp(-2*i*x1)",
                         "qpb", "exp(i*x1)"),
    "second-order-qcpb": ("-1", "(-3 + 3/2*i)*exp(2*i*x1)*d1^2",
                          "(1/2 - 2*i)*exp(-2*i*x1) + 5*exp(2*i*x1)*d1^2",
                          "qcpb", "-1 - i*exp(2*i*x1)"),
}


@pytest.mark.parametrize("n", [512, 1024])
@pytest.mark.parametrize("case", DIRECTION_13)
def test_direction_13_reproducers_keep_their_verdicts(case, n):
    s_text, a_text, b_text, kind, psi_text = DIRECTION_13[case]
    s = parse_function(s_text, 1)
    a, b = (parse_operator(text, 1, s) for text in (a_text, b_text))
    symbolic = qcpb(s, a, b).total if kind == "qcpb" else commutator(a, b)
    numeric = matrix_bracket(s, a, b, GridSpec(n), kind)
    psi = parse_function(psi_text, 1)
    report = compare(symbolic, numeric, psi)
    _assert_certified_or_exact(report, _old_compare(symbolic, numeric, psi, 1e-8))


# The false FAILs of the dense products that ROADMAP directions 13 and 18
# record, with a shared top-order part cancelling in ``a b - b a``; their
# residuals read 6.7e-8 (the first, n = 2048), 7.6e-8 (the second, n =
# 1024), 1.9e-8 (third order, n = 256) and 3.0e-3 (fourth order, n = 1024).
FALSE_FAILS = {
    **DIRECTION_13,
    "third-order": ("0", "exp(2*i*x1)*d1^3", "2*exp(2*i*x1)*d1^3 + exp(-2*i*x1)",
                    "qpb", "exp(i*x1)"),
    "fourth-order": ("0", "exp(2*i*x1)*d1^4", "2*exp(2*i*x1)*d1^4 + exp(-2*i*x1)",
                     "qpb", "exp(i*x1)"),
}


@pytest.mark.parametrize("n", [256, 512, 1024])
@pytest.mark.parametrize("case", FALSE_FAILS)
def test_known_false_fails_pass_from_fourier_diagonals(case, n):
    """A bracket from Fourier diagonals rounds each entry from a few terms,
    so the cancelling top orders leave no ``u ||a|| ||b||`` behind.

    n = 2048 is left out: there the second reproducer (``qcpb``, complex
    coefficients) reads 8.6e-9, within 14% of ``tol``, since its top-order
    products still round differently in ``a b`` and ``b a``; that verdict
    could turn on another BLAS or FFT build, so it is not pinned."""
    s_text, a_text, b_text, kind, psi_text = FALSE_FAILS[case]
    s = parse_function(s_text, 1)
    a, b = (parse_operator(text, 1, s) for text in (a_text, b_text))
    symbolic = qcpb(s, a, b).total if kind == "qcpb" else commutator(a, b)
    report = compare(symbolic, matrix_bracket(s, a, b, GridSpec(n), kind),
                     parse_function(psi_text, 1))
    assert report.passed
    assert max(report.l2_residual, report.spectral_residual) <= report.tolerance


@pytest.mark.parametrize("n", [64, 128, 256, 512, 1024])
def test_every_seeded_bracket_passes_and_both_mutants_fail(n):
    """Three seeded brackets per size pass under all three kinds, and both
    mutants FAIL on each: the plain-only engine (``qcpb`` matrices against
    ``[a, b]``) and the oracle with its geomutator dropped (``qpb``
    matrices against ``qcpb``), 30 FAILs over the five sizes."""
    spec = GridSpec(n)
    for index in range(3):
        s, a, b = _nondegenerate_parts(trial_rng(32, f"mutants-{n}", index))
        plain, total = commutator(a, b), qcpb(s, a, b).total
        for kind, symbolic in [("qpb", plain), ("geomutator", geomutator(s, a, b)),
                               ("qcpb", total)]:
            assert compare(symbolic, matrix_bracket(s, a, b, spec, kind), E_IX).passed
        for kind, symbolic in [("qcpb", plain), ("qpb", total)]:
            assert not compare(symbolic, matrix_bracket(s, a, b, spec, kind), E_IX).passed


def test_warm_spectral_spec_holds_linear_memory_per_order():
    n = 1024
    orders = range(1, 5)
    spec = GridSpec(n)
    tracemalloc.start()
    try:
        powers = [spec.derivative_power(order) for order in orders]
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(power.shape == (n, n) and not power.flags.writeable for power in powers)
    # 2n complex values per order and the view objects; a dense copy is n^2.
    assert held <= len(orders) * 3 * n * 16, held


def test_band_limited_norm_of_zero_is_exactly_zero():
    assert _norm2(np.zeros((64, 33), dtype=complex)) == 0.0


def _reference_evolve(
    s, hamiltonian, f0, *, t_final, steps, spec, law, psi, stage="regrouped"
):
    """The RK4 loop written out, one stage rate per call.

    ``stage`` picks the stage rate: ``regrouped`` is ``F R - H (F + [s, F])``
    in two dense products, ``terms`` sums ``[F, H]``, ``H [s, F]`` and (if
    covariant) ``F [s, H]``, and ``commutator`` is ``[F, H]`` alone (right
    only for ``s = 0``).  Every step evaluates its own first stage, and
    every sample records ``||F(t)||_F / ||F(0)||_F``.
    """
    h_mat = discretize(hamiltonian, spec).matrix
    s_vec = sample(s, spec)
    f_mat = discretize(f0, spec).matrix.astype(complex)
    psi_vec = sample(psi, spec)
    psi_norm2 = float(np.real(np.vdot(psi_vec, psi_vec)))

    scale = -1j / 1.0
    s_diff = s_vec[:, None] - s_vec[None, :]
    plus_s = 1.0 + s_diff
    comm_sh = s_diff * h_mat
    covariant = law == "covariant"
    r_mat = plus_s * h_mat if covariant else h_mat

    def term_rates(f):
        """The plain and the covariant rate, summed term by term."""
        commutator = f @ h_mat - h_mat @ f
        sandwich = h_mat @ (s_diff * f)
        plain = scale * (commutator - sandwich)
        return plain, scale * (commutator + f @ comm_sh - sandwich)

    def rate(f):
        if stage == "regrouped":
            return scale * (f @ r_mat - h_mat @ (plus_s * f))
        if stage == "commutator":
            return scale * (f @ h_mat - h_mat @ f)
        return term_rates(f)[covariant]

    dt = t_final / steps
    n_samples = min(101, steps + 1)
    sample_steps = sorted({round(k * steps / (n_samples - 1)) for k in range(n_samples)})
    norm0 = np.linalg.norm(f_mat)
    times, expectations, growth = [], [], []

    def record(step_index, f):
        times.append(step_index * dt)
        expectations.append(complex(np.vdot(psi_vec, f @ psi_vec)) / psi_norm2)
        growth.append(float(np.linalg.norm(f) / norm0))

    record(0, f_mat)
    for step in range(1, steps + 1):
        k1 = rate(f_mat)
        k2 = rate(f_mat + 0.5 * dt * k1)
        k3 = rate(f_mat + 0.5 * dt * k2)
        k4 = rate(f_mat + dt * k3)
        f_mat = f_mat + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step in sample_steps:
            record(step, f_mat)
    return times, expectations, growth, f_mat


def _flow_scenario(scheme):
    if scheme == "spectral":
        s = cos_of(1).scaled(Fraction(1, 5))
        return s, _kinetic_plus_cosine(), mult(cos_of(1)) * partial_d(1)
    x1 = coord(1, 0)
    s = cos_of(1).scaled(Fraction(1, 5)) + x1.scaled(Fraction(1, 10))
    h_op = partial_d(1, 0, 2).scaled(Fraction(-1, 2)) + mult(
        monomial(1, (2,)).scaled(Fraction(1, 2))
    )
    return s, h_op, position(1)


@pytest.mark.parametrize(
    "law, budget", [("generalized_heisenberg", 9.5), ("covariant", 10.5)]
)
def test_evolve_folds_each_stage_into_one_accumulator(law, budget):
    """A 2-step flow at n = 256 on a fresh ``central2`` spec, in dense n x n
    matrices.  The rate is banded, so it holds ``plus_s``, the ``plus_s * F``
    and product buffers and no dense ``H`` or ``R``; the loop holds ``F``,
    the stage buffer, the accumulator, one stage rate and the rate being
    formed.  Both laws peak near 7.9.  With dense stage rates all four stages
    held peaked at 11.5 (plain) and 12.5 (covariant), and one accumulator at
    8.5 and 9.5; the budget is one above that."""
    n = 256
    s, h_op, f0 = _flow_scenario("central2")
    _, peak = _traced_peak(lambda: evolve(
        s, h_op, f0, t_final=1e-4, steps=2, spec=GridSpec(n, "central2"), law=law,
        psi=E_IX,
    ))
    buffers = peak / (n * n * 16)
    assert buffers <= budget, buffers


@pytest.mark.parametrize("law", ["generalized_heisenberg", "covariant"])
@pytest.mark.parametrize("scheme", ["spectral", "central2"])
@pytest.mark.parametrize("steps", [150, 187])
def test_evolve_is_bitwise_equal_to_reference_loop(law, scheme, steps):
    spec = GridSpec(32, scheme)
    s, h_op, f0 = _flow_scenario(scheme)
    kwargs = dict(t_final=0.3, steps=steps, spec=spec, law=law, psi=E_IX)
    result = evolve(s, h_op, f0, **kwargs)
    times, expectations, growth, final = _reference_evolve(s, h_op, f0, **kwargs)
    assert len(times) == 101 < steps + 1  # samples skip steps
    assert result.times == times
    assert result.expectations == expectations
    assert result.growth == growth
    assert growth[0] == 1.0 and len(set(growth)) == 101  # F(t) moves
    assert result.final.matrix.dtype == final.dtype
    assert result.final.matrix.tobytes() == final.tobytes()


def _sized(schemes_and_sizes, default):
    """``scheme, n`` cases, with the ``default`` size named by the scheme alone."""
    return [
        pytest.param(scheme, n, id=scheme if n == default else f"{scheme}-{n}")
        for scheme, n in schemes_and_sizes
    ]


@pytest.mark.parametrize("real_s", [True, False], ids=["real-s", "complex-s"])
@pytest.mark.parametrize("law", ["generalized_heisenberg", "covariant"])
@pytest.mark.parametrize(
    "scheme, n",
    _sized([(scheme, n) for n in (64, 128, 256) for scheme in ("spectral", "central2")], 64),
)
def test_stage_rate_matches_term_by_term_rates(scheme, n, law, real_s):
    """At n >= 64 a ``central2`` Hamiltonian's three diagonals take the
    banded rate; a spectral one is dense and takes two dense products."""
    spec = GridSpec(n, scheme)
    s, h_op, _ = _flow_scenario(scheme)
    if not real_s:
        s = s + E_IX.scaled(Fraction(1, 7))
    h = discretize(h_op, spec).matrix
    s_vec = sample(s, spec)
    rng = np.random.default_rng(14)
    f = rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
    scale = -1j / 3.0

    # The rates as three and four dense products, with [s, X] as a row and
    # a column scaling.
    def comm_s(x):
        return s_vec[:, None] * x - x * s_vec[None, :]

    commutator = f @ h - h @ f
    expected = commutator - h @ comm_s(f)
    if law == "covariant":
        expected = expected + f @ comm_s(h)
    expected = scale * expected
    s_diff = s_vec[:, None] - s_vec[None, :]
    actual = grid_module._stage_rate(h, 1.0 + s_diff, scale, law == "covariant")(f)

    # A complex dot product of length n errs by at most sqrt(2) gamma_{n+2}
    # |a|^T |b| (Higham, Accuracy and Stability of Numerical Algorithms,
    # 2nd ed., section 3.6), so a dense product errs in Frobenius norm by at
    # most sqrt(2) (n + 2) eps ||A|| ||B|| to first order.  The two sides
    # hold at most six products, each of factors with norms at most ||F||
    # and (1 + d) ||H||, d = max |s_i - s_j|; the elementwise scalings and
    # sums add a few eps per entry, which n + 4 in place of n + 2 covers.
    d = float(np.max(np.abs(s_diff)))
    eps = np.finfo(float).eps
    bound = (
        6 * np.sqrt(2) * (n + 4) * eps * (1 + d)
        * np.linalg.norm(f) * np.linalg.norm(h) * abs(scale)
    )
    assert np.linalg.norm(actual - expected) <= bound
    assert d > 0.0


@pytest.mark.parametrize("law", ["generalized_heisenberg", "covariant"])
@pytest.mark.parametrize(
    "scheme, n", _sized([("spectral", 32), ("central2", 32), ("central2", 128)], 32)
)
def test_flow_with_structure_matches_term_by_term_flow(scheme, n, law):
    spec = GridSpec(n, scheme)
    s, h_op, f0 = _flow_scenario(scheme)
    kwargs = dict(t_final=0.5, steps=50, spec=spec, law=law, psi=E_IX)
    result = evolve(s, h_op, f0, **kwargs)
    _, expectations, _, final = _reference_evolve(
        s, h_op, f0, stage="terms", **kwargs
    )
    gap = np.array(result.expectations) - np.array(expectations)
    assert np.linalg.norm(gap) <= 1e-12 * np.linalg.norm(expectations)
    final_gap = np.linalg.norm(result.final.matrix - final)
    assert final_gap <= 1e-12 * np.linalg.norm(final)


@pytest.mark.parametrize("law", ["generalized_heisenberg", "covariant"])
@pytest.mark.parametrize("scheme", ["spectral", "central2"])
def test_flow_without_structure_is_bitwise_the_commutator_flow(scheme, law):
    spec = GridSpec(32, scheme)
    _, h_op, f0 = _flow_scenario(scheme)
    kwargs = dict(t_final=0.3, steps=30, spec=spec, law=law, psi=E_IX)
    result = evolve(zero(1), h_op, f0, **kwargs)
    times, expectations, growth, final = _reference_evolve(
        zero(1), h_op, f0, stage="commutator", **kwargs
    )
    assert result.times == times
    assert result.expectations == expectations
    assert result.growth == growth
    assert result.final.matrix.tobytes() == final.tobytes()
