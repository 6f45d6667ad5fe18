"""Dense-matrix realization of operators on a periodic 1-D grid.

This is the package's independent numerical check: operators become N x N
complex matrices on the uniform grid over [0, 2*pi), brackets are recomputed
with matrix products, and flows are integrated with classic fourth-order
Runge-Kutta.  Everything here is double precision on purpose, so agreement
with the exact engine is evidence rather than tautology.

Input gate: every coefficient, structure function ``s`` and state ``psi``
enters the oracle through ``sample``, and nowhere else.  Under ``spectral``
(Fourier differentiation, exact to rounding on resolved modes of
2*pi-periodic data) ``sample`` refuses a function that is not
2*pi-periodic with ``NonPeriodicCoefficient``, naming it in DSL form;
``central2``, the second-order central difference ``(f[i+1] - f[i-1]) /
(2h)``, accepts polynomial data at the cost of accuracy and serves flows
and ``discretize``; ``compare`` refuses it, since a difference matrix
breaks the product rule that every ``[s, .]`` term relies on.  ``sample``
is also the only place where an exact function becomes doubles: under
either scheme it refuses, with ``ValueError`` naming the function, one
whose samples are not finite, and no numpy warning escapes it.  ``state``
samples a ``psi`` and also refuses, with ``ValueError``, one that vanishes
on every grid point or whose ``||psi||^2`` leaves double precision, since
expectations and relative residuals divide by it; ``evolve`` refuses an
``hbar`` whose ``1/hbar`` is 0 or not finite as a double.
``matrix_bracket`` and ``evolve`` sample ``s``, and ``compare`` and
``evolve`` sample ``psi``, before they discretize anything, so such input
is refused before any dense work.

Size budget: a grid has at most ``MAX_POINTS`` (2048) points, since every
operator is a dense n x n complex matrix (64 MiB at the cap); larger sizes
are rejected with ``ValueError`` before anything is allocated.

Every ``D^k`` is built by ``derivative_matrix(spec, k)`` and cached per
spec.  A coefficient or structure function is a multiplication operator,
so it stays a vector of samples instead of taking part in a dense product.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatch, EvolutionDiverged, NonPeriodicCoefficient
from .functions import CoefFn
from .operators import DiffOp

SCHEMES = ("spectral", "central2")

# Grid-size budget: every operator is a dense n x n complex matrix, and a
# bracket check holds several of them at once.
MAX_POINTS = 2048


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [0, 2*pi) with a differentiation scheme.

    ``n_points`` is a power of two from 16 to ``MAX_POINTS``.
    """

    n_points: int = 256
    scheme: str = "spectral"

    def __post_init__(self):
        if self.n_points < 16:
            raise ValueError("n_points must be >= 16")
        if self.n_points > MAX_POINTS:
            raise ValueError(
                f"n_points must be <= {MAX_POINTS} (dense n x n matrices)"
            )
        if self.n_points & (self.n_points - 1):
            raise ValueError("n_points must be a power of two")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")

    @property
    def spacing(self) -> float:
        return 2.0 * math.pi / self.n_points

    def points(self) -> np.ndarray:
        return np.arange(self.n_points) * self.spacing

    @cached_property
    def _derivative_powers(self) -> dict:
        """``D^k`` by order, filled on demand by ``derivative_power``."""
        return {}

    def derivative_power(self, order: int) -> np.ndarray:
        """Read-only ``derivative_matrix(self, order)``, built at most once
        for this spec."""
        powers = self._derivative_powers
        if order not in powers:
            power = derivative_matrix(self, order)
            power.setflags(write=False)
            powers[order] = power
        return powers[order]


def _wavenumbers(n: int) -> np.ndarray:
    """Integer FFT wavenumbers in FFT order, with the Nyquist mode at ``+n/2``."""
    wavenumbers = np.fft.fftfreq(n, d=1.0 / n)
    wavenumbers[n // 2] = n / 2
    return wavenumbers


def _circulant(column: np.ndarray) -> np.ndarray:
    """The circulant ``C[i, j] = column[(i - j) % n]``.

    Row ``i`` is a contiguous window of the reversed column repeated twice,
    so the matrix is one copy of a strided view.
    """
    n = len(column)
    reversed_twice = np.concatenate((column[::-1], column[::-1]))
    return np.ascontiguousarray(sliding_window_view(reversed_twice, n)[n - 1 :: -1])


def derivative_matrix(spec: GridSpec, order: int = 1) -> np.ndarray:
    """The scheme's ``D^order``, where ``D`` differentiates once.

    Both schemes are circulant, ``D[i, j] = c[(i - j) % n]``, so each is
    built from a first column ``c``.  Under ``spectral`` ``D^order`` is
    ``ifft . diag((i k)^order) . fft``, the circulant of ``ifft((i
    k)^order)``, with integer wavenumbers ``k in {-n/2+1, ..., n/2}``:
    O(n log n + n^2) work, and ``D`` is anti-Hermitian and exact on
    resolved modes.  The Nyquist mode is assigned ``+n/2`` so that every
    order carries the full symbol (zeroing it would misplace that mode's
    frequency in every even-order derivative).  Under ``central2`` ``D`` has
    ``+-1/(2h)`` at the two neighbours, the central difference ``(f[i+1] -
    f[i-1]) / (2h)``, and ``D^order`` is its matrix power.
    """
    n = spec.n_points
    if spec.scheme == "spectral":
        return _circulant(np.fft.ifft((1j * _wavenumbers(n)) ** order))
    column = np.zeros(n)
    column[1] -= 1.0
    column[-1] += 1.0
    column /= 2.0 * spec.spacing
    return np.linalg.matrix_power(_circulant(column), order)


def sample(f: CoefFn, spec: GridSpec) -> np.ndarray:
    """Evaluate a 1-D coefficient function on the grid points.

    The oracle's one input gate.  Under ``spectral`` every term must be a
    plane wave ``exp(i k x)`` with integer ``k``: a monomial factor, a real
    frequency or a fractional one raises ``NonPeriodicCoefficient``, which
    names ``f``, since Fourier differentiation is exact only on
    2*pi-periodic data.  Under either scheme, samples that are not finite
    doubles (a coefficient beyond double range, or ``exp`` or ``x^nu``
    overflowing) raise ``ValueError``, which names ``f``.
    """
    if f.dim != 1:
        raise DimensionMismatch("grid sampling requires 1-D functions")
    if spec.scheme == "spectral" and not all(
        nu[0] == 0 and kappa[0].re == 0 and kappa[0].im.denominator == 1
        for nu, kappa in f.terms
    ):
        raise NonPeriodicCoefficient(
            f"spectral scheme requires 2*pi-periodic data, got {f}"
        )
    x = spec.points()
    values = np.zeros(spec.n_points, dtype=complex)
    try:
        with np.errstate(all="ignore"):
            for (nu, kappa), coeff in f.terms.items():
                term = np.full(spec.n_points, coeff.to_complex())
                if nu[0]:
                    term = term * x ** nu[0]
                freq = kappa[0].to_complex()
                if freq:
                    term = term * np.exp(freq * x)
                values += term
    except OverflowError:  # a coefficient or frequency beyond double range
        values[:] = np.nan
    if not np.isfinite(values).all():
        raise ValueError(f"the samples of {f} are not finite in double precision")
    return values


def state(psi: CoefFn, spec: GridSpec) -> np.ndarray:
    """Samples of a state; besides ``sample``'s refusals, one that vanishes
    on every grid point, or whose ``||psi||^2`` on the grid overflows or
    underflows to 0, raises ``ValueError``, since expectations and relative
    residuals divide by it."""
    values = sample(psi, spec)
    if not np.any(values):
        raise ValueError("the state psi vanishes on every grid point")
    norm2 = np.vdot(values, values).real
    if not 0.0 < norm2 < math.inf:
        raise ValueError(f"||psi||^2 of {psi} is outside double precision")
    return values


@dataclass(frozen=True)
class GridOp:
    """Dense matrix realization of an operator on a grid."""

    matrix: np.ndarray
    spec: GridSpec


def discretize(op: DiffOp, spec: GridSpec) -> GridOp:
    """Realize ``sum_alpha c_alpha d^alpha`` as ``sum diag(c_alpha) D^alpha``.

    Each ``diag(c_alpha) D^alpha`` is formed by scaling the rows of the
    spec's cached power ``D^alpha`` by the samples of ``c_alpha`` (the
    order-0 term is added to the diagonal): O(n^2) per term instead of a
    dense O(n^3) product.
    """
    if op.dim != 1:
        raise DimensionMismatch("the grid oracle is one-dimensional")
    out = np.zeros((spec.n_points, spec.n_points), dtype=complex)
    for (order,), coeff in op.terms.items():
        values = sample(coeff, spec)
        if order:
            out += values[:, None] * spec.derivative_power(order)
        else:
            out[np.diag_indices(spec.n_points)] += values
    return GridOp(out, spec)


def _s_difference(s: np.ndarray) -> np.ndarray:
    """``C[i, j] = s_i - s_j``, so that ``C * X`` is ``[diag(s), X]``."""
    return s[:, None] - s[None, :]


KINDS = ("qpb", "geomutator", "qcpb")


def matrix_bracket(
    s: CoefFn,
    a: DiffOp,
    b: DiffOp,
    spec: GridSpec,
    kind: str = "qcpb",
) -> GridOp:
    """Recompute a bracket with matrix products only.

    Each ``[s, X]`` is ``C * X`` with ``C = _s_difference(s)``, so the dense
    products are only those with ``a`` and ``b``: two for each kind, with
    ``qcpb`` as ``a ((1 + C) * b) - b ((1 + C) * a)``; the one factor
    matrix is scaled by ``a`` in place.
    An unknown ``kind`` is refused before anything is sampled, and ``s`` is
    sampled (so, under ``spectral``, checked) before any operator is
    discretized, except under ``qpb``, which does not use it.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown bracket kind {kind!r}")
    if kind != "qpb":
        s_vec = sample(s, spec)
    a_mat = discretize(a, spec).matrix
    b_mat = discretize(b, spec).matrix
    if kind == "qpb":
        out = a_mat @ b_mat
        out -= b_mat @ a_mat
        return GridOp(out, spec)
    factor = _s_difference(s_vec)
    if kind == "qcpb":
        factor += 1.0
    out = a_mat @ (factor * b_mat)
    factor *= a_mat
    out -= b_mat @ factor
    return GridOp(out, spec)


@dataclass(frozen=True)
class ComparisonReport:
    """Residuals between a symbolic operator and a matrix realization."""

    l2_residual: float
    spectral_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (
            self.l2_residual <= self.tolerance
            and self.spectral_residual <= self.tolerance
        )


def _band_limited_norm(x: np.ndarray) -> float:
    """``||x P||_2`` for the projector ``P`` onto the resolved Fourier modes
    |k| <= n/4.

    ``P = Q^H M Q`` with ``Q`` the unitary DFT and ``M`` the 0/1 mode mask,
    so ``||x P||_2 = ||x Q^H M||_2``; the columns of ``x Q^H`` are
    ``sqrt(n) * ifft(x, axis=1)``, and only the masked ones are kept.  The
    2-norm of that n x (n/2 + 1) matrix is the square root of the largest
    eigenvalue of its Gram matrix, not an SVD; it is clamped at 0, so an
    exactly zero matrix gives exactly 0.0.
    """
    n = x.shape[1]
    columns = np.fft.ifft(x, axis=1)[:, np.abs(_wavenumbers(n)) <= n // 4]
    gram = columns.conj().T @ columns
    return math.sqrt(n) * math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def compare(
    symbolic: DiffOp,
    numeric: GridOp,
    psi: CoefFn,
    tolerance: float = 1e-8,
) -> ComparisonReport:
    """Relative agreement of ``discretize(symbolic)`` with a matrix.

    Reports the relative L2 defect of the action on ``psi`` and a relative
    spectral-norm defect.  Only a ``spectral`` grid is accepted; any other
    scheme raises ``ValueError`` before anything is sampled.  No
    differentiation matrix satisfies the product rule on aliased modes, so
    the norm comparison is restricted to the resolved band |k| <= n/4,
    where agreement is exact to rounding.  ``psi`` enters through
    ``state``, before ``symbolic`` is discretized: one that vanishes on
    every grid point raises ``ValueError``, and one that is not
    2*pi-periodic raises ``NonPeriodicCoefficient``.
    """
    spec = numeric.spec
    if spec.scheme != "spectral":
        raise ValueError(f"compare requires the spectral scheme, got {spec.scheme!r}")
    psi_vec = state(psi, spec)
    sym_mat = discretize(symbolic, spec).matrix
    sym_action = sym_mat @ psi_vec
    num_action = numeric.matrix @ psi_vec

    op_scale = max(_band_limited_norm(sym_mat), 1.0)
    spectral = _band_limited_norm(sym_mat - numeric.matrix) / op_scale

    # Scale the action defect by the larger of the action itself and the
    # operator scale applied to psi, so tiny-norm totals do not inflate it.
    action_scale = max(
        float(np.linalg.norm(sym_action)),
        op_scale * float(np.linalg.norm(psi_vec)),
    )
    l2 = float(np.linalg.norm(sym_action - num_action)) / action_scale
    return ComparisonReport(l2, spectral, tolerance)


LAWS = ("generalized_heisenberg", "covariant")


@dataclass(frozen=True)
class EvolutionResult:
    """Sampled trajectory of an operator flow on the grid.

    ``growth`` holds, per sample, ``||F(t)||_F / ||F(0)||_F`` (0.0 when
    ``F(0)`` is zero): it stays at 1, to RK4's accuracy, under a unitary
    flow and shows the ``exp(t ||[s, H]||)`` growth of a covariant one.
    Only the final operator is kept (``final``), not one per sample: each
    is a dense n x n matrix.
    """

    times: list
    expectations: list
    growth: list
    final: GridOp

    def csv_lines(self):
        """Rows ``t,re_expect,im_expect,growth`` at 17 significant digits."""
        yield "t,re_expect,im_expect,growth"
        for t, expect, growth in zip(self.times, self.expectations, self.growth):
            yield f"{t:.17g},{expect.real:.17g},{expect.imag:.17g},{growth:.17g}"


def _stage_rate(h_mat, plus_s, scale, covariant):
    """``F -> scale * ([F, H] - H [s, F] (+ F [s, H]))`` in two dense products,
    as ``scale * (F R - H (plus_s * F))`` with ``plus_s * X = X + [s, X]`` and
    ``R = H`` or (covariant) ``plus_s * H``, built as ``plus_s * F`` is, so
    that the covariant rate at ``F = H`` is exactly zero."""
    r_mat = plus_s * h_mat if covariant else h_mat

    def rate(f):
        out = f @ r_mat
        out -= h_mat @ (plus_s * f)
        out *= scale
        return out

    return rate


def evolve(
    s: CoefFn,
    hamiltonian: DiffOp,
    f0: DiffOp,
    *,
    t_final: float,
    steps: int,
    spec: GridSpec,
    law: str = "generalized_heisenberg",
    hbar=1,
    psi: CoefFn,
) -> EvolutionResult:
    """Integrate ``dF/dt = rate(F)`` with classic RK4, emitting samples.

    ``law`` selects the plain (``generalized_heisenberg``) or ``covariant``
    rate.  ``min(101, steps + 1)`` samples are taken at steps evenly spread
    from 0 to ``steps``; each records the expectation ``<psi|F|psi> /
    <psi|psi>`` in the state ``psi`` and the norm growth ``||F(t)||_F /
    ||F(0)||_F``, which is 0.0 when ``F(0)`` is zero.  ``s`` and ``psi``
    (through ``state``) are sampled before ``hamiltonian`` and ``f0`` are
    discretized, so a refused ``s`` or ``psi`` costs no matrix.  Each RK4
    stage takes two dense products (``_stage_rate``) and a sample takes
    none; the update runs in place, with the rounding of ``f + (dt/6) (k1
    + 2 k2 + 2 k3 + k4)``.  Only the final operator is returned.  An
    ``hbar`` whose ``1/hbar`` is 0 or not finite as a double raises
    ``ValueError``, and non-finite values in ``F`` raise
    ``EvolutionDiverged``, also a ``ValueError``.
    """
    if law not in LAWS:
        raise ValueError(f"law must be one of {LAWS}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    try:
        scale = -1j / float(hbar)  # 1/(i hbar)
    except (OverflowError, ZeroDivisionError):  # hbar beyond double range, or 0.0
        scale = math.nan
    if not (scale and cmath.isfinite(scale)):
        raise ValueError(f"1/hbar is not a finite nonzero double for hbar = {hbar}")
    s_vec = sample(s, spec)
    psi_vec = state(psi, spec)
    h_mat = discretize(hamiltonian, spec).matrix
    f_mat = discretize(f0, spec).matrix
    psi_norm2 = float(np.real(np.vdot(psi_vec, psi_vec)))

    plus_s = 1.0 + _s_difference(s_vec)
    rate = _stage_rate(h_mat, plus_s, scale, law == "covariant")

    dt = t_final / steps
    n_samples = min(101, steps + 1)
    sample_steps = sorted({round(k * steps / (n_samples - 1)) for k in range(n_samples)})
    norm0 = float(np.linalg.norm(f_mat))

    times, expectations, growth = [], [], []

    def record(step_index, f):
        times.append(step_index * dt)
        expectations.append(complex(np.vdot(psi_vec, f @ psi_vec)) / psi_norm2)
        growth.append(float(np.linalg.norm(f)) / norm0 if norm0 else 0.0)

    record(0, f_mat)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, steps + 1):
            k1 = rate(f_mat)
            k2 = rate(f_mat + 0.5 * dt * k1)
            k3 = rate(f_mat + 0.5 * dt * k2)
            k4 = rate(f_mat + dt * k3)
            k2 *= 2.0
            k2 += k1
            k3 *= 2.0
            k2 += k3
            k2 += k4
            k2 *= dt / 6.0
            k2 += f_mat
            f_mat = k2
            if not np.all(np.isfinite(f_mat)):
                raise EvolutionDiverged(
                    f"non-finite values at step {step} (t = {step * dt:.6g}); "
                    "reduce the step size or the operator order"
                )
            if step in sample_steps:
                record(step, f_mat)
    return EvolutionResult(times, expectations, growth, GridOp(f_mat, spec))


def is_hermitian(op: GridOp) -> bool:
    """Relative Frobenius defect of ``M - M^H`` at most ``1e-10``."""
    defect = np.linalg.norm(op.matrix - op.matrix.conj().T)
    scale = max(1.0, float(np.linalg.norm(op.matrix)))
    return float(defect) / scale <= 1e-10


def eigenvalues(op: GridOp) -> np.ndarray:
    """Eigenvalues sorted by (real, imaginary) part for deterministic output."""
    values = np.linalg.eigvals(op.matrix)
    order = np.lexsort((values.imag, values.real))
    return values[order]
