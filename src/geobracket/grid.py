"""Dense-matrix realization of operators on a periodic 1-D grid.

This is the package's independent numerical check: operators become N x N
complex matrices on the uniform grid over [0, 2*pi), brackets are recomputed
with matrix products in the Fourier basis, where every operand is banded,
and flows are integrated with classic fourth-order Runge-Kutta, which
applies a banded generator (a ``central2`` Hamiltonian) by its diagonals
and any other by dense products.
Everything here is double precision on purpose, so agreement with the exact
engine is evidence rather than tautology.

Input gate: every coefficient, structure function ``s`` and state ``psi``
enters the oracle through ``sample``, and nowhere else.  Under ``spectral``
(Fourier differentiation, exact to rounding on resolved modes of
2*pi-periodic data) ``sample`` refuses a function that is not
2*pi-periodic with ``NonPeriodicCoefficient``, naming it in DSL form;
``central2``, the second-order central difference ``(f[i+1] - f[i-1]) /
(2h)``, accepts polynomial data at the cost of accuracy and serves flows
and ``discretize``; ``matrix_bracket`` refuses it, since a difference
matrix breaks the product rule that every ``[s, .]`` term relies on, and
``compare`` measures any matrix on the spectral grid of its size.
``sample`` is also the only place where an exact function becomes
doubles: under either scheme it refuses, with ``ValueError`` naming the
function, one whose samples are not finite, and no numpy warning escapes
it.  ``state`` samples a ``psi`` and also refuses, with
``ValueError``, one that vanishes on every grid point or whose
``||psi||^2`` leaves double precision, since expectations and relative
residuals divide by it; ``evolve`` refuses an ``hbar`` whose ``1/hbar`` is
0 or not finite as a double.
``matrix_bracket`` and ``evolve`` sample ``s``, and ``compare`` and
``evolve`` sample ``psi``, before they discretize anything, so such input
is refused before any dense work.  Finite samples can still overflow in
the dense work: ``discretize``, ``matrix_bracket`` and ``compare`` compute
under ``np.errstate`` and refuse, with ``ValueError`` naming the operator,
a matrix, a bracket or a residual that is not finite, so no numpy warning
escapes them either.  An operand is rendered in DSL form only for such a
refusal, never for a finite result.

Size budget: a grid has at most ``MAX_POINTS`` (2048) points, since every
operator is a dense n x n complex matrix (64 MiB at the cap); larger sizes
are rejected with ``ValueError`` before anything is allocated.
``matrix_bracket`` holds at most one and a half such matrices: the result,
besides the operands' Fourier diagonals and one panel's product.
``compare`` never holds the symbolic matrix: it streams it in row panels
beside the numeric matrix, so a certified pass holds at most one and a
half with its input, and only a comparison the panels' bounds cannot pass
streams it again into the n x (n/2 + 1) resolved bands of the symbolic
operator and of its defect (with one band's conjugate and Gram matrix at
a time), at most three with its input.  A flow holds about eight:
``plus_s``, two buffers of its stage rate (with a dense generator, ``H``
and ``R`` besides), ``F``, the stage input, the accumulator and two stage
rates.

Residuals: on a pass ``compare`` reports certified upper bounds of its
residuals, from the norm inequalities ``max_j ||X e_j|| <= ||X||_2 <=
||X||_F``; otherwise, and so on every FAIL, it reports the exact
band-limited 2-norms, and the verdict is the exact norms' either way.

Every ``D^k`` is built by ``derivative_matrix(spec, k)``, once per call
that uses it; a spectral power is a read-only circulant view of 2n values,
built in O(n log n), not a dense matrix.  A coefficient or structure
function is a multiplication operator, so it stays a vector of samples
instead of taking part in a dense product.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .brackets import KINDS
from .errors import DimensionMismatch, EvolutionDiverged, NonPeriodicCoefficient
from .functions import CoefFn
from .operators import DiffOp
from .quantum import LAWS

SCHEMES = ("spectral", "central2")

# Grid-size budget: every operator is a dense n x n complex matrix, and a
# flow holds about eight of them at once (a bracket check at most three).
MAX_POINTS = 2048

# Rows per panel where ``compare`` streams an operator instead of holding it.
# It divides every grid size, and at n = 256 a panel is a sixteenth of a
# dense matrix.
PANEL_ROWS = 16


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


def _wavenumbers(n: int) -> np.ndarray:
    """Integer FFT wavenumbers in FFT order, with the Nyquist mode at ``+n/2``."""
    wavenumbers = np.fft.fftfreq(n, d=1.0 / n)
    wavenumbers[n // 2] = n / 2
    return wavenumbers


def _circulant(column: np.ndarray) -> np.ndarray:
    """The circulant ``C[i, j] = column[(i - j) % n]`` as a read-only view.

    Row ``i`` is a contiguous window of the reversed column repeated twice,
    so the matrix is a strided view of 2n values.
    """
    n = len(column)
    reversed_twice = np.concatenate((column[::-1], column[::-1]))
    return sliding_window_view(reversed_twice, n)[n - 1 :: -1]


def derivative_matrix(spec: GridSpec, order: int = 1) -> np.ndarray:
    """The scheme's ``D^order``, where ``D`` differentiates once.

    Both schemes are circulant, ``D[i, j] = c[(i - j) % n]``, so each is
    built from a first column ``c``.  Under ``spectral`` ``D^order`` is
    ``ifft . diag((i k)^order) . fft``, the circulant of ``ifft((i
    k)^order)``, with integer wavenumbers ``k in {-n/2+1, ..., n/2}``:
    O(n log n) work, and ``D`` is anti-Hermitian and exact on
    resolved modes.  The Nyquist mode is assigned ``+n/2`` so that every
    order carries the full symbol (zeroing it would misplace that mode's
    frequency in every even-order derivative).  Under ``central2`` ``D`` has
    ``+-1/(2h)`` at the two neighbours, the central difference ``(f[i+1] -
    f[i-1]) / (2h)``, and ``D^order`` is its matrix power.

    The result is read-only.  Under ``spectral`` it is the circulant view
    of the symbol column (2n values, O(n) memory); under ``central2`` it is
    a dense matrix.
    """
    n = spec.n_points
    if spec.scheme == "spectral":
        return _circulant(np.fft.ifft((1j * _wavenumbers(n)) ** order))
    column = np.zeros(n)
    column[1] -= 1.0
    column[-1] += 1.0
    column /= 2.0 * spec.spacing
    # A dense copy: not every supported numpy hands a product of strided
    # views to BLAS, and another kernel would change the powers' rounding.
    power = np.linalg.matrix_power(np.ascontiguousarray(_circulant(column)), order)
    power.setflags(write=False)
    return power


def _finite(values: np.ndarray, what: str, *operands) -> np.ndarray:
    """``values``; ``ValueError`` naming ``what.format(*operands)`` if any is
    not finite.  The operands are rendered only then, so a finite result
    costs no printing."""
    if not np.isfinite(values).all():
        raise ValueError(f"{what.format(*operands)} are not finite in double precision")
    return values


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
    return _finite(values, "the samples of {}", f)


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


def _row_panels(op: DiffOp, spec: GridSpec, rows: int):
    """Yield ``(panel, block)``: ``block`` holds the rows ``panel`` (a
    slice) of ``sum diag(c_alpha) D^alpha``, ``rows`` rows at a time.

    Each ``diag(c_alpha) D^alpha`` is formed by scaling the rows of
    ``D^alpha`` by the samples of ``c_alpha`` into one scratch block, reused
    across terms (the order-0 term is added to the diagonal): O(n^2) per
    term instead of a dense O(n^3) product.  Every coefficient is sampled,
    and then each ``D^alpha`` built once, before the first block is formed;
    ``block`` is one buffer, overwritten for each panel.  ``rows`` divides
    ``n``.
    """
    if op.dim != 1:
        raise DimensionMismatch("the grid oracle is one-dimensional")
    n = spec.n_points
    terms = [(order, sample(coeff, spec)) for (order,), coeff in op.terms.items()]
    powers = {order: derivative_matrix(spec, order) for order, _ in terms if order}
    block = np.empty((rows, n), dtype=complex)
    scratch = np.empty_like(block)
    diagonal = np.arange(rows)
    for start in range(0, n, rows):
        panel = slice(start, start + rows)
        block.fill(0)
        with np.errstate(all="ignore"):
            for order, values in terms:
                if order:
                    np.multiply(values[panel, None], powers[order][panel], out=scratch)
                    block += scratch
                else:
                    block[diagonal, diagonal + start] += values[panel]
        yield panel, block


def discretize(op: DiffOp, spec: GridSpec) -> np.ndarray:
    """Realize ``sum_alpha c_alpha d^alpha`` as ``sum diag(c_alpha) D^alpha``:
    ``_row_panels`` with one panel of all ``n`` rows."""
    [(_, matrix)] = _row_panels(op, spec, spec.n_points)
    return _finite(matrix, "the matrix entries of {}", op)


def _offsets(f: CoefFn, n: int) -> set:
    """The wrapped diagonals ``k % n`` of the terms ``exp(i k x)`` of ``f``.

    Read from the exact terms, so it is known before ``f`` is sampled; a
    term that is not a plane wave is refused by ``sample`` later."""
    return {int(kappa[0].im) % n for _, kappa in f.terms}


def _fourier_modes(f: CoefFn, spec: GridSpec) -> np.ndarray:
    """``fft(samples) / n``: the coefficient of ``exp(i k x)`` at index ``k
    % n``.  The samples are scaled first, exactly (``n`` is a power of two),
    so that the sum cannot overflow where the samples do not."""
    return np.fft.fft(sample(f, spec) / spec.n_points)


def _accumulate(diagonals: dict, offset: int, values: np.ndarray) -> None:
    """Add ``values`` (a fresh array) into ``diagonals[offset]``."""
    if offset in diagonals:
        diagonals[offset] += values
    else:
        diagonals[offset] = values


def _fourier_diagonals(op: DiffOp, spec: GridSpec) -> dict:
    """``discretize(op, spec)`` in the Fourier basis, as wrapped diagonals.

    With ``F`` the DFT matrix, ``X^ = F X F^-1`` has ``X^[(k + m) % n, k] =
    v_m[k]``: a coefficient's plane wave ``exp(i m x)`` shifts mode ``k`` to
    ``k + m``, and ``D^alpha`` is ``diag((i k)^alpha)`` with
    ``_wavenumbers``, as in ``derivative_matrix``.  So ``v_m`` sums, over the
    terms of ``op``, the coefficient's mode ``m`` times the symbol.  Every
    coefficient is sampled before any diagonal is formed, and diagonals that
    are not finite raise ``ValueError`` naming ``op``, as ``discretize``
    does.
    """
    if op.dim != 1:
        raise DimensionMismatch("the grid oracle is one-dimensional")
    n = spec.n_points
    terms = [(order, _offsets(coeff, n), _fourier_modes(coeff, spec))
             for (order,), coeff in op.terms.items()]
    diagonals = {}
    for order, offsets, modes in terms:
        symbol = (1j * _wavenumbers(n)) ** order
        for offset in offsets:
            _accumulate(diagonals, offset, modes[offset] * symbol)
    for values in diagonals.values():
        _finite(values, "the matrix entries of {}", op)
    return diagonals


def _with_commutator(x: dict, s_modes: dict, keep: bool, n: int) -> dict:
    """The diagonals of ``X + [S, X]`` if ``keep``, else of ``[S, X]``, for
    ``S = diag(s)`` with Fourier modes ``s_modes`` (``{f: s_f}``, ``f !=
    0``): ``[S, X]`` gets ``s_f (x_m - roll(x_m, -f))`` on diagonal ``m +
    f``."""
    out = {m: v.copy() for m, v in x.items()} if keep else {}
    for m, v in x.items():
        doubled = np.concatenate((v, v))  # doubled[f : f + n] is roll(v, -f)
        for f, s_f in s_modes.items():
            _accumulate(out, (m + f) % n, s_f * (v - doubled[f : f + n]))
    return out


def _product_into(out: dict, x: dict, y: dict, n: int) -> None:
    """Add the diagonals of ``X Y`` into ``out``: ``roll(x_m1, -m2) * y_m2``
    goes to diagonal ``m1 + m2``."""
    for m1, v in x.items():
        doubled = np.concatenate((v, v))  # doubled[m : m + n] is roll(v, -m)
        for m2, w in y.items():
            _accumulate(out, (m1 + m2) % n, doubled[m2 : m2 + n] * w)


def _from_fourier(diagonals: dict, n: int) -> np.ndarray:
    """The grid matrix ``F^-1 X^ F`` of wrapped Fourier diagonals ``{m: v_m}``.

    It is ``sum_m diag(w_m) C(ifft(v_m))``, with ``w_m[j] = exp(2 pi i m j /
    n)`` (the exponent reduced mod ``n`` exactly) and ``C`` the circulant
    ``C(c)[j, l] = c[(j - l) % n]``.  For ``PANEL_ROWS`` rows from ``start``,
    the entries ``c[(j - l) % n]`` lie in one window of ``n + PANEL_ROWS -
    1`` values of each ``c``, so the panel is read off one rank-d product
    of the rows' ``w`` with the d windows: row ``r`` is the run of ``n``
    values of the product's row ``r`` that starts at ``PANEL_ROWS - 1 - r``.
    O(d n^2) work, in BLAS, and one dense matrix, the result.
    """
    out = np.zeros((n, n), dtype=complex)
    if not diagonals:
        return out
    rows = PANEL_ROWS
    width = n + rows - 1
    twiddles = np.exp((2j * math.pi / n) * (np.outer(np.arange(n), list(diagonals)) % n))
    # reverse[:, t] = c[(-t) % n], so that each panel's windows are a slice
    reverse = np.fft.ifft(np.array(list(diagonals.values())), axis=1)[:, -np.arange(2 * n) % n]
    for start in range(0, n, rows):
        block = twiddles[start : start + rows] @ reverse[:, n - start - rows + 1 : 2 * n - start]
        out[start : start + rows] = sliding_window_view(block.ravel(), n)[rows - 1 :: width - 1]
    return out


def matrix_bracket(
    s: CoefFn,
    a: DiffOp,
    b: DiffOp,
    spec: GridSpec,
    kind: str = "qcpb",
) -> np.ndarray:
    """Recompute a bracket with matrix products only.

    ``qpb`` is ``a b - b a``, ``geomutator`` is ``a [s, b] - b [s, a]`` and
    ``qcpb`` their sum, ``a (b + [s, b]) - b (a + [s, a])``: ``a Y_b - b
    Y_a`` with ``Y_x = x``, ``[s, x]`` or ``x + [s, x]`` by ``kind``.  The
    products are taken in the Fourier basis, where every operand has one
    wrapped diagonal per frequency of its coefficients, and the result
    becomes a grid matrix once (``_from_fourier``): O(pairs n + d n^2) work,
    for ``pairs`` diagonal-pair products and ``d`` result diagonals, and one
    dense matrix.  The product is still a matrix product, with no Leibniz
    rule from the engine, and each of its entries sums a few terms instead
    of ``n``.

    An unknown ``kind`` is refused first, and then any scheme but
    ``spectral``, both before anything is sampled.  ``s`` is sampled (so
    checked) before ``a`` and ``b``, except under ``qpb``, which does not
    use it.  An operand whose Fourier diagonals are not finite
    raises ``ValueError`` naming it, and a result that is not finite raises
    ``ValueError`` naming ``a`` and ``b``.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown bracket kind {kind!r}")
    if spec.scheme != "spectral":
        raise ValueError(f"matrix_bracket requires the spectral scheme, got {spec.scheme!r}")
    n = spec.n_points
    with np.errstate(all="ignore"):
        if kind != "qpb":
            modes = _fourier_modes(s, spec)
            s_modes = {f: modes[f] for f in _offsets(s, n) if f}  # the constant commutes
        a_hat = _fourier_diagonals(a, spec)
        b_hat = _fourier_diagonals(b, spec)
        if kind == "qpb":
            a_right, b_right = a_hat, b_hat
        else:
            a_right, b_right = (_with_commutator(x, s_modes, kind == "qcpb", n)
                                for x in (a_hat, b_hat))
        diagonals = {}
        _product_into(diagonals, a_hat, b_right, n)
        _product_into(diagonals, {m: -v for m, v in b_hat.items()}, a_right, n)
        out = _from_fourier(diagonals, n)
    return _finite(out, "the matrix entries of the {} of {} and {}", kind, a, b)


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


def _resolved_band(n: int) -> np.ndarray:
    """The mask of the resolved Fourier modes, |k| <= n/4, in FFT order."""
    return np.abs(_wavenumbers(n)) <= n // 4


def _norm2(columns: np.ndarray) -> float:
    """``||X P||_2`` for the projector ``P`` onto the resolved Fourier modes
    |k| <= n/4, from ``columns``, the resolved columns of ``ifft(X,
    axis=1)`` for an n x n ``X``.

    ``P = Q^H M Q`` with ``Q`` the unitary DFT and ``M`` the 0/1 mode mask,
    so ``||X P||_2 = ||X Q^H M||_2``, and the columns of ``X Q^H`` are
    ``sqrt(n) * ifft(X, axis=1)``.  The 2-norm of ``columns`` is the square
    root of the largest eigenvalue of its Gram matrix, not an SVD; it is
    clamped at 0, so an exactly zero matrix gives exactly 0.0, and it is
    ``inf`` when the Gram matrix overflows.
    """
    gram = columns.conj().T @ columns
    if not np.isfinite(gram).all():
        return math.inf
    return math.sqrt(len(columns)) * math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def _panel_modes(symbolic, numeric, spec, psi_vec, action):
    """Stream ``symbolic`` against ``numeric`` ``PANEL_ROWS`` rows at a time.

    For each panel of the symbolic matrix, write its rows' action on
    ``psi_vec`` into ``action``, then yield ``(panel, which, modes)``:
    ``ifft(rows, axis=1)`` of the symbolic rows (``which`` 0), then of the
    symbolic rows minus the numeric ones (``which`` 1).  A symbolic entry
    that is not finite makes its row's action not finite (``inf * 0`` is
    ``nan``), and that panel then raises ``ValueError`` naming
    ``symbolic``, as ``discretize`` would.
    """
    for panel, block in _row_panels(symbolic, spec, PANEL_ROWS):
        np.matmul(block, psi_vec, out=action[panel])
        if not np.isfinite(action[panel]).all():
            _finite(block, "the matrix entries of {}", symbolic)
        yield panel, 0, np.fft.ifft(block, axis=1)
        block -= numeric[panel]
        yield panel, 1, np.fft.ifft(block, axis=1)


def _residuals(op_norm, defect_norm, sym_action, num_action, psi_vec):
    """``(l2, spectral, op_scale, action_scale)`` from the band-limited
    2-norm ``op_norm`` of the symbolic operator, or a lower bound of it, and
    ``defect_norm`` of its difference from the numeric one, or an upper
    bound of it."""
    op_scale = max(op_norm, 1.0)
    # Scale the action defect by the larger of the action itself and the
    # operator scale applied to psi, so tiny-norm totals do not inflate it.
    action_scale = max(
        float(np.linalg.norm(sym_action)),
        op_scale * float(np.linalg.norm(psi_vec)),
    )
    l2 = float(np.linalg.norm(sym_action - num_action)) / action_scale
    return l2, defect_norm / op_scale, op_scale, action_scale


def compare(
    symbolic: DiffOp,
    numeric: np.ndarray,
    psi: CoefFn,
    tolerance: float = 1e-8,
) -> ComparisonReport:
    """Relative agreement of ``discretize(symbolic)`` with a matrix.

    Reports the relative L2 defect of the action on ``psi`` and a relative
    spectral-norm defect on the grid ``GridSpec(len(numeric))``, which is
    spectral: a ``numeric`` that is not square, or whose size is not a
    grid size, raises ``ValueError`` before anything is sampled.  No
    differentiation matrix satisfies the product rule on aliased modes, so
    the norm comparison is restricted to the resolved band |k| <= n/4,
    where agreement is exact to rounding only while every product keeps
    the resolved modes within +-n/2 before a derivative acts: at n = 16 the
    correct ``qpb`` of ``exp(5 i x) d1`` and ``d1`` FAILs with a spectral
    residual of 3.2 (``b a`` moves mode 4 to 9), and at n = 32 it passes.
    ``psi`` enters through ``state``, before ``symbolic`` is discretized:
    one that vanishes on every grid point raises ``ValueError``, and one
    that is not 2*pi-periodic raises ``NonPeriodicCoefficient``.  A symbolic matrix,
    residuals or scales that are not finite raise ``ValueError`` naming
    ``symbolic``.

    ``symbolic`` is streamed in row panels (``_panel_modes``) and never
    held whole.  With ``C`` the resolved columns of ``ifft(X, axis=1)``,
    ``||X P||_2 = sqrt(n) ||C||_2`` lies between ``sqrt(n)`` times the
    largest column norm of ``C`` and ``sqrt(n) ||C||_F`` (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., ch. 6).  The first
    stream sums each mode's power over all rows, so the largest column norm
    bounds the scale from below, the Frobenius norm of the defect's band
    bounds the spectral residual from above, and the action residual, the
    exact numerator over a scale no larger than the exact one, is an upper
    bound too.  When the two scales and the two residuals are all finite
    and both residuals are at most ``tolerance``, these bounds are reported
    as a certified pass, without an eigensolver.  Otherwise a second stream
    copies both bands into n x (n/2 + 1) buffers and the exact 2-norms
    (``_norm2``) give the residuals.  So a FAIL reports exact residuals,
    and the verdict is the exact one either way (up to rounding in the
    bounds).
    """
    shape = np.shape(numeric)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"compare requires a square matrix, got shape {shape}")
    spec = GridSpec(len(numeric))
    psi_vec = state(psi, spec)
    n = spec.n_points
    band = _resolved_band(n)
    sym_action = np.empty(n, dtype=complex)
    with np.errstate(all="ignore"):
        num_action = numeric @ psi_vec
        power = np.zeros((2, n))
        for _, which, modes in _panel_modes(symbolic, numeric, spec, psi_vec, sym_action):
            power[which] += (np.abs(modes) ** 2).sum(axis=0)
            del modes  # freed before the stream forms the next panel's modes
        op_norm = math.sqrt(n * float(power[0, band].max()))
        if math.isfinite(op_norm):  # else a zero action would divide by 0.0
            bounds = _residuals(op_norm, math.sqrt(n * float(power[1, band].sum())),
                                sym_action, num_action, psi_vec)
            if all(map(math.isfinite, bounds)) and max(bounds[:2]) <= tolerance:
                return ComparisonReport(*bounds[:2], tolerance)
        columns = np.empty((2, n, n // 2 + 1), dtype=complex)
        for panel, which, modes in _panel_modes(symbolic, numeric, spec, psi_vec, sym_action):
            columns[which, panel] = modes[:, band]
        residuals = _residuals(_norm2(columns[0]), _norm2(columns[1]),
                               sym_action, num_action, psi_vec)
    _finite(np.array(residuals), "the residuals of {}", symbolic)
    return ComparisonReport(*residuals[:2], tolerance)


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
    final: np.ndarray

    def csv_lines(self):
        """Rows ``t,re_expect,im_expect,growth`` at 17 significant digits."""
        yield "t,re_expect,im_expect,growth"
        for t, expect, growth in zip(self.times, self.expectations, self.growth):
            yield f"{t:.17g},{expect.real:.17g},{expect.imag:.17g},{growth:.17g}"


def _wrapped_diagonal(matrix, offset):
    """``v[j] = matrix[(j + offset) % n, j]``, a fresh vector."""
    n = len(matrix)
    return np.concatenate((np.diagonal(matrix, -offset), np.diagonal(matrix, n - offset)))


def _banded(matrix, limit):
    """``{o: v_o}`` for the nonzero wrapped diagonals ``v_o`` of ``matrix``
    (``_wrapped_diagonal``), in increasing ``o``, or ``None`` as soon as
    more than ``limit`` are found."""
    diagonals = {}
    for offset in range(len(matrix)):
        values = _wrapped_diagonal(matrix, offset)
        if values.any():
            if len(diagonals) == limit:
                return None
            diagonals[offset] = values
    return diagonals


def _stage_rate(h_mat, plus_s, scale, covariant):
    """``F -> scale * ([F, H] - H [s, F] (+ F [s, H]))``, computed as ``scale *
    (F R - H (plus_s * F))`` with ``plus_s * X = X + [s, X]`` and ``R = H`` or
    (covariant) ``plus_s * H``.

    The cut is a cost rule.  When ``H`` has at most ``n // 16`` nonzero
    wrapped diagonals (``_banded``; ``R``, whose zeros include ``H``'s, has
    no more), both products are taken from the diagonals alone, in O(d n^2)
    for d diagonals: ``(F R)[:, j] = sum_o F[:, (j + o) % n] r_o[j]`` and
    ``(H Y)[i] = sum_o h_o[(i - o) % n] Y[(i - o) % n]``, with ``scale``
    folded into ``r_o`` and ``-scale`` into ``h_o``.  Each offset takes two
    slice products (the second is the wrap): the first offset of ``F R``
    writes them into the result, and every other offset into one reused
    buffer that is added to it.  The rate then holds neither ``H`` nor ``R`` densely.  A
    ``central2`` ``D^k`` has k + 1 such diagonals (offsets -k, -k + 2, ...,
    k), so a second-order Hamiltonian takes this path from n = 64 on.
    Otherwise, as for a spectral or a smaller ``H``, dense products are
    cheaper, and the rate takes two, with ``R`` built as ``plus_s * F`` is,
    so that the covariant rate at ``F = H`` is exactly zero.
    """
    n = len(h_mat)
    scaled = np.empty_like(h_mat)  # plus_s * F, written afresh at each call
    h_diagonals = _banded(h_mat, n // 16)
    if h_diagonals is None:
        r_mat = plus_s * h_mat if covariant else h_mat

        def rate(f):
            out = f @ r_mat
            out -= h_mat @ np.multiply(plus_s, f, out=scaled)
            out *= scale
            return out

        return rate

    r_diagonals = h_diagonals
    if covariant:
        r_diagonals = {o: _wrapped_diagonal(plus_s, o) * h for o, h in h_diagonals.items()}
    r_terms = [(o, scale * r) for o, r in r_diagonals.items()]
    h_terms = [(o, -scale * h) for o, h in h_diagonals.items()]
    product = np.empty_like(h_mat)

    def rate(f):
        out = np.empty_like(f) if r_terms else np.zeros_like(f)
        for index, (o, r) in enumerate(r_terms):
            target = product if index else out
            np.multiply(f[:, o:], r[: n - o], out=target[:, : n - o])
            np.multiply(f[:, :o], r[n - o :], out=target[:, n - o :])
            if index:
                out += product
        y = np.multiply(plus_s, f, out=scaled)
        for o, h in h_terms:
            np.multiply(h[: n - o, None], y[: n - o], out=product[o:])
            np.multiply(h[n - o :, None], y[n - o :], out=product[:o])
            out += product
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
    stage takes one ``_stage_rate``: O(d n^2) work when ``H`` has d <= n //
    16 nonzero wrapped diagonals, as a second-order ``central2`` Hamiltonian
    has from n = 64 on, and otherwise two dense products.  A sample takes
    no dense product.  Step 0 is recorded at time 0.0, also when
    ``t_final`` is negative or -0.0.  Each stage's rate is added into one
    accumulator once the next stage's input is formed, with the rounding of
    ``f + (dt/6) (k1 + 2 k2 + 2 k3 + k4)``, and stage inputs reuse one
    buffer.  Only the final operator is returned.  An ``hbar`` whose
    ``1/hbar`` is 0 or not finite as a double raises ``ValueError``, and
    non-finite values in ``F`` raise ``EvolutionDiverged``, also a
    ``ValueError``.
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
    h_mat = discretize(hamiltonian, spec)
    f_mat = discretize(f0, spec)
    psi_norm2 = float(np.real(np.vdot(psi_vec, psi_vec)))

    plus_s = 1.0 + (s_vec[:, None] - s_vec[None, :])  # plus_s * X = X + [diag(s), X]
    rate = _stage_rate(h_mat, plus_s, scale, law == "covariant")
    del h_mat  # a banded rate keeps only its diagonals

    dt = t_final / steps
    n_samples = min(101, steps + 1)
    sample_steps = sorted({round(k * steps / (n_samples - 1)) for k in range(n_samples)})
    norm0 = float(np.linalg.norm(f_mat))

    times, expectations, growth = [], [], []

    def record(step_index, f):
        times.append(step_index * dt + 0.0)  # step 0 at 0.0, not -0.0, when dt <= 0
        expectations.append(complex(np.vdot(psi_vec, f @ psi_vec)) / psi_norm2)
        growth.append(float(np.linalg.norm(f)) / norm0 if norm0 else 0.0)

    def stage_input(weight, k):
        """``f_mat + weight * k``, written into the one stage buffer."""
        np.multiply(weight, k, out=stage)
        return np.add(f_mat, stage, out=stage)

    stage = np.empty_like(f_mat)
    record(0, f_mat)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, steps + 1):
            # Each stage is folded into the accumulator ``total`` as soon as
            # the next stage's input is formed: (2 k2 + k1) + 2 k3 + k4.
            k1 = rate(f_mat)
            total = rate(stage_input(0.5 * dt, k1))
            stage_input(0.5 * dt, total)
            total *= 2.0
            total += k1
            del k1
            k3 = rate(stage)
            stage_input(dt, k3)
            k3 *= 2.0
            total += k3
            del k3
            total += rate(stage)
            total *= dt / 6.0
            total += f_mat
            f_mat = total
            if not np.all(np.isfinite(f_mat)):
                raise EvolutionDiverged(
                    f"non-finite values at step {step} (t = {step * dt:.6g}); "
                    "reduce the step size or the operator order"
                )
            if step in sample_steps:
                record(step, f_mat)
    return EvolutionResult(times, expectations, growth, f_mat)


def is_hermitian(matrix: np.ndarray) -> bool:
    """Relative Frobenius defect of ``M - M^H`` at most ``1e-10``."""
    defect = np.linalg.norm(matrix - matrix.conj().T)
    scale = max(1.0, float(np.linalg.norm(matrix)))
    return float(defect) / scale <= 1e-10


def eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues sorted by (real, imaginary) part for deterministic output."""
    values = np.linalg.eigvals(matrix)
    order = np.lexsort((values.imag, values.real))
    return values[order]
