"""Classical structural brackets over polynomial phase-space functions.

Phase space is coordinatized as ``(x_1..x_n, p_1..p_n)``; functions are
:class:`CoefFn` values over ``2n`` coordinates with every exponential
frequency zero (pure polynomials), which keeps all checks exact.  The
generalized bracket is ``{f, g} = grad(f)^T J grad(g)`` for an antisymmetric
structure matrix J, and the structural extension adds the same correction
pattern as the quantum side:

    {f, g}_s = {f, g} + f {s, g} - g {s, f}.

Each law of the classical flow of ``f`` under a Hamiltonian ``H`` has one
function, as in :mod:`geobracket.quantum`: the full rate ``{f, H}_s`` is
``gspb``, the plain rate ``{f, H} - H {s, f}`` is ``dynamics_rhs`` and the
generator ``w = {s, H}`` is ``gpb(s, H, j)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, NonPolynomialPhaseFunction
from .functions import CoefFn, zero
from .scalars import as_fraction

@dataclass(frozen=True)
class StructureMatrix:
    """Antisymmetric rational matrix defining the generalized bracket."""

    entries: tuple

    def __post_init__(self):
        rows = tuple(tuple(as_fraction(v) for v in row) for row in self.entries)
        size = len(rows)
        if any(len(row) != size for row in rows):
            raise ValueError("structure matrix must be square")
        for i in range(size):
            for j in range(size):
                if rows[i][j] != -rows[j][i]:
                    raise ValueError("structure matrix must be antisymmetric")
        object.__setattr__(self, "entries", rows)

    @property
    def size(self) -> int:
        return len(self.entries)

    def __getitem__(self, index):
        i, j = index
        return self.entries[i][j]

    @staticmethod
    def canonical(pairs: int) -> "StructureMatrix":
        """The standard symplectic matrix for ``pairs`` position/momentum pairs."""
        size = 2 * pairs
        rows = [[Fraction(0)] * size for _ in range(size)]
        for k in range(pairs):
            rows[k][pairs + k] = Fraction(1)
            rows[pairs + k][k] = Fraction(-1)
        return StructureMatrix(tuple(tuple(row) for row in rows))


def _check(j: StructureMatrix, *fns: CoefFn):
    for f in fns:
        if not f.is_polynomial:
            raise NonPolynomialPhaseFunction(
                "phase-space functions must be polynomial (no exponential terms)"
            )
        if f.dim != j.size:
            raise DimensionMismatch(
                f"function over {f.dim} coordinates with {j.size}x{j.size} structure matrix"
            )


def gpb(f: CoefFn, g: CoefFn, j: StructureMatrix) -> CoefFn:
    """Generalized bracket ``sum_ab J_ab (d_a f)(d_b g)``."""
    _check(j, f, g)
    out = zero(f.dim)
    grads_f = [f.diff(a) for a in range(f.dim)]
    grads_g = [g.diff(b) for b in range(f.dim)]
    for a in range(f.dim):
        if grads_f[a].is_zero:
            continue
        for b in range(f.dim):
            weight = j[a, b]
            if weight == 0 or grads_g[b].is_zero:
                continue
            out = out + (grads_f[a] * grads_g[b]).scaled(weight)
    return out


def gspb(s: CoefFn, f: CoefFn, g: CoefFn, j: StructureMatrix) -> CoefFn:
    """Structural bracket ``{f, g} + f {s, g} - g {s, f}``."""
    _check(j, s, f, g)
    return gpb(f, g, j) + geobracket_part(s, f, g, j)


def geobracket_part(s: CoefFn, f: CoefFn, g: CoefFn, j: StructureMatrix) -> CoefFn:
    """The correction term alone: ``f {s, g} - g {s, f}``."""
    _check(j, s, f, g)
    return f * gpb(s, g, j) - g * gpb(s, f, j)


def dynamics_rhs(s: CoefFn, hamiltonian: CoefFn, f: CoefFn, j: StructureMatrix) -> CoefFn:
    """Plain rate of change of ``f`` under ``hamiltonian``: ``{f, H} - H {s, f}``.

    The full rate is ``gspb(s, f, H, j)`` and the generator is ``w =
    gpb(s, H, j)``; the three satisfy ``full = plain + f * w`` exactly.
    """
    _check(j, s, hamiltonian, f)
    return gpb(f, hamiltonian, j) - hamiltonian * gpb(s, f, j)
