"""Covariant quantum dynamics generated by a structure function.

Given a Hamiltonian H and structure function s, the flow of an observable F
splits into

    covariant rate:   (1/i hbar) [F, H]          (extended bracket)
    plain rate:       (1/i hbar) ([F, H]_c - H [s, F]_c)
    generator:        w = (1/i hbar) [s, H]_c

with ``[.,.]_c`` the ordinary commutator; the three are tied together by
``covariant = plain + F w`` exactly.  The module also builds the
structure-corrected momentum ``p_j = -i hbar (d_j + (d_j s))`` and the full
table of canonical commutation relations it induces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .brackets import _check, geomutator, qcpb
from .functions import CoefFn, coord, monomial, one, zero
from .operators import (
    DiffOp,
    commutator,
    compose,
    mult,
    partial_d,
    position,
)
from .scalars import ComplexRational, as_fraction


@dataclass(frozen=True)
class Params:
    """Physical constants; all exact rationals, defaults 1."""

    hbar: Fraction = Fraction(1)
    mass: Fraction = Fraction(1)
    omega: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "hbar", as_fraction(self.hbar))
        object.__setattr__(self, "mass", as_fraction(self.mass))
        object.__setattr__(self, "omega", as_fraction(self.omega))
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if self.omega < 0:
            raise ValueError("omega must be non-negative")

    @property
    def inv_i_hbar(self) -> ComplexRational:
        """The scalar ``1 / (i hbar) = -i / hbar``."""
        return ComplexRational(0, Fraction(-1) / self.hbar)


@dataclass(frozen=True)
class Hamiltonian:
    op: DiffOp
    params: Params = Params()


def harmonic_oscillator(params: Params = Params()) -> Hamiltonian:
    """``-hbar^2/(2m) d^2 + (m omega^2 / 2) x^2`` in one dimension."""
    kinetic_coeff = Fraction(-1) * params.hbar**2 / (2 * params.mass)
    potential_coeff = params.mass * params.omega**2 / 2
    op = partial_d(1, 0, 2).scaled(kinetic_coeff) + mult(
        monomial(1, (2,), potential_coeff)
    )
    return Hamiltonian(op, params)


@dataclass(frozen=True)
class GDynamics:
    """The flow generator ``w = (1/i hbar) [s, H]`` and its energy form."""

    w_op: DiffOp
    geomenergy: DiffOp  # i hbar w = [s, H]


def gdynamics(s: CoefFn, h: Hamiltonian) -> GDynamics:
    _check(s, h.op)
    bracket = commutator(mult(s), h.op)
    w_op = bracket.scaled(h.params.inv_i_hbar)
    return GDynamics(w_op=w_op, geomenergy=bracket)


def gen_heisenberg_rhs(s: CoefFn, h: Hamiltonian, f: DiffOp) -> DiffOp:
    """Plain rate of change: ``(1/i hbar)([f, H] - H [s, f])``."""
    _check(s, h.op, f)
    raw = commutator(f, h.op) - compose(h.op, commutator(mult(s), f))
    return raw.scaled(h.params.inv_i_hbar)


def covariant_rhs(s: CoefFn, h: Hamiltonian, f: DiffOp) -> DiffOp:
    """Covariant rate of change: ``(1/i hbar)`` times the extended bracket."""
    _check(s, h.op, f)
    return qcpb(s, f, h.op).total.scaled(h.params.inv_i_hbar)


def geomentum(s: CoefFn, axis: int = 0, params: Params = Params()) -> DiffOp:
    """Structure-corrected momentum ``-i hbar (d_axis + (d_axis s))``."""
    _check(s)
    if not 0 <= axis < s.dim:
        raise IndexError(f"axis {axis} out of range for dim {s.dim}")
    scale = ComplexRational(0, -params.hbar)
    return (partial_d(s.dim, axis) + mult(s.diff(axis))).scaled(scale)


@dataclass(frozen=True)
class CCRTable:
    """All pairwise brackets of positions and structure-corrected momenta.

    ``theta[i, j] = delta_ij + x_i d_j s`` is the commutation coefficient:
    ``[x_i, p_j] = i hbar theta_ij``.  Position-position brackets vanish;
    the momentum-momentum bracket equals
    ``hbar^2 ((d_j s) d_i - (d_i s) d_j)``, which vanishes identically only
    in one dimension.
    """

    params: Params
    structure_fn: CoefFn
    theta: dict = field(default_factory=dict)
    position_momentum: dict = field(default_factory=dict)
    position_position: dict = field(default_factory=dict)
    momentum_momentum: dict = field(default_factory=dict)

    def expected_position_momentum(self, i: int, j: int) -> DiffOp:
        """``i hbar theta_ij`` as a multiplication operator."""
        return mult(self.theta[i, j]).scaled(ComplexRational(0, self.params.hbar))

    def expected_momentum_momentum(self, i: int, j: int) -> DiffOp:
        """``hbar^2 ((d_j s) d_i - (d_i s) d_j)``; zero when i == j."""
        s = self.structure_fn
        h2 = self.params.hbar**2
        term = compose(mult(s.diff(j)), partial_d(s.dim, i)) - compose(
            mult(s.diff(i)), partial_d(s.dim, j)
        )
        return term.scaled(h2)


def geometric_ccr_suite(s: CoefFn, params: Params = Params()) -> CCRTable:
    """Compute every ``[x_i, p_j]``, ``[x_i, x_j]``, ``[p_i, p_j]`` bracket."""
    dim = s.dim
    momenta = [geomentum(s, axis, params) for axis in range(dim)]
    positions = [position(dim, axis) for axis in range(dim)]
    table = CCRTable(params=params, structure_fn=s)
    for i in range(dim):
        for j in range(dim):
            delta = one(dim) if i == j else zero(dim)
            table.theta[i, j] = delta + coord(dim, i) * s.diff(j)
            table.position_momentum[i, j] = qcpb(s, positions[i], momenta[j])
            table.position_position[i, j] = qcpb(s, positions[i], positions[j])
            table.momentum_momentum[i, j] = qcpb(s, momenta[i], momenta[j])
    return table


def geomutator_ccr_part(s: CoefFn, i: int, j: int, params: Params = Params()) -> DiffOp:
    """``(1/i hbar) G(s, x_i, p_j)``, which equals ``theta_ij - delta_ij``."""
    raw = geomutator(s, position(s.dim, i), geomentum(s, j, params))
    return raw.scaled(params.inv_i_hbar)
