"""Normal-ordered linear differential operators.

A :class:`DiffOp` is ``sum_alpha c_alpha(x) d^alpha`` with coefficient
functions always written to the left of derivatives.  Composition applies
the generalized Leibniz rule

    d^alpha (c .) = sum_{beta <= alpha} binom(alpha, beta) (d^beta c) d^{alpha-beta}

so products land back in normal form with a unique canonical representation.
Operator order grows additively under composition, which bounds (and
explains) term blow-up in nested brackets.

A ``DiffOp`` is a :class:`~geobracket.functions.TermMap` from multi-indices
``alpha`` to coefficient functions; construction, addition, the zero test
and the accumulate-and-prune loop of :func:`compose` are those of
:mod:`geobracket.functions`.  The text form (``str``) and its term order
are :mod:`geobracket.printing`'s.
"""

from __future__ import annotations

import itertools
import math

from .errors import DimensionMismatch
from .functions import CoefFn, TermMap, accumulate, const, coord, one, zero
from .scalars import ComplexRational


def _multi_binom(alpha, beta) -> int:
    return math.prod(math.comb(a, b) for a, b in zip(alpha, beta))


def _derivative_caps(fn: CoefFn):
    """Per axis ``j``, the order past which ``d_j`` annihilates ``fn``: the
    largest ``nu_j``, or infinity when some term has ``kappa_j != 0``."""
    caps = [0] * fn.dim
    for nu, kappa in fn.terms:
        for j, k in enumerate(kappa):
            caps[j] = math.inf if k else max(caps[j], nu[j])
    return caps


class DiffOp(TermMap):
    """Canonical-form differential operator; keys are derivative multi-indices."""

    _noun = "operators"

    def _check_term(self, alpha, coeff):
        alpha = tuple(alpha)
        if len(alpha) != self.dim:
            raise ValueError("derivative multi-index length does not match dim")
        if any(a < 0 for a in alpha):
            raise ValueError("derivative orders must be non-negative")
        if coeff.dim != self.dim:
            raise DimensionMismatch(
                "coefficient dimension does not match operator dimension"
            )
        return alpha

    # -- linear structure ---------------------------------------------------

    def scaled(self, value) -> "DiffOp":
        value = ComplexRational.coerce(value)
        if not value:
            return DiffOp._wrap(self.dim, {})
        return DiffOp._wrap(self.dim, {a: c.scaled(value) for a, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return compose(self, other)

    # -- action -------------------------------------------------------------

    def __call__(self, psi: CoefFn) -> CoefFn:
        """Apply to a coefficient function: ``sum_alpha c_alpha * d^alpha psi``."""
        if psi.dim != self.dim:
            raise DimensionMismatch(
                f"operator over {self.dim} coordinates applied to function over {psi.dim}"
            )
        acc: dict = {}
        deriv_of = _derivatives(psi)
        for alpha, coeff in self.terms.items():
            accumulate(acc, (coeff * deriv_of(alpha)).terms.items())
        return CoefFn._wrap(self.dim, acc)

    # -- views ---------------------------------------------------------------

    def coefficient(self, alpha) -> CoefFn:
        return self.terms.get(tuple(alpha), zero(self.dim))

    def __str__(self) -> str:
        from .printing import format_diff_op

        return format_diff_op(self)

    def __repr__(self) -> str:
        return f"DiffOp({self.dim}, {self!s})"


# -- constructors -------------------------------------------------------------


def identity(dim: int) -> DiffOp:
    return DiffOp(dim, {(0,) * dim: one(dim)})


def zero_op(dim: int) -> DiffOp:
    return DiffOp(dim, {})


def mult(f: CoefFn) -> DiffOp:
    """The multiplication operator ``psi -> f * psi``."""
    return DiffOp(f.dim, {(0,) * f.dim: f})


def scalar_op(dim: int, value) -> DiffOp:
    return mult(const(dim, value))


def partial_d(dim: int, axis: int = 0, order: int = 1) -> DiffOp:
    if not 0 <= axis < dim:
        raise IndexError(f"axis {axis} out of range for dim {dim}")
    alpha = tuple(order if j == axis else 0 for j in range(dim))
    return DiffOp(dim, {alpha: one(dim)})


def position(dim: int, axis: int = 0) -> DiffOp:
    """Multiplication by the coordinate ``x_axis``."""
    return mult(coord(dim, axis))


def momentum(dim: int, axis: int = 0, hbar=1) -> DiffOp:
    """The flat momentum operator ``-i hbar d_axis``."""
    return partial_d(dim, axis).scaled(ComplexRational(0, -hbar))


# -- algebra -------------------------------------------------------------------


def compose(a: DiffOp, b: DiffOp) -> DiffOp:
    """Operator product ``a b`` in normal form."""
    a._check_dim(b)
    acc: dict = {}
    for beta, cb in b.terms.items():
        accumulate(acc, _leibniz_terms(a, beta, cb))
    return DiffOp._wrap(a.dim, acc)


def _derivatives(fn: CoefFn):
    """Memoised ``gamma -> d^gamma fn``; each is one ``diff`` of a cached parent."""
    derivs = {(0,) * fn.dim: fn}

    def deriv_of(gamma):
        cached = derivs.get(gamma)
        if cached is None:
            axis = next(i for i, g in enumerate(gamma) if g)
            parent = tuple(g - 1 if i == axis else g for i, g in enumerate(gamma))
            cached = deriv_of(parent).diff(axis)
            derivs[gamma] = cached
        return cached

    return deriv_of


def _leibniz_terms(a: DiffOp, beta, cb: CoefFn):
    """Terms of ``a (cb d^beta)`` by the Leibniz rule: for each ``alpha`` of
    ``a`` and ``gamma <= alpha``, ``binom(alpha, gamma) c_alpha (d^gamma cb)``
    at ``d^(alpha - gamma + beta)``.  ``gamma`` stops at the derivative caps
    of ``cb``, so a high power ``d^alpha`` costs what ``cb`` needs."""
    deriv_of = _derivatives(cb)
    caps = _derivative_caps(cb)
    for alpha, ca in a.terms.items():
        ranges = [range(min(al, cap) + 1) for al, cap in zip(alpha, caps)]
        for gamma in itertools.product(*ranges):
            deriv = deriv_of(gamma)
            if deriv.is_zero:
                continue
            weight = _multi_binom(alpha, gamma)
            key = tuple(al - g + be for al, g, be in zip(alpha, gamma, beta))
            piece = ca * deriv
            if weight != 1:
                piece = piece.scaled(weight)
            yield key, piece


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    """The plain operator commutator ``a b - b a``."""
    return compose(a, b) - compose(b, a)
