"""Coefficient functions: exact finite sums of ``x^nu * exp(kappa . x)``.

A :class:`CoefFn` over ``dim`` coordinates stores a map from term keys
``(nu, kappa)`` to :class:`ComplexRational` coefficients, where ``nu`` is a
monomial multi-index and ``kappa`` a vector of complex-rational frequencies
meaning ``exp(sum_j kappa_j x_j)``.  The family is closed under addition,
multiplication, and partial differentiation, and it contains every function
the rest of the package needs: polynomials, plane waves ``exp(i k x)``, and
the real combinations ``sin``/``cos`` built from them.

:class:`TermMap` and :func:`accumulate` are the one place that knows the
canonical form shared by coefficient functions and by differential
operators (:mod:`geobracket.operators`, whose terms map a derivative
multi-index to a :class:`CoefFn`): no zero coefficients, unique validated
keys, and insertion order kept.  Every sum and difference of term maps goes
through :func:`accumulate`, so a key keeps its first position unless its
sum cancels.  Insertion order is not the text order:
:mod:`geobracket.printing` sorts the terms when it renders them.

Every product of coefficient functions goes through one kernel,
:func:`multiply_into`.  It adds ``weight * f * g`` into a map from term key
to a raw Gaussian-integer triple ``(x, y, d)`` meaning ``(x + y i) / d``,
combines unequal denominators by their lcm and drops a key whose sum
cancels, as :func:`accumulate` does; :func:`finish` then normalizes each
sum once into a :class:`ComplexRational`.  That is the discipline of
FLINT's ``fmpq_poly``: integer numerators, normalized once per operation.
``CoefFn * CoefFn`` is one kernel call and one finish, and
:func:`geobracket.operators.compose` runs its whole Leibniz sum through the
kernel and finishes once per output coefficient.  Each ``CoefFn`` keeps a
memo of the derivatives ``d^gamma f`` asked of it
(:meth:`CoefFn.derivative`), so a structure function reused across many
products is differentiated once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add

from .errors import DimensionMismatch
from .scalars import I, ONE, ZERO, ComplexRational, _normalized


def accumulate(acc: dict, items, negate: bool = False) -> dict:
    """Add ``(key, value)`` pairs into ``acc`` (subtract them when ``negate``),
    dropping keys whose total is zero."""
    for key, value in items:
        total = acc.get(key)
        if total is None:
            total = -value if negate else value
        else:
            total = total - value if negate else total + value
        if total:
            acc[key] = total
        else:
            acc.pop(key, None)
    return acc


def multiply_into(acc: dict, f: "CoefFn", g: "CoefFn", weight: int, key_sums: dict) -> dict:
    """Add ``weight * f * g`` into ``acc``, a map from term key to a raw
    nonzero triple ``(x, y, d)`` meaning ``(x + y i) / d`` with ``d > 0``,
    not reduced; a key whose sum cancels is dropped, as in
    :func:`accumulate`.  ``key_sums`` memoizes the key of each pair of term
    keys over one run of calls; :func:`finish` turns ``acc`` into a
    ``CoefFn``."""
    g_terms = g.terms.items()
    for k1, (a1, b1, d1) in f.terms.items():
        if weight != 1:
            a1, b1 = a1 * weight, b1 * weight
        for k2, (a2, b2, d2) in g_terms:
            pair = (k1, k2)
            key = key_sums.get(pair)
            if key is None:
                key = key_sums[pair] = (
                    tuple(map(add, k1[0], k2[0])),
                    tuple(map(add, k1[1], k2[1])),
                )
            x, y, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2
            total = acc.get(key)
            if total is None:
                acc[key] = (x, y, d)
                continue
            tx, ty, td = total
            if td == d:
                x, y = tx + x, ty + y
            else:
                m = math.gcd(td, d)
                u, v = d // m, td // m
                x, y, d = tx * u + x * v, ty * u + y * v, td * u
            if x or y:
                acc[key] = (x, y, d)
            else:
                del acc[key]
    return acc


def finish(dim: int, acc: dict) -> "CoefFn":
    """The ``CoefFn`` of a :func:`multiply_into` map, each sum normalized once."""
    return CoefFn._wrap(dim, {key: _normalized(*triple) for key, triple in acc.items()})


@dataclass(frozen=True)
class TermMap:
    """Canonical sparse map from validated keys to nonzero coefficients.

    Invariants: no stored zero coefficients, unique keys, each checked by
    the subclass's ``_check_term``.  Values are immutable by convention;
    every operation returns a new instance.  ``+`` and ``-`` combine a term
    map only with one of its own class; a scalar enters through ``scaled``.
    """

    dim: int
    terms: dict

    _noun = "term maps"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        clean = {}
        for key, coeff in self.terms.items():
            key = self._check_term(key, coeff)
            if coeff:
                clean[key] = coeff
        object.__setattr__(self, "terms", clean)

    def _check_term(self, key, coeff):
        """Validate one term and return its canonical key."""
        raise NotImplementedError

    @classmethod
    def _wrap(cls, dim: int, clean_terms: dict):
        """Internal constructor for term maps already in canonical form."""
        out = object.__new__(cls)
        object.__setattr__(out, "dim", dim)
        object.__setattr__(out, "terms", clean_terms)
        return out

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_dim(other)
        return self._wrap(self.dim, accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_dim(other)
        return self._wrap(
            self.dim, accumulate(dict(self.terms), other.terms.items(), negate=True)
        )

    def __neg__(self):
        return self._wrap(self.dim, {k: -c for k, c in self.terms.items()})

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch(
                f"{self._noun} over {self.dim} and {other.dim} coordinates"
            )

    # -- zero test -------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms


class CoefFn(TermMap):
    """Canonical-form coefficient function; keys are ``(nu, kappa)``."""

    _noun = "coefficient functions"

    def _check_term(self, key, coeff):
        nu, kappa = key
        if len(nu) != self.dim or len(kappa) != self.dim:
            raise ValueError("term key length does not match dim")
        if any(e < 0 for e in nu):
            raise ValueError("monomial exponents must be non-negative")
        return (tuple(nu), tuple(kappa))

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, CoefFn):
            return NotImplemented
        self._check_dim(other)
        return finish(self.dim, multiply_into({}, self, other, 1, {}))

    def scaled(self, value) -> "CoefFn":
        value = ComplexRational(value)
        if not value:
            return CoefFn._wrap(self.dim, {})
        return CoefFn._wrap(self.dim, {k: value * c for k, c in self.terms.items()})

    def diff(self, axis: int) -> "CoefFn":
        """Exact partial derivative along ``axis`` (0-based).

        Per term: d_j (x^nu e^{k.x}) = nu_j x^{nu-e_j} e^{k.x}
                                       + k_j x^nu e^{k.x}.
        """
        if not 0 <= axis < self.dim:
            raise IndexError(f"axis {axis} out of range for dim {self.dim}")
        return CoefFn._wrap(self.dim, accumulate({}, self._diff_terms(axis)))

    @cached_property
    def _derivatives(self) -> dict:
        """``d^gamma self`` by multi-index ``gamma``, filled on demand by
        ``derivative``."""
        return {}

    def derivative(self, gamma) -> "CoefFn":
        """``d^gamma self`` for a multi-index tuple ``gamma``; each is one
        ``diff`` of a lower derivative and is computed once per instance."""
        if not any(gamma):
            return self
        derivs = self._derivatives
        cached = derivs.get(gamma)
        if cached is None:
            axis = next(i for i, g in enumerate(gamma) if g)
            lower = gamma[:axis] + (gamma[axis] - 1,) + gamma[axis + 1:]
            cached = derivs[gamma] = self.derivative(lower).diff(axis)
        return cached

    @cached_property
    def derivative_caps(self) -> tuple:
        """Per axis ``j``, the order past which ``d_j`` annihilates ``self``:
        the largest ``nu_j``, or infinity when some term has ``kappa_j != 0``."""
        caps = [0] * self.dim
        for nu, kappa in self.terms:
            for j, k in enumerate(kappa):
                caps[j] = math.inf if k else max(caps[j], nu[j])
        return tuple(caps)

    def _diff_terms(self, axis: int):
        for (nu, kappa), coeff in self.terms.items():
            if nu[axis] > 0:
                lowered = tuple(
                    e - 1 if j == axis else e for j, e in enumerate(nu)
                )
                yield (lowered, kappa), coeff * nu[axis]
            freq = kappa[axis]
            if freq:
                yield (nu, kappa), coeff * freq

    def conjugate(self) -> "CoefFn":
        conjugates = (
            ((nu, tuple(k.conjugate() for k in kappa)), coeff.conjugate())
            for (nu, kappa), coeff in self.terms.items()
        )
        return CoefFn._wrap(self.dim, accumulate({}, conjugates))

    # -- predicates and views ---------------------------------------------

    @cached_property
    def is_real(self) -> bool:
        """True when the function equals its complex conjugate; computed
        once per instance."""
        return self == self.conjugate()

    @property
    def is_polynomial(self) -> bool:
        return all(all(not k for k in kappa) for _, kappa in self.terms)

    def __str__(self) -> str:
        from .printing import format_coef_fn

        return format_coef_fn(self)

    def __repr__(self) -> str:
        return f"CoefFn({self.dim}, {self!s})"


# -- constructors -----------------------------------------------------------


def zero(dim: int) -> CoefFn:
    return CoefFn(dim, {})


def one(dim: int) -> CoefFn:
    return const(dim, 1)


def _leaf(dim: int, nu: tuple, kappa: tuple, value: ComplexRational) -> CoefFn:
    """``value * x^nu * exp(kappa . x)`` from a key its caller built in
    canonical form (tuples of length ``dim``, ``nu`` non-negative)."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return CoefFn._wrap(dim, {(nu, kappa): value} if value else {})


def const(dim: int, value) -> CoefFn:
    return _leaf(dim, (0,) * dim, (ZERO,) * dim, ComplexRational(value))


def coord(dim: int, axis: int) -> CoefFn:
    """The coordinate function ``x_axis`` (0-based axis)."""
    if not 0 <= axis < dim:
        raise IndexError(f"axis {axis} out of range for dim {dim}")
    nu = (0,) * axis + (1,) + (0,) * (dim - axis - 1)
    return _leaf(dim, nu, (ZERO,) * dim, ONE)


def monomial(dim: int, exponents, coeff=1) -> CoefFn:
    exponents = tuple(exponents)
    if len(exponents) != dim:
        raise ValueError("exponent vector length does not match dim")
    return CoefFn(dim, {(exponents, (ZERO,) * dim): ComplexRational(coeff)})


def exponential(dim: int, freqs) -> CoefFn:
    """``exp(sum_j freqs[j] * x_j)`` with complex-rational frequencies."""
    freqs = tuple(ComplexRational(f) for f in freqs)
    if len(freqs) != dim:
        raise ValueError("frequency vector length does not match dim")
    return _leaf(dim, (0,) * dim, freqs, ONE)


def _unit_freqs(dim: int, axis: int, value: ComplexRational):
    return tuple(value if j == axis else ZERO for j in range(dim))


def sin_of(dim: int, axis: int = 0) -> CoefFn:
    """Exact ``sin(x_axis) = (e^{i x} - e^{-i x}) / 2i``."""
    half_mi = ComplexRational(0, Fraction(-1, 2))  # 1/(2i)
    plus = exponential(dim, _unit_freqs(dim, axis, I))
    minus = exponential(dim, _unit_freqs(dim, axis, -I))
    return (plus - minus).scaled(half_mi)


def cos_of(dim: int, axis: int = 0) -> CoefFn:
    """Exact ``cos(x_axis) = (e^{i x} + e^{-i x}) / 2``."""
    half = Fraction(1, 2)
    plus = exponential(dim, _unit_freqs(dim, axis, I))
    minus = exponential(dim, _unit_freqs(dim, axis, -I))
    return (plus + minus).scaled(half)
