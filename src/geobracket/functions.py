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
keys, and insertion order kept.  Every sum of terms goes through
:func:`accumulate`, so a key keeps its first position unless its sum
cancels.  Insertion order is not the text order: :mod:`geobracket.printing`
sorts the terms when it renders them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import DimensionMismatch
from .scalars import I, ONE, ZERO, ComplexRational


def accumulate(acc: dict, items) -> dict:
    """Add ``(key, value)`` pairs into ``acc``, dropping keys that sum to zero."""
    for key, value in items:
        total = acc.get(key)
        total = value if total is None else total + value
        if total:
            acc[key] = total
        else:
            acc.pop(key, None)
    return acc


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
        return self + (-other)

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
        products = (
            ((tuple(map(add, nu1, nu2)), tuple(map(add, k1, k2))), c1 * c2)
            for (nu1, k1), c1 in self.terms.items()
            for (nu2, k2), c2 in other.terms.items()
        )
        return CoefFn._wrap(self.dim, accumulate({}, products))

    def scaled(self, value) -> "CoefFn":
        value = ComplexRational.coerce(value)
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

    @property
    def is_real(self) -> bool:
        """True when the function equals its complex conjugate."""
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


def const(dim: int, value) -> CoefFn:
    value = ComplexRational.coerce(value)
    key = ((0,) * dim, (ZERO,) * dim)
    return CoefFn(dim, {key: value} if value else {})


def coord(dim: int, axis: int) -> CoefFn:
    """The coordinate function ``x_axis`` (0-based axis)."""
    if not 0 <= axis < dim:
        raise IndexError(f"axis {axis} out of range for dim {dim}")
    nu = tuple(1 if j == axis else 0 for j in range(dim))
    return CoefFn(dim, {(nu, (ZERO,) * dim): ONE})


def monomial(dim: int, exponents, coeff=1) -> CoefFn:
    exponents = tuple(exponents)
    if len(exponents) != dim:
        raise ValueError("exponent vector length does not match dim")
    return CoefFn(dim, {(exponents, (ZERO,) * dim): ComplexRational.coerce(coeff)})


def exponential(dim: int, freqs) -> CoefFn:
    """``exp(sum_j freqs[j] * x_j)`` with complex-rational frequencies."""
    freqs = tuple(ComplexRational.coerce(f) for f in freqs)
    if len(freqs) != dim:
        raise ValueError("frequency vector length does not match dim")
    return CoefFn(dim, {((0,) * dim, freqs): ONE})


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
