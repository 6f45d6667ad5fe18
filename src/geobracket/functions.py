"""Coefficient functions: exact finite sums of ``x^nu * exp(kappa . x)``.

A :class:`CoefFn` over ``dim`` coordinates stores a map from term keys
``(nu, kappa)`` to :class:`ComplexRational` coefficients, where ``nu`` is a
monomial multi-index and ``kappa`` a vector of complex-rational frequencies
meaning ``exp(sum_j kappa_j x_j)``.  The family is closed under addition,
multiplication, and partial differentiation, and it contains every function
the rest of the package needs: polynomials, plane waves ``exp(i k x)``, and
the real combinations ``sin``/``cos`` built from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch
from .scalars import ComplexRational

TermKey = tuple[tuple[int, ...], tuple[ComplexRational, ...]]

_CR_ZERO = ComplexRational()
_CR_ONE = ComplexRational(Fraction(1))


def _coerce_scalar(value) -> ComplexRational:
    return ComplexRational.coerce(value)


@dataclass(frozen=True)
class CoefFn:
    """Canonical-form coefficient function.

    Invariants: no stored zero coefficients, unique term keys, all key
    vectors of length ``dim``.  Values are immutable by convention; every
    operation returns a new instance.
    """

    dim: int
    terms: dict

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        clean = {}
        for (nu, kappa), coeff in self.terms.items():
            if len(nu) != self.dim or len(kappa) != self.dim:
                raise ValueError("term key length does not match dim")
            if any(e < 0 for e in nu):
                raise ValueError("monomial exponents must be non-negative")
            if coeff:
                clean[(tuple(nu), tuple(kappa))] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _wrap(cls, dim: int, clean_terms: dict) -> "CoefFn":
        """Internal constructor for term maps already in canonical form."""
        out = object.__new__(cls)
        object.__setattr__(out, "dim", dim)
        object.__setattr__(out, "terms", clean_terms)
        return out

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check_dim(other)
        acc = dict(self.terms)
        for key, coeff in other.terms.items():
            total = acc.get(key, _CR_ZERO) + coeff
            if total:
                acc[key] = total
            else:
                acc.pop(key, None)
        return CoefFn._wrap(self.dim, acc)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return CoefFn._wrap(self.dim, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            return self.scaled(other)
        if not isinstance(other, CoefFn):
            return NotImplemented
        self._check_dim(other)
        acc: dict = {}
        for (nu1, k1), c1 in self.terms.items():
            for (nu2, k2), c2 in other.terms.items():
                nu = tuple(a + b for a, b in zip(nu1, nu2))
                kappa = tuple(a + b for a, b in zip(k1, k2))
                key = (nu, kappa)
                total = acc.get(key, _CR_ZERO) + c1 * c2
                if total:
                    acc[key] = total
                else:
                    acc.pop(key, None)
        return CoefFn._wrap(self.dim, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, ComplexRational)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, value) -> "CoefFn":
        value = _coerce_scalar(value)
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
        acc: dict = {}

        def put(key, coeff):
            total = acc.get(key, _CR_ZERO) + coeff
            if total:
                acc[key] = total
            else:
                acc.pop(key, None)

        for (nu, kappa), coeff in self.terms.items():
            if nu[axis] > 0:
                lowered = tuple(
                    e - 1 if j == axis else e for j, e in enumerate(nu)
                )
                put((lowered, kappa), coeff * nu[axis])
            freq = kappa[axis]
            if freq:
                put((nu, kappa), coeff * freq)
        return CoefFn._wrap(self.dim, acc)

    def diff_multi(self, orders) -> "CoefFn":
        """Iterated derivative, ``orders[j]`` times along each axis."""
        out = self
        for axis, count in enumerate(orders):
            for _ in range(count):
                out = out.diff(axis)
        return out

    def conjugate(self) -> "CoefFn":
        acc: dict = {}
        for (nu, kappa), coeff in self.terms.items():
            key = (nu, tuple(k.conjugate() for k in kappa))
            total = acc.get(key, _CR_ZERO) + coeff.conjugate()
            if total:
                acc[key] = total
            else:
                acc.pop(key, None)
        return CoefFn._wrap(self.dim, acc)

    # -- predicates and views ---------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_real(self) -> bool:
        """True when the function equals its complex conjugate."""
        return self == self.conjugate()

    @property
    def is_constant(self) -> bool:
        return all(
            all(e == 0 for e in nu) and all(not k for k in kappa)
            for nu, kappa in self.terms
        )

    @property
    def is_polynomial(self) -> bool:
        return all(all(not k for k in kappa) for _, kappa in self.terms)

    def constant_value(self) -> ComplexRational:
        if not self.is_constant:
            raise ValueError("function is not constant")
        if not self.terms:
            return _CR_ZERO
        return next(iter(self.terms.values()))

    @property
    def degree(self) -> int:
        """Maximum total monomial degree (0 for the zero function)."""
        return max((sum(nu) for nu, _ in self.terms), default=0)

    def sorted_terms(self):
        """Terms in a deterministic canonical order."""
        def key(item):
            (nu, kappa), _ = item
            return (nu, tuple(k.sort_key() for k in kappa))

        return sorted(self.terms.items(), key=key)

    def _check_dim(self, other: "CoefFn"):
        if self.dim != other.dim:
            raise DimensionMismatch(
                f"coefficient functions over {self.dim} and {other.dim} coordinates"
            )

    def _coerce(self, other):
        if isinstance(other, CoefFn):
            return other
        if isinstance(other, (int, Fraction, ComplexRational)):
            return const(self.dim, other)
        return None

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
    value = _coerce_scalar(value)
    key = ((0,) * dim, (_CR_ZERO,) * dim)
    return CoefFn(dim, {key: value} if value else {})


def coord(dim: int, axis: int) -> CoefFn:
    """The coordinate function ``x_axis`` (0-based axis)."""
    if not 0 <= axis < dim:
        raise IndexError(f"axis {axis} out of range for dim {dim}")
    nu = tuple(1 if j == axis else 0 for j in range(dim))
    return CoefFn(dim, {(nu, (_CR_ZERO,) * dim): _CR_ONE})


def monomial(dim: int, exponents, coeff=1) -> CoefFn:
    exponents = tuple(exponents)
    if len(exponents) != dim:
        raise ValueError("exponent vector length does not match dim")
    return CoefFn(dim, {(exponents, (_CR_ZERO,) * dim): _coerce_scalar(coeff)})


def exponential(dim: int, freqs) -> CoefFn:
    """``exp(sum_j freqs[j] * x_j)`` with complex-rational frequencies."""
    freqs = tuple(_coerce_scalar(f) for f in freqs)
    if len(freqs) != dim:
        raise ValueError("frequency vector length does not match dim")
    return CoefFn(dim, {((0,) * dim, freqs): _CR_ONE})


def _unit_freqs(dim: int, axis: int, value: ComplexRational):
    return tuple(value if j == axis else _CR_ZERO for j in range(dim))


def sin_of(dim: int, axis: int = 0) -> CoefFn:
    """Exact ``sin(x_axis) = (e^{i x} - e^{-i x}) / 2i``."""
    i = ComplexRational(0, 1)
    half_mi = ComplexRational(0, Fraction(-1, 2))  # 1/(2i)
    plus = exponential(dim, _unit_freqs(dim, axis, i))
    minus = exponential(dim, _unit_freqs(dim, axis, -i))
    return (plus - minus).scaled(half_mi)


def cos_of(dim: int, axis: int = 0) -> CoefFn:
    """Exact ``cos(x_axis) = (e^{i x} + e^{-i x}) / 2``."""
    i = ComplexRational(0, 1)
    half = Fraction(1, 2)
    plus = exponential(dim, _unit_freqs(dim, axis, i))
    minus = exponential(dim, _unit_freqs(dim, axis, -i))
    return (plus + minus).scaled(half)
