"""Exact complex scalars over the rationals.

Every symbolic coefficient in the package is a :class:`ComplexRational`, so
identities can be checked by structural equality instead of floating-point
closeness.

A value is stored as three ints ``(a, b, d)`` meaning ``(a + b i) / d``: a
Gaussian-integer numerator over one positive denominator, kept in lowest
terms (``gcd(a, b, d) == 1``), the layout of FLINT's ``fmpq_poly`` applied
to a single scalar.  Arithmetic works on the ints and normalizes once per
operation, so equality and hashing compare the triple.  The real and
imaginary parts are available as :class:`~fractions.Fraction` views for
printing, parsing and ordering.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions, rational strings like ``"3/2"`` to Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected a rational value, got {type(value).__name__}")


class ComplexRational:
    """A complex number with exact rational real and imaginary parts.

    Immutable; the triple ``(a, b, d)`` is canonical, so equality is
    structural.  Arithmetic takes another ``ComplexRational`` or an ``int``;
    a ``Fraction`` enters through ``ComplexRational(re, im)`` or ``coerce``.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re = as_fraction(re)
        im = as_fraction(im)
        d_re, d_im = re.denominator, im.denominator
        # Both parts are reduced, so scaling to the lcm of their
        # denominators leaves gcd(a, b, d) == 1.
        d = d_re * d_im // gcd(d_re, d_im)
        self._a = re.numerator * (d // d_re)
        self._b = im.numerator * (d // d_im)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __eq__(self, other):
        if other.__class__ is not ComplexRational:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    @staticmethod
    def coerce(value) -> "ComplexRational":
        if isinstance(value, ComplexRational):
            return value
        return ComplexRational(as_fraction(value))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        a1, b1, d1 = self._a, self._b, self._d
        a2, b2, d2 = other._a, other._b, other._d
        if not (a2 or b2):
            return self
        if not (a1 or b1):
            return other
        if d1 == d2:
            return _normalized(a1 + a2, b1 + b2, d1)
        return _normalized(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        a1, b1, d1 = self._a, self._b, self._d
        a2, b2, d2 = other._a, other._b, other._d
        if d1 == d2:
            return _normalized(a1 - a2, b1 - b2, d1)
        return _normalized(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)

    def __rsub__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return _normalized(
            a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        norm = a2 * a2 + b2 * b2
        if norm == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i) / (a2^2 + b2^2)
        d2 = other._d
        return _normalized(
            (a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self._d * norm
        )

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def conjugate(self) -> "ComplexRational":
        return _make(self._a, -self._b, self._d)

    # -- predicates and views ---------------------------------------------

    @property
    def is_real(self) -> bool:
        return not self._b

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def sort_key(self):
        return (self.re, self.im)

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"ComplexRational({self.re!r}, {self.im!r})"


_new = object.__new__


def _make(a: int, b: int, d: int) -> ComplexRational:
    """Internal constructor for a triple already in lowest terms."""
    out = _new(ComplexRational)
    out._a, out._b, out._d = a, b, d
    return out


def _normalized(a: int, b: int, d: int) -> ComplexRational:
    """Internal constructor for ``(a + b i) / d`` with ``d > 0``."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _make(a, b, d)


ZERO = ComplexRational()
ONE = ComplexRational(1)
I = ComplexRational(0, 1)


def _coerce_or_none(value):
    if value.__class__ is ComplexRational:
        return value
    if value.__class__ is int:
        return _make(value, 0, 1)
    return None


def _imag_str(im: Fraction) -> str:
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}*i"


def format_scalar(z: ComplexRational) -> str:
    """Render in the DSL grammar, e.g. ``3/2``, ``-i``, ``1/2 + 3*i``."""
    if z.is_real:
        return str(z.re)
    im = z.im
    if not z._a:
        return _imag_str(im)
    sign = "+" if im > 0 else "-"
    return f"{z.re} {sign} {_imag_str(abs(im))}"


def scalar_needs_parens(z: ComplexRational) -> bool:
    """True when the rendering is a sum, so factor positions need parens."""
    return bool(z._a and z._b)
