"""Exact complex scalars over the rationals.

Every symbolic coefficient in the package is a :class:`ComplexRational`, so
identities can be checked by structural equality instead of floating-point
closeness.

A value is the tuple ``(a, b, d)`` meaning ``(a + b i) / d``: a
Gaussian-integer numerator over one positive denominator, kept in lowest
terms (``gcd(a, b, d) == 1``), the layout of FLINT's ``fmpq_poly`` applied
to a single scalar.  Arithmetic works on the ints and normalizes once per
operation, so tuple equality and hashing are structural.  The real and
imaginary parts are available as :class:`~fractions.Fraction` views.  The
text form (``str``) is rendered from the integer triple by
:mod:`geobracket.printing`.
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


class ComplexRational(tuple):
    """A complex number with exact rational real and imaginary parts.

    The value is the canonical triple ``(a, b, d)`` itself, so tuple
    equality and hashing are structural.  Values are unordered.  Arithmetic takes another ``ComplexRational`` or an
    ``int``, which may stand on either side except the left of ``+``; a
    ``Fraction`` enters through the constructor, the one way to make a
    value: ``ComplexRational(re, im)`` takes rational parts, and
    ``ComplexRational(z)`` returns a ``ComplexRational`` ``z`` unchanged.
    """

    __slots__ = ()

    def __new__(cls, re=0, im=0):
        if type(re) is int and type(im) is int:
            return _new(cls, (re, im, 1))
        if re.__class__ is ComplexRational and not im:
            return re
        re = as_fraction(re)
        im = as_fraction(im)
        d_re, d_im = re.denominator, im.denominator
        # Both parts are reduced, so scaling to the lcm of their
        # denominators leaves gcd(a, b, d) == 1.
        d = d_re * d_im // gcd(d_re, d_im)
        return _new(cls, (re.numerator * (d // d_re), im.numerator * (d // d_im), d))

    def __getnewargs__(self):
        # tuple's default would hand ``__new__`` the whole triple as ``re``.
        return (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return Fraction(self[0], self[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self[1], self[2])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        a1, b1, d1 = self
        a2, b2, d2 = other
        if not (a2 or b2):
            return self
        if not (a1 or b1):
            return other
        if d1 == d2:
            return _normalized(a1 + a2, b1 + b2, d1)
        return _normalized(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)

    def __sub__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        a1, b1, d1 = self
        a2, b2, d2 = other
        if not (a2 or b2):
            return self
        if not (a1 or b1):
            return -other
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
        a1, b1, d1 = self
        a2, b2, d2 = other
        return _normalized(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    # Without it ``2 * z`` falls through to tuple repetition and returns a
    # six-tuple, not an error.
    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_or_none(other)
        if other is None:
            return NotImplemented
        a1, b1, d1 = self
        a2, b2, d2 = other
        norm = a2 * a2 + b2 * b2
        if norm == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        # (a1 + b1 i)/d1 * d2 (a2 - b2 i) / (a2^2 + b2^2)
        return _normalized((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, d1 * norm)

    def __neg__(self):
        return _new(ComplexRational, (-self[0], -self[1], self[2]))

    def conjugate(self) -> "ComplexRational":
        return _new(ComplexRational, (self[0], -self[1], self[2]))

    # -- predicates and views ---------------------------------------------

    def __bool__(self) -> bool:
        return bool(self[0] or self[1])

    def _unordered(self, other):
        raise TypeError("ComplexRational values are unordered; compare their re and im parts")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self) -> str:
        from .printing import format_scalar

        return format_scalar(self)

    def __repr__(self) -> str:
        return f"ComplexRational({self.re!r}, {self.im!r})"


_new = tuple.__new__


def _normalized(a: int, b: int, d: int) -> ComplexRational:
    """Internal constructor for ``(a + b i) / d`` with ``d > 0``."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _new(ComplexRational, (a, b, d))


ZERO = ComplexRational()
ONE = ComplexRational(1)
I = ComplexRational(0, 1)


def _coerce_or_none(value):
    if value.__class__ is ComplexRational:
        return value
    if value.__class__ is int:
        return _new(ComplexRational, (value, 0, 1))
    return None

