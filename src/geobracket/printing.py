"""Deterministic text rendering of scalars, functions, and operators.

This module is the one place that decides the DSL text form.  The output
is valid input for :mod:`geobracket.parsing`: coordinates print as
``x1, x2, ...``, derivatives as ``d1, d2, ...`` (1-based in text, 0-based
in the API), multiplication is always an explicit ``*``, and exponentials
print as ``exp(<linear form>)``.

Every product renders through :func:`_coef_term`, a scalar times factors:
the imaginary part of a scalar (``3/2*i``), an exponent addend
(``-x1``, ``(1 + i)*x2``), a function term (``-x1^2*exp(i*x1)``) and an
operator term with a one-term coefficient (``2*x1*d1^2``).  A ``1`` or
``-1`` folds into the factors and a mixed scalar is parenthesised.  Terms
are sorted here: function terms by monomial, then frequencies; operator
terms by derivative multi-index.  So equal values render identically.
"""

from __future__ import annotations

from math import gcd, lcm

from .functions import CoefFn
from .scalars import ZERO, ComplexRational


def _ratio(n: int, d: int) -> str:
    """``n/d`` in lowest terms, as ``str`` of a ``Fraction`` renders it."""
    if d == 1:
        return str(n)
    g = gcd(n, d)
    return f"{n // g}/{d // g}" if d != g else str(n // g)


def format_scalar(z: ComplexRational) -> str:
    """Render in the DSL grammar, e.g. ``3/2``, ``-i``, ``1/2 + 3*i``.

    Works on the triple ``(a, b, d)``: a real or imaginary value is in
    lowest terms already, and a mixed one reduces each part by one gcd."""
    a, b, d = z
    if not b:
        return _ratio(a, d)
    if b == d:
        imag = "i"
    elif b == -d:
        imag = "-i"
    else:
        imag = _ratio(b, d) + "*i"
    if not a:
        return imag
    if imag[0] == "-":
        return f"{_ratio(a, d)} - {imag[1:]}"
    return f"{_ratio(a, d)} + {imag}"


def scalar_needs_parens(z: ComplexRational) -> bool:
    """True when the rendering is a sum, so factor positions need parens."""
    return bool(z[0] and z[1])


def _join_signed(addends) -> str:
    """Join addend strings, folding leading minus signs into ``-`` joins."""
    parts = []
    for text in addends:
        if not parts:
            parts.append(text)
        elif text.startswith("-"):
            parts.append(" - " + text[1:])
        else:
            parts.append(" + " + text)
    return "".join(parts)


def _scalar_factor(z: ComplexRational) -> str:
    """Scalar rendered so it can sit inside a product."""
    text = format_scalar(z)
    return f"({text})" if scalar_needs_parens(z) else text


def _coef_term(coeff: ComplexRational, factors: list) -> str:
    """``coeff`` times ``factors``; may carry a leading minus for sign folding."""
    if not factors:
        return format_scalar(coeff)
    body = "*".join(factors)
    a, b, d = coeff
    if not b and d == 1:
        if a == 1:
            return body
        if a == -1:
            return f"-{body}"
        return f"{a}*{body}"
    return f"{_scalar_factor(coeff)}*{body}"


def _power_factors(letter: str, powers) -> list:
    """``x1^2``-style factors for the nonzero entries of a multi-index."""
    return [
        f"{letter}{axis}" if power == 1 else f"{letter}{axis}^{power}"
        for axis, power in enumerate(powers, 1)
        if power
    ]


def _term_body(nu, kappa) -> list:
    """Factors of ``x^nu * exp(kappa . x)``, the exponent as a signed sum."""
    factors = _power_factors("x", nu)
    # Tuple equality, not a truth test per frequency: is any frequency nonzero?
    if kappa.count(ZERO) != len(kappa):
        linear_form = _join_signed(
            _coef_term(freq, [f"x{axis}"]) for axis, freq in enumerate(kappa, 1) if freq
        )
        factors.append(f"exp({linear_form})")
    return factors


def _sorted_terms(f: CoefFn) -> list:
    """Terms by monomial, then frequencies by real and imaginary part.

    Every frequency ``(a + b i) / d`` is put over ``scale``, the lcm of
    their denominators, so the integer pairs ``(a, b) * (scale / d)`` order
    as the values do."""
    items = list(f.terms.items())
    if len(items) < 2:
        return items
    scale = lcm(*(q[2] for _, kappa in f.terms for q in kappa))

    def order(item):
        nu, kappa = item[0]
        return nu, [(q[0] * (scale // q[2]), q[1] * (scale // q[2])) for q in kappa]

    return sorted(items, key=order)


def format_coef_fn(f: CoefFn) -> str:
    terms = _sorted_terms(f)
    return _join_signed(_coef_term(c, _term_body(*key)) for key, c in terms) or "0"


def format_diff_op(op) -> str:
    """Each term is ``c_alpha * d^alpha``; a coefficient that renders as a
    sum is parenthesised, unless the operator is that coefficient alone."""
    # Keys are unique, so the coefficients are never compared.
    terms = sorted(op.terms.items())
    if len(terms) == 1 and not any(terms[0][0]):
        return format_coef_fn(terms[0][1])
    addends = []
    for alpha, coeff in terms:
        d_factors = _power_factors("d", alpha)
        if len(coeff.terms) == 1:
            ((nu, kappa), c), = coeff.terms.items()
            factors = _term_body(nu, kappa) + d_factors
            addends.append(_coef_term(c, factors) if factors else _scalar_factor(c))
        else:
            addends.append("*".join([f"({format_coef_fn(coeff)})", *d_factors]))
    return _join_signed(addends) or "0"
