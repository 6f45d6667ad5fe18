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

from .functions import CoefFn
from .scalars import ONE, ComplexRational


def format_scalar(z: ComplexRational) -> str:
    """Render in the DSL grammar, e.g. ``3/2``, ``-i``, ``1/2 + 3*i``."""
    if z.is_real:
        return str(z.re)
    imag = _coef_term(ComplexRational(z.im), ["i"])
    return _join_signed([str(z.re), imag]) if z[0] else imag


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
    if coeff == ONE:
        return body
    if coeff == -ONE:
        return f"-{body}"
    return f"{_scalar_factor(coeff)}*{body}"


def _power_factors(letter: str, powers) -> list:
    """``x1^2``-style factors for the nonzero entries of a multi-index."""
    return [
        f"{letter}{axis + 1}" if power == 1 else f"{letter}{axis + 1}^{power}"
        for axis, power in enumerate(powers)
        if power
    ]


def _term_body(nu, kappa) -> list:
    """Factors of ``x^nu * exp(kappa . x)``, the exponent as a signed sum."""
    factors = _power_factors("x", nu)
    if any(kappa):
        linear_form = _join_signed(
            _coef_term(freq, [f"x{axis + 1}"]) for axis, freq in enumerate(kappa) if freq
        )
        factors.append(f"exp({linear_form})")
    return factors


def _fn_term_order(item):
    (nu, kappa), _ = item
    return nu, tuple(k.sort_key() for k in kappa)


def format_coef_fn(f: CoefFn) -> str:
    terms = sorted(f.terms.items(), key=_fn_term_order)
    return _join_signed(_coef_term(c, _term_body(*key)) for key, c in terms) or "0"


def format_diff_op(op) -> str:
    """Each term is ``c_alpha * d^alpha``; a coefficient that renders as a
    sum is parenthesised, unless the operator is that coefficient alone."""
    terms = sorted(op.terms.items(), key=lambda item: item[0])
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
