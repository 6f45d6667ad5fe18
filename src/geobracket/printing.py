"""Deterministic text rendering of scalars, functions, and operators.

The output is valid input for :mod:`geobracket.parsing`: coordinates print
as ``x1, x2, ...``, derivatives as ``d1, d2, ...`` (1-based in text, 0-based
in the API), multiplication is always an explicit ``*``, and exponentials
print as ``exp(<linear form>)``.  Term order is canonical so equal values
render identically.
"""

from __future__ import annotations

from .functions import CoefFn, one
from .scalars import ONE, ComplexRational, format_scalar, scalar_needs_parens


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


def _linear_form(kappa) -> str:
    """The exponent ``sum_j kappa_j x_j`` of an exponential term."""
    addends = []
    for axis, freq in enumerate(kappa):
        if not freq:
            continue
        name = f"x{axis + 1}"
        if freq == ONE:
            addends.append(name)
        elif freq == -ONE:
            addends.append(f"-{name}")
        else:
            addends.append(f"{_scalar_factor(freq)}*{name}")
    return _join_signed(addends)


def _power_factors(letter: str, powers) -> list:
    """``x1^2``-style factors for the nonzero entries of a multi-index."""
    return [
        f"{letter}{axis + 1}" if power == 1 else f"{letter}{axis + 1}^{power}"
        for axis, power in enumerate(powers)
        if power
    ]


def _term_body(nu, kappa) -> list:
    factors = _power_factors("x", nu)
    if any(kappa):
        factors.append(f"exp({_linear_form(kappa)})")
    return factors


def _coef_term(coeff: ComplexRational, body_factors: list) -> str:
    """One additive term; may carry a leading minus for sign folding."""
    if not body_factors:
        return format_scalar(coeff)
    body = "*".join(body_factors)
    if coeff == ONE:
        return body
    if coeff == -ONE:
        return f"-{body}"
    return f"{_scalar_factor(coeff)}*{body}"


def format_coef_fn(f: CoefFn) -> str:
    if f.is_zero:
        return "0"
    addends = [
        _coef_term(coeff, _term_body(nu, kappa))
        for (nu, kappa), coeff in f.sorted_terms()
    ]
    return _join_signed(addends)


def _is_single_product(f: CoefFn) -> bool:
    """True when the rendering has no top-level ``+``/``-`` join."""
    if len(f.terms) != 1:
        return False
    ((nu, kappa), coeff), = f.terms.items()
    if _term_body(nu, kappa):
        return True
    # Bare scalar term: a mixed scalar renders as a sum.
    return not scalar_needs_parens(coeff)


def format_diff_op(op) -> str:
    if op.is_zero:
        return "0"
    terms = op.sorted_terms()
    unit = one(op.dim)
    minus_unit = -unit
    addends = []
    for alpha, coeff in terms:
        dpart = "*".join(_power_factors("d", alpha))
        if not dpart:
            if len(terms) == 1:
                return format_coef_fn(coeff)
            if _is_single_product(coeff):
                addends.append(format_coef_fn(coeff))
            else:
                addends.append(f"({format_coef_fn(coeff)})")
            continue
        if coeff == unit:
            addends.append(dpart)
        elif coeff == minus_unit:
            addends.append(f"-{dpart}")
        elif _is_single_product(coeff):
            addends.append(f"{format_coef_fn(coeff)}*{dpart}")
        else:
            addends.append(f"({format_coef_fn(coeff)})*{dpart}")
    return _join_signed(addends)
