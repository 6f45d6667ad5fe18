"""Geometric commutators built from a structure function.

The extended bracket of two operators is

    [a, b] = (a b - b a) + G(s, a, b),
    G(s, a, b) = a [s, b] - b [s, a],

where the structure function ``s`` enters every commutator as the
multiplication operator ``psi -> s * psi``.  ``G`` is the antisymmetric
correction term; the report type keeps it separate from the plain
commutator so callers can inspect both contributions.

The cyclic sum of nested extended brackets decomposes exactly as
``N_cl = N_cc + N_ll`` (a consequence of bilinearity); ``N_cl`` itself
vanishes on one-dimensional triples whose operators all have order <= 1,
but is generally nonzero in higher dimension (even for first-order
operators) and for higher-order operators.  :func:`jacobi_residuals`
exposes all three pieces so callers can see exactly what survives.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, NonRealStructureFunction
from .functions import CoefFn
from .operators import DiffOp, commutator, compose, mult
from .scalars import I

# The bracket kinds ``grid.matrix_bracket`` recomputes and ``grid-check --kind``
# offers; defined here, not in ``grid``, so the CLI reads them without numpy.
KINDS = ("qpb", "geomutator", "qcpb")


def _check(s: CoefFn, *ops: DiffOp):
    if not s.is_real:
        raise NonRealStructureFunction(
            "structure function must equal its complex conjugate"
        )
    for op in ops:
        if op.dim != s.dim:
            raise DimensionMismatch(
                f"operator over {op.dim} coordinates with structure function over {s.dim}"
            )


@dataclass(frozen=True)
class BracketReport:
    """Extended bracket split into its commutator and correction parts."""

    qpb_part: DiffOp
    geomutator_part: DiffOp
    total: DiffOp
    structure_fn: CoefFn


def geomutator(s: CoefFn, a: DiffOp, b: DiffOp) -> DiffOp:
    """The correction term ``a [s, b] - b [s, a]``; antisymmetric in (a, b)."""
    _check(s, a, b)
    s_op = mult(s)
    return compose(a, commutator(s_op, b)) - compose(b, commutator(s_op, a))


def qcpb(s: CoefFn, a: DiffOp, b: DiffOp) -> BracketReport:
    """Extended bracket ``[a, b] = (ab - ba) + G(s, a, b)``."""
    _check(s, a, b)
    plain = commutator(a, b)
    correction = geomutator(s, a, b)
    return BracketReport(plain, correction, plain + correction, s)


def sandwich(s: CoefFn, a: DiffOp, b: DiffOp) -> DiffOp:
    """``<a : s : b> = a s b - b s a`` with ``s`` as a multiplication operator."""
    _check(s, a, b)
    s_op = mult(s)
    return compose(a, compose(s_op, b)) - compose(b, compose(s_op, a))


def s_transform(s: CoefFn, a: DiffOp, variant: str = "plain") -> DiffOp:
    """Structure-function transform of an operator.

    ``plain``: ``a + s a`` (left multiplication by ``s``).
    ``sg``:    ``a + s a - a s`` (adds the commutator with ``s``).
    """
    _check(s, a)
    s_op = mult(s)
    out = a + compose(s_op, a)
    if variant == "sg":
        out = out - compose(a, s_op)
    elif variant != "plain":
        raise ValueError(f"unknown transform variant {variant!r}")
    return out


@dataclass(frozen=True)
class JacobiResiduals:
    """Cyclic Jacobi sums for the plain and extended brackets.

    ``n_cc`` is the plain-commutator cyclic sum (always zero), ``n_cl`` the
    extended-bracket cyclic sum, and ``n_ll`` the nine-term correction
    expansion; ``n_cl = n_cc + n_ll`` holds exactly.
    """

    n_cc: DiffOp
    n_ll: DiffOp
    n_cl: DiffOp


def jacobi_residuals(s: CoefFn, a: DiffOp, b: DiffOp, c: DiffOp) -> JacobiResiduals:
    _check(s, a, b, c)
    triples = ((a, b, c), (b, c, a), (c, a, b))

    n_cc = None
    n_ll = None
    n_cl = None
    for f, g, h in triples:
        cc = commutator(commutator(f, g), h)
        inner_qpb = commutator(f, g)
        inner_geo = geomutator(s, f, g)
        ll = (
            geomutator(s, inner_qpb, h)
            + commutator(inner_geo, h)
            + geomutator(s, inner_geo, h)
        )
        cl = qcpb(s, qcpb(s, f, g).total, h).total
        n_cc = cc if n_cc is None else n_cc + cc
        n_ll = ll if n_ll is None else n_ll + ll
        n_cl = cl if n_cl is None else n_cl + cl
    return JacobiResiduals(n_cc, n_ll, n_cl)


@dataclass(frozen=True)
class HermitianSplitReport:
    """Bracket of ``f = f+ + i f-`` against ``g = g+ + i g-`` and of its parts.

    ``combined`` is the bracket of the recombined operators; the four part
    reports are the brackets of the components.  The expansion that ties
    them together is stated in :func:`geobracket.verify.hermitian_split_holds`.
    """

    combined: BracketReport
    plus_plus: BracketReport
    minus_minus: BracketReport
    minus_plus: BracketReport
    plus_minus: BracketReport


def hermitian_split_qcpb(
    s: CoefFn,
    f_plus: DiffOp,
    f_minus: DiffOp,
    g_plus: DiffOp,
    g_minus: DiffOp,
) -> HermitianSplitReport:
    """Bracket two operators given by real/imaginary parts, with the expansion."""
    _check(s, f_plus, f_minus, g_plus, g_minus)
    f = f_plus + f_minus.scaled(I)
    g = g_plus + g_minus.scaled(I)
    return HermitianSplitReport(
        combined=qcpb(s, f, g),
        plus_plus=qcpb(s, f_plus, g_plus),
        minus_minus=qcpb(s, f_minus, g_minus),
        minus_plus=qcpb(s, f_minus, g_plus),
        plus_minus=qcpb(s, f_plus, g_minus),
    )
