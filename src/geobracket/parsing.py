"""Recursive-descent parser for the operator expression DSL.

Grammar (juxtaposition is never multiplication; ``*`` is explicit):

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := primary ('^' UINT)*
    primary := SCALAR | 'i' | 'x'UINT | 'd'UINT | 's'
             | 'exp' '(' expr ')' | '(' expr ')'

Scalars are rational literals with an optional immediate ``i`` suffix
(``3``, ``3/2``, ``2i``); the bare identifier ``i`` is the imaginary unit.
Coordinates and derivatives are 1-based in text (``x1``, ``d1``) and map to
0-based axes.  ``s`` names the structure function supplied by the caller.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, ExprSyntaxError
from .functions import CoefFn, coord, exponential
from .operators import DiffOp, compose, identity, mult, partial_d, scalar_op
from .scalars import I, ComplexRational

# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class Scalar:
    value: ComplexRational


@dataclass(frozen=True)
class Coord:
    axis: int


@dataclass(frozen=True)
class Diff:
    axis: int


@dataclass(frozen=True)
class Preset:
    name: str


@dataclass(frozen=True)
class Exp:
    argument: "Node"


@dataclass(frozen=True)
class Sum:
    addends: tuple


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Power:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Negate:
    node: "Node"


Node = Scalar | Coord | Diff | Preset | Exp | Sum | Product | Power | Negate


# -- lexer ----------------------------------------------------------------------

_TOKEN_RE = _re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:/\d+)?i?)
  | (?P<ident>[A-Za-z][A-Za-z0-9]*)
  | (?P<symbol>[+\-*^()])
    """,
    _re.VERBOSE,
)

_IDENT_RE = _re.compile(r"^([A-Za-z]+)(\d*)$")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ExprSyntaxError(
                f"unexpected character {text[pos]!r}", line, col
            )
        chunk = match.group(0)
        if match.lastgroup != "ws":
            kind = match.lastgroup if match.lastgroup != "symbol" else chunk
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = match.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


# -- parser ----------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ExprSyntaxError(
                f"unexpected {token.text!r}" if token.kind != "end" else "unexpected end of input",
                token.line,
                token.column,
                expected=(kind,),
            )
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ExprSyntaxError(
                f"unexpected trailing {tail.text!r}", tail.line, tail.column
            )
        return node

    def expr(self) -> Node:
        addends = []
        negate_first = False
        if self.peek().kind in ("+", "-"):
            negate_first = self.advance().kind == "-"
        first = self.term()
        addends.append(Negate(first) if negate_first else first)
        while self.peek().kind in ("+", "-"):
            negative = self.advance().kind == "-"
            node = self.term()
            addends.append(Negate(node) if negative else node)
        return addends[0] if len(addends) == 1 else Sum(tuple(addends))

    def term(self) -> Node:
        factors = [self.factor()]
        while self.peek().kind == "*":
            self.advance()
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def factor(self) -> Node:
        node = self.primary()
        while self.peek().kind == "^":
            self.advance()
            token = self.expect("number")
            if not token.text.isdigit():
                raise ExprSyntaxError(
                    "exponent must be a non-negative integer",
                    token.line,
                    token.column,
                )
            node = Power(node, int(token.text))
        return node

    def primary(self) -> Node:
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return Scalar(_scalar_literal(token.text))
        if token.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if token.kind == "ident":
            return self.identifier()
        raise ExprSyntaxError(
            f"unexpected {token.text!r}" if token.kind != "end" else "unexpected end of input",
            token.line,
            token.column,
            expected=("number", "identifier", "("),
        )

    def identifier(self) -> Node:
        token = self.advance()
        name, digits = _IDENT_RE.match(token.text).groups()
        if name == "i" and not digits:
            return Scalar(I)
        if name == "s" and not digits:
            return Preset("s")
        if name == "exp" and not digits:
            self.expect("(")
            argument = self.expr()
            self.expect(")")
            return Exp(argument)
        if name in ("x", "d") and digits:
            index = int(digits)
            if index < 1:
                raise ExprSyntaxError(
                    "coordinate indices are 1-based", token.line, token.column
                )
            return Coord(index - 1) if name == "x" else Diff(index - 1)
        raise ExprSyntaxError(
            f"unknown identifier {token.text!r}", token.line, token.column
        )


def _scalar_literal(text: str) -> ComplexRational:
    imaginary = text.endswith("i")
    if imaginary:
        text = text[:-1] or "1"
    value = Fraction(text)
    return ComplexRational(0, value) if imaginary else ComplexRational(value)


def parse(text: str) -> Node:
    """Parse DSL text into an AST; raises :class:`ExprSyntaxError`."""
    return _Parser(text).parse()


# -- analysis and lowering --------------------------------------------------------


def max_axis(node: Node) -> int:
    """Largest coordinate/derivative axis mentioned, or -1 if none."""
    if isinstance(node, (Coord, Diff)):
        return node.axis
    if isinstance(node, Exp):
        return max_axis(node.argument)
    if isinstance(node, Negate):
        return max_axis(node.node)
    if isinstance(node, Power):
        return max_axis(node.base)
    if isinstance(node, Sum):
        return max((max_axis(n) for n in node.addends), default=-1)
    if isinstance(node, Product):
        return max((max_axis(n) for n in node.factors), default=-1)
    return -1


def lower(node: Node, dim: int, structure_fn: CoefFn | None = None) -> DiffOp:
    """Lower an AST to a normal-form operator over ``dim`` coordinates."""
    if isinstance(node, Scalar):
        return scalar_op(dim, node.value)
    if isinstance(node, Coord):
        if node.axis >= dim:
            raise DimensionMismatch(
                f"x{node.axis + 1} does not fit in {dim} coordinate(s)"
            )
        return mult(coord(dim, node.axis))
    if isinstance(node, Diff):
        if node.axis >= dim:
            raise DimensionMismatch(
                f"d{node.axis + 1} does not fit in {dim} coordinate(s)"
            )
        return partial_d(dim, node.axis)
    if isinstance(node, Preset):
        if structure_fn is None:
            raise ExprSyntaxError("'s' used but no structure function is in scope")
        if structure_fn.dim != dim:
            raise DimensionMismatch(
                "structure function dimension does not match expression dimension"
            )
        return mult(structure_fn)
    if isinstance(node, Exp):
        return mult(_exp_function(node.argument, dim, structure_fn))
    if isinstance(node, Negate):
        return lower(node.node, dim, structure_fn).scaled(-1)
    if isinstance(node, Sum):
        out = lower(node.addends[0], dim, structure_fn)
        for child in node.addends[1:]:
            out = out + lower(child, dim, structure_fn)
        return out
    if isinstance(node, Product):
        out = lower(node.factors[0], dim, structure_fn)
        for child in node.factors[1:]:
            out = compose(out, lower(child, dim, structure_fn))
        return out
    if isinstance(node, Power):
        return _power(lower(node.base, dim, structure_fn), node.exponent)
    raise TypeError(f"unknown AST node {node!r}")


def _power(base: DiffOp, exponent: int) -> DiffOp:
    """``base^exponent`` by repeated squaring: about ``2 log2(exponent)``
    compositions instead of ``exponent``."""
    out = None
    while True:
        if exponent & 1:
            out = base if out is None else compose(out, base)
        exponent >>= 1
        if not exponent:
            break
        base = compose(base, base)
    return identity(base.dim) if out is None else out


def _exp_function(argument: Node, dim: int, structure_fn) -> CoefFn:
    inner = lower(argument, dim, structure_fn)
    fn = as_function(inner)
    freqs = [ComplexRational() for _ in range(dim)]
    for (nu, kappa), coeff in fn.terms.items():
        if any(kappa) or sum(nu) != 1:
            raise ExprSyntaxError(
                "exp argument must be linear in the coordinates"
            )
        freqs[nu.index(1)] = freqs[nu.index(1)] + coeff
    return exponential(dim, freqs)


def as_function(op: DiffOp) -> CoefFn:
    """Extract the coefficient function of a multiplication operator."""
    for alpha in op.terms:
        if any(alpha):
            raise ExprSyntaxError(
                "expression must not contain derivative factors here"
            )
    return op.coefficient((0,) * op.dim)


def parse_operator(
    text: str,
    dim: int | None = None,
    structure_fn: CoefFn | None = None,
) -> DiffOp:
    """Parse and lower in one step; ``dim`` defaults to the largest axis used."""
    node = parse(text)
    if dim is None:
        dim = max(max_axis(node) + 1, 1)
        if structure_fn is not None:
            dim = max(dim, structure_fn.dim)
    return lower(node, dim, structure_fn)


def parse_function(
    text: str,
    dim: int | None = None,
    structure_fn: CoefFn | None = None,
) -> CoefFn:
    """Parse text that must denote a plain function (no derivatives)."""
    return as_function(parse_operator(text, dim, structure_fn))
