"""Recursive-descent parser for the operator expression DSL.

Grammar (juxtaposition is never multiplication; ``*`` is explicit):

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := primary ('^' UINT)*
    primary := SCALAR | 'i' | 'x'UINT | 'd'UINT | 's'
             | 'exp' '(' expr ')' | '(' expr ')'

Scalars are rational literals with an optional immediate ``i`` suffix
(``3``, ``3/2``, ``2i``; a zero denominator is a syntax error); the bare
identifier ``i`` is the imaginary unit.  A literal is read into integers,
and one whose digits Python will not convert (more than
``sys.get_int_max_str_digits()``, 4300 by default) is a syntax error at
its token, as is such an exponent.
Coordinates and derivatives are 1-based in text (``x1``, ``d1``) and map to
0-based axes.  ``s`` names the structure function supplied by the caller.

Nesting is bounded: each ``(``, ``exp(`` and ``^`` adds a level around
what it encloses or raises, and an expression may nest at most
``MAX_DEPTH`` (100) levels deep, so ``((x1))^2`` has depth 3.  Parsing,
lowering and ``max_axis`` recurse once per level; a deeper input is an
:class:`ExprSyntaxError` at the token that opens level ``MAX_DEPTH + 1``.

Lowering works in function space.  A derivative-free subtree lowers to a
:class:`CoefFn`: a product is one call of the product kernel
(``CoefFn.__mul__``), a power squares such products and raises a one-term
base directly (its exponents, frequencies and coefficient scale), and a
sum adds term maps.  A :class:`DiffOp` is built only where a ``d_j`` factor
appears.  A function times an operator scales that operator's
coefficients, so :func:`compose` runs only where a derivative meets what
stands to its right.  The result equals, term order included, what
composing multiplication operators would build, because
``compose(mult(f), mult(g))`` is ``mult(f * g)`` term for term and
``compose(mult(f), op)`` multiplies each coefficient of ``op`` by ``f``.
"""

from __future__ import annotations

import re as _re
import sys
from operator import mul

from .errors import DimensionMismatch, ExprSyntaxError
from .functions import CoefFn, const, coord, exponential, one
from .operators import DiffOp, compose, mult, partial_d
from .scalars import I, ONE, ZERO, ComplexRational

# Nesting budget: levels of ``(``, ``exp(`` and ``^`` (see the module docstring).
MAX_DEPTH = 100

# -- AST ----------------------------------------------------------------------


class _Node:
    """Base of the AST nodes: immutable by convention, equal only to a node
    of the same class with equal fields, and shown as ``Coord(axis=0)``."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash((self.__class__, self._fields()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class Scalar(_Node):
    __slots__ = ("value",)

    def __init__(self, value: ComplexRational):
        self.value = value


class Coord(_Node):
    __slots__ = ("axis",)

    def __init__(self, axis: int):
        self.axis = axis


class Diff(_Node):
    __slots__ = ("axis",)

    def __init__(self, axis: int):
        self.axis = axis


class Preset(_Node):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Exp(_Node):
    __slots__ = ("argument",)

    def __init__(self, argument: "Node"):
        self.argument = argument


class Sum(_Node):
    __slots__ = ("addends",)

    def __init__(self, addends: tuple):
        self.addends = addends


class Product(_Node):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple):
        self.factors = factors


class Power(_Node):
    __slots__ = ("base", "exponent")

    def __init__(self, base: "Node", exponent: int):
        self.base = base
        self.exponent = exponent


class Negate(_Node):
    __slots__ = ("node",)

    def __init__(self, node: "Node"):
        self.node = node


Node = Scalar | Coord | Diff | Preset | Exp | Sum | Product | Power | Negate


# -- lexer ----------------------------------------------------------------------

# Groups: whitespace, number, identifier, symbol, any other character.
_TOKEN_RE = _re.compile(
    r"(\s+)|(\d+(?:/\d+)?i?)|([A-Za-z][A-Za-z0-9]*)|([+\-*^()])|(.)", _re.DOTALL
)


def _tokenize(text: str) -> list:
    """Tokens as tuples ``(kind, text, line, column)``, 1-based positions;
    a symbol's kind is its text, and the last token is ``"end"``."""
    tokens = []
    line, line_start, pos = 1, 0, 0
    for space, number, ident, symbol, other in _TOKEN_RE.findall(text):
        column = pos - line_start + 1
        if space:
            newlines = space.count("\n")
            if newlines:
                line += newlines
                line_start = pos + space.rfind("\n") + 1
            pos += len(space)
        elif number:
            tokens.append(("number", number, line, column))
            pos += len(number)
        elif ident:
            tokens.append(("ident", ident, line, column))
            pos += len(ident)
        elif symbol:
            tokens.append((symbol, symbol, line, column))
            pos += 1
        else:
            raise ExprSyntaxError(f"unexpected character {other!r}", line, column)
    tokens.append(("end", "", line, pos - line_start + 1))
    return tokens


def _unexpected(token, expected) -> ExprSyntaxError:
    kind, text, line, column = token
    message = f"unexpected {text!r}" if kind != "end" else "unexpected end of input"
    return ExprSyntaxError(message, line, column, expected=expected)


def _integer(text: str, token) -> int:
    """``int(text)`` for a digit string read from ``token``."""
    try:
        return int(text)
    except ValueError:
        # Digits only reach here, so the one refusal is the length limit.
        raise ExprSyntaxError(
            f"number has more than {sys.get_int_max_str_digits()} digits",
            token[2],
            token[3],
        ) from None


# -- parser ----------------------------------------------------------------------


class _Parser:
    """Recursive descent; each rule returns ``(node, depth)``, where ``depth``
    counts the levels nested inside the node.  ``open`` counts the levels
    enclosing the current token, and ``open + depth`` never exceeds
    ``MAX_DEPTH``."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.open = 0

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def advance(self) -> tuple:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> tuple:
        token = self.tokens[self.pos]
        if token[0] != kind:
            raise _unexpected(token, (kind,))
        self.pos += 1
        return token

    def check_depth(self, depth: int, token: tuple) -> None:
        if self.open + depth > MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels", token[2], token[3]
            )

    def parse(self) -> Node:
        node, _ = self.expr()
        tail = self.peek()
        if tail[0] != "end":
            raise ExprSyntaxError(f"unexpected trailing {tail[1]!r}", tail[2], tail[3])
        return node

    def expr(self) -> tuple:
        tokens = self.tokens
        negate_first = False
        if tokens[self.pos][0] in ("+", "-"):
            negate_first = self.advance()[0] == "-"
        first, depth = self.term()
        addends = [Negate(first) if negate_first else first]
        while tokens[self.pos][0] in ("+", "-"):
            negative = self.advance()[0] == "-"
            node, node_depth = self.term()
            addends.append(Negate(node) if negative else node)
            depth = max(depth, node_depth)
        return (addends[0] if len(addends) == 1 else Sum(tuple(addends))), depth

    def term(self) -> tuple:
        tokens = self.tokens
        first, depth = self.factor()
        if tokens[self.pos][0] != "*":
            return first, depth
        factors = [first]
        while tokens[self.pos][0] == "*":
            self.pos += 1
            node, node_depth = self.factor()
            factors.append(node)
            depth = max(depth, node_depth)
        return Product(tuple(factors)), depth

    def factor(self) -> tuple:
        tokens = self.tokens
        node, depth = self.primary()
        while tokens[self.pos][0] == "^":
            depth += 1
            self.check_depth(depth, self.advance())
            token = self.expect("number")
            if not token[1].isdigit():
                raise ExprSyntaxError(
                    "exponent must be a non-negative integer", token[2], token[3]
                )
            node = Power(node, _integer(token[1], token))
        return node, depth

    def group(self, opener: tuple) -> tuple:
        """``'(' expr ')'`` after ``opener``, one level deeper."""
        self.expect("(")
        self.open += 1
        self.check_depth(0, opener)
        node, depth = self.expr()
        self.expect(")")
        self.open -= 1
        return node, depth + 1

    def primary(self) -> tuple:
        token = self.peek()
        kind = token[0]
        if kind == "number":
            self.pos += 1
            return Scalar(_scalar_literal(token)), 0
        if kind == "(":
            return self.group(token)
        if kind == "ident":
            return self.identifier()
        raise _unexpected(token, ("number", "identifier", "("))

    def identifier(self) -> tuple:
        token = self.advance()
        text = token[1]
        if text == "i":
            return Scalar(I), 0
        if text == "s":
            return Preset("s"), 0
        if text == "exp":
            argument, depth = self.group(token)
            return Exp(argument), depth
        # Identifiers are ASCII, so ``isdigit`` means ``[0-9]+``; a letter
        # after the digits (``x1a``) names nothing.
        digits = text[1:]
        if text[0] in ("x", "d") and digits.isdigit():
            index = int(digits)
            if index < 1:
                raise ExprSyntaxError("coordinate indices are 1-based", token[2], token[3])
            return (Coord(index - 1) if text[0] == "x" else Diff(index - 1)), 0
        raise ExprSyntaxError(f"unknown identifier {text!r}", token[2], token[3])


def _scalar_literal(token: tuple) -> ComplexRational:
    """``3``, ``3/2``, ``2i`` or ``1/2i`` as a scalar, read into integers."""
    text = token[1]
    imaginary = text[-1] == "i"
    numerator, _, denominator = (text[:-1] if imaginary else text).partition("/")
    value = _integer(numerator, token)
    value = ComplexRational(0, value) if imaginary else ComplexRational(value)
    if not denominator:
        return value
    denominator = _integer(denominator, token)
    if not denominator:
        raise ExprSyntaxError(f"zero denominator in {text!r}", token[2], token[3])
    return value / denominator


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
    return _as_op(_lower(node, dim, structure_fn))


def _lower(node: Node, dim: int, structure_fn) -> CoefFn | DiffOp:
    """A ``CoefFn`` for a derivative-free ``node``, else a ``DiffOp``."""
    rule = _LOWERINGS.get(node.__class__)
    if rule is None:
        raise TypeError(f"unknown AST node {node!r}")
    return rule(node, dim, structure_fn)


def _as_op(value: CoefFn | DiffOp) -> DiffOp:
    """``value`` as an operator: a function becomes its multiplication operator."""
    return value if isinstance(value, DiffOp) else mult(value)


def _lower_scalar(node: Scalar, dim: int, structure_fn) -> CoefFn:
    return const(dim, node.value)


def _lower_coord(node: Coord, dim: int, structure_fn) -> CoefFn:
    if node.axis >= dim:
        raise DimensionMismatch(f"x{node.axis + 1} does not fit in {dim} coordinate(s)")
    return coord(dim, node.axis)


def _lower_diff(node: Diff, dim: int, structure_fn) -> DiffOp:
    if node.axis >= dim:
        raise DimensionMismatch(f"d{node.axis + 1} does not fit in {dim} coordinate(s)")
    return partial_d(dim, node.axis)


def _lower_preset(node: Preset, dim: int, structure_fn) -> CoefFn:
    if structure_fn is None:
        raise ExprSyntaxError("'s' used but no structure function is in scope")
    if structure_fn.dim != dim:
        raise DimensionMismatch(
            "structure function dimension does not match expression dimension"
        )
    return structure_fn


def _lower_exp(node: Exp, dim: int, structure_fn) -> CoefFn:
    fn = _lower(node.argument, dim, structure_fn)
    if isinstance(fn, DiffOp):
        fn = as_function(fn)
    freqs = [ZERO] * dim
    for (nu, kappa), coeff in fn.terms.items():
        if any(kappa) or sum(nu) != 1:
            raise ExprSyntaxError("exp argument must be linear in the coordinates")
        axis = nu.index(1)
        freqs[axis] = freqs[axis] + coeff
    return exponential(dim, freqs)


def _lower_negate(node: Negate, dim: int, structure_fn) -> CoefFn | DiffOp:
    return -_lower(node.node, dim, structure_fn)


def _lower_sum(node: Sum, dim: int, structure_fn) -> CoefFn | DiffOp:
    addends = iter(node.addends)
    out = _lower(next(addends), dim, structure_fn)
    for addend in addends:
        right = _lower(addend, dim, structure_fn)
        if out.__class__ is not right.__class__:
            out, right = _as_op(out), _as_op(right)
        out = out + right
    return out


def _lower_product(node: Product, dim: int, structure_fn) -> CoefFn | DiffOp:
    factors = iter(node.factors)
    out = _lower(next(factors), dim, structure_fn)
    for factor in factors:
        right = _lower(factor, dim, structure_fn)
        if isinstance(out, DiffOp):
            out = compose(out, _as_op(right))
        elif isinstance(right, DiffOp):
            out = _scale_coefficients(out, right)
        else:
            out = out * right
    return out


def _scale_coefficients(f: CoefFn, op: DiffOp) -> DiffOp:
    """``mult(f) * op``: every coefficient ``c`` of ``op`` becomes ``f * c``."""
    return DiffOp(op.dim, {alpha: f * coeff for alpha, coeff in op.terms.items()})


def _lower_power(node: Power, dim: int, structure_fn) -> CoefFn | DiffOp:
    base = _lower(node.base, dim, structure_fn)
    exponent = node.exponent
    if not exponent:
        return one(dim)
    if isinstance(base, DiffOp):
        return _power(base, exponent, compose)
    if len(base.terms) == 1:
        return _raise_term(base, exponent)
    return _power(base, exponent, mul)


def _power(base, exponent: int, product):
    """``base^exponent`` for ``exponent >= 1`` by repeated squaring with
    ``product``: about ``2 log2(exponent)`` products instead of ``exponent``."""
    out = None
    while True:
        if exponent & 1:
            out = base if out is None else product(out, base)
        exponent >>= 1
        if not exponent:
            return out
        base = product(base, base)


def _raise_term(f: CoefFn, exponent: int) -> CoefFn:
    """``(c x^nu exp(kappa . x))^k = c^k x^(k nu) exp(k kappa . x)`` for a
    one-term ``f`` and ``k >= 1``."""
    ((nu, kappa), coeff), = f.terms.items()
    key = (
        tuple(e * exponent for e in nu),
        tuple(q * exponent if q else q for q in kappa),
    )
    value = ONE if coeff == ONE else _power(coeff, exponent, mul)
    return CoefFn._wrap(f.dim, {key: value})


_LOWERINGS = {
    Scalar: _lower_scalar,
    Coord: _lower_coord,
    Diff: _lower_diff,
    Preset: _lower_preset,
    Exp: _lower_exp,
    Negate: _lower_negate,
    Sum: _lower_sum,
    Product: _lower_product,
    Power: _lower_power,
}


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
