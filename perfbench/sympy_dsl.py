"""Independent SymPy reading of the operator DSL, used to check outputs.

This is a separate implementation of the grammar documented in the README
(``+ - * ^INT ( )``, rational and imaginary literals such as ``3/2`` and
``2i``, coordinates ``x1 x2 ...``, derivatives ``d1 d2 ...``, ``exp(...)``
and ``s``); it shares no code with ``geobracket.parsing``.  An expression
denotes an operator, represented here as a function from a SymPy
expression to a SymPy expression; a product is composition, so ``d1*x1``
applied to ``f`` is ``d/dx1 (x1 f)``.
"""

from __future__ import annotations

import re

import sympy as sp

_TOKEN = re.compile(r"\s*(?:(\d+(?:/\d+)?i?)|([A-Za-z][A-Za-z0-9]*)|([-+*^()]))")


def coordinates(count: int):
    return sp.symbols(f"x1:{count + 1}")


def _tokens(text: str):
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None or match.end() == pos:
            raise ValueError(f"cannot read {text[pos:]!r}")
        out.append(match.group(1) or match.group(2) or match.group(3))
        pos = match.end()
    return out


def _literal(token: str):
    imaginary = token.endswith("i")
    body = token[:-1] if imaginary else token
    value = sp.Rational(body) if body else sp.Integer(1)
    return value * sp.I if imaginary else value


class _Reader:
    def __init__(self, text, xs, structure):
        self.tokens = _tokens(text)
        self.pos = 0
        self.xs = xs
        self.structure = structure

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        token = self.peek()
        if token is None or (expected is not None and token != expected):
            raise ValueError(f"expected {expected!r}, found {token!r}")
        self.pos += 1
        return token

    def read(self):
        op = self.sum()
        if self.peek() is not None:
            raise ValueError(f"trailing {self.peek()!r}")
        return op

    def sum(self):
        signed = []
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
        signed.append((sign, self.product()))
        while self.peek() in ("+", "-"):
            sign = -1 if self.take() == "-" else 1
            signed.append((sign, self.product()))
        return lambda f: sp.Add(*(sign * op(f) for sign, op in signed))

    def product(self):
        factors = [self.power()]
        while self.peek() == "*":
            self.take()
            factors.append(self.power())

        def apply(f):
            for op in reversed(factors):
                f = op(f)
            return f

        return apply

    def power(self):
        base = self.atom()
        while self.peek() == "^":
            self.take()
            count = int(self.take())
            base = _repeat(base, count)
        return base

    def atom(self):
        token = self.take()
        if token == "(":
            op = self.sum()
            self.take(")")
            return op
        if token[0].isdigit():
            value = _literal(token)
            return lambda f: value * f
        if token == "i":
            return lambda f: sp.I * f
        if token == "s":
            structure = self.structure
            return lambda f: structure * f
        if token == "exp":
            self.take("(")
            argument = self.sum()(sp.Integer(1))
            self.take(")")
            factor = sp.exp(argument)
            return lambda f: factor * f
        match = re.fullmatch(r"([xd])(\d+)", token)
        if match:
            axis = self.xs[int(match.group(2)) - 1]
            if match.group(1) == "x":
                return lambda f: axis * f
            return lambda f: sp.diff(f, axis)
        raise ValueError(f"unknown token {token!r}")


def _repeat(op, count):
    def apply(f):
        for _ in range(count):
            f = op(f)
        return f

    return apply


def operator(text: str, xs, structure=None):
    """The operator denoted by ``text`` over coordinates ``xs``."""
    return _Reader(text, xs, structure).read()


def function(text: str, xs, structure=None):
    """The function denoted by ``text`` (the operator applied to 1)."""
    return operator(text, xs, structure)(sp.Integer(1))


def same(lhs, rhs) -> bool:
    """Exact equality of two SymPy expressions with exponential factors."""
    difference = sp.expand(lhs - rhs)
    if difference == 0:
        return True
    return sp.expand(sp.powsimp(difference, combine="exp")) == 0


def bracket_action(kind: str, s_text: str, a_text: str, b_text: str, xs):
    """The action of the requested bracket on a generic ``f(x1, ...)``."""
    structure = function(s_text, xs)
    a = operator(a_text, xs, structure)
    b = operator(b_text, xs, structure)
    f = sp.Function("f")(*xs)
    plain = a(b(f)) - b(a(f))
    correction = a(structure * b(f) - b(structure * f)) - b(
        structure * a(f) - a(structure * f)
    )
    return f, {"qpb": plain, "geo": correction, "qcpb": plain + correction}[kind], plain, correction


def poisson(f, g, xs, pairs):
    """Canonical Poisson bracket over positions ``xs[:pairs]`` and momenta."""
    return sp.Add(
        *(
            sp.diff(f, xs[k]) * sp.diff(g, xs[pairs + k])
            - sp.diff(f, xs[pairs + k]) * sp.diff(g, xs[k])
            for k in range(pairs)
        )
    )
