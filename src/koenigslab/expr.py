"""Mini-grammar for defining-function formulas in one variable ``y``.

Grammar (precedence low to high)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' factor)?   # right associative
    atom   := NUMBER | 'y' | 'pi' | 'e' | NAME '(' expr ')' | '(' expr ')'

Supported functions: log, exp, sin, cos, abs, sqrt.  ``**`` is accepted as
an alias for ``^``.  As in Python, ``-a^b`` is ``-(a^b)`` and ``a^-b`` is
``a^(-b)``.  Compiled expressions evaluate on scalars or numpy arrays;
non-finite results raise :class:`EvaluatorError` unless the caller opts
out.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np


class ExprSyntaxError(ValueError):
    """Raised when the expression text does not parse."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluatorError(ArithmeticError):
    """Raised when a compiled expression produces a non-finite value."""


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\*\*|[-+*/^()]))"
)

_FUNCS: dict[str, Callable] = {
    "log": np.log,
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "abs": np.abs,
    "sqrt": np.sqrt,
}

_CONSTS = {"pi": math.pi, "e": math.e}


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "num" or (m.group("num") is not None):
            tokens.append(("num", float(m.group(0)), pos))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), pos))
        else:
            op = m.group("op")
            tokens.append(("op", "^" if op == "**" else op, pos))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


@dataclass(frozen=True)
class Expression:
    """A compiled formula over ``y``.  Immutable and safe to share."""

    source: str
    _fn: Callable

    def __call__(self, y, check=True):
        with np.errstate(all="ignore"):
            out = self._fn(np.asarray(y, dtype=float))
        if check:
            bad = ~np.isfinite(out)
            if np.any(bad):
                where = np.asarray(y, dtype=float)[bad] if np.ndim(y) else y
                raise EvaluatorError(
                    f"expression {self.source!r} is non-finite at y={where!r}"
                )
        if np.ndim(y) == 0:
            return float(out)
        return out

    def __repr__(self):
        return f"Expression({self.source!r})"


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)

    def parse(self):
        node = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError("trailing input", pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = (
                    (lambda a, b: lambda y: a(y) + b(y))
                    if val == "+"
                    else (lambda a, b: lambda y: a(y) - b(y))
                )(node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                node = (
                    (lambda a, b: lambda y: a(y) * b(y))
                    if val == "*"
                    else (lambda a, b: lambda y: a(y) / b(y))
                )(node, rhs)
            else:
                return node

    def factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            inner = self.factor()
            return lambda y, a=inner: -a(y)
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            expo = self.factor()
            return lambda y, a=base, b=expo: np.power(a(y), b(y))
        return base

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return lambda y, c=val: np.full_like(y, c, dtype=float) if np.ndim(y) else c
        if kind == "name":
            if val == "y":
                return lambda y: y
            if val in _CONSTS:
                c = _CONSTS[val]
                return lambda y, c=c: np.full_like(y, c, dtype=float) if np.ndim(y) else c
            if val in _FUNCS:
                fn = _FUNCS[val]
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return lambda y, f=fn, a=inner: f(a(y))
            raise ExprSyntaxError(f"unknown name {val!r}", pos)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExprSyntaxError("expected a value", pos)


def parse_expression(text: str) -> Expression:
    """Compile ``text`` into an :class:`Expression` over the variable y."""
    fn = _Parser(text).parse()

    def call(y, fn=fn):
        out = fn(y)
        if np.ndim(y) and np.ndim(out) == 0:
            out = np.full(np.shape(y), out, dtype=float)
        return out

    return Expression(text, call)
