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

Compiling folds every y-free subformula once, through the ufunc a call
would apply, on one-element arrays and with floating-point warnings off
(``log(0)`` folds to -inf and a call still reports it).  In ``+ - * /``
and the functions, the folded value then meets the array of heights as a
scalar, which changes no bit.  ``^`` is never folded and keeps both
operands at full size, so numpy's ``power`` never takes the sqrt, square
or reciprocal shortcut of a scalar exponent.  Every call, of one height
or many, evaluates one flat array (``Evaluator.__call__``), so a height
gets the same bits alone and in any array.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class ExprSyntaxError(ValueError):
    """Raised when the expression text does not parse."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluatorError(ArithmeticError):
    """Raised when a checked evaluator call produces a non-finite value."""


class Evaluator:
    """The one protocol of a piece's evaluator, which ``Expression`` and
    every other evaluator subclass.  A subclass gives ``values(ys)``: its
    values at a flat float array of heights, elementwise, NaN where it is
    undefined.  ``__call__(y, check=True)`` is the one evaluation path: it
    reads a height or an array of heights as one flat array through
    ``values``, with floating-point warnings off, and restores the shape (a
    float for one height); checked, it raises EvaluatorError where a value
    is not finite.  ``row_range(lo, hi)`` gives (sup, inf) on each row
    [lo, hi] of two 1-D arrays, NaN on a row left to sampling (every row,
    here).
    """

    def values(self, ys):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, y, check=True):
        ys = np.asarray(y, dtype=float)
        with np.errstate(all="ignore"):
            out = self.values(ys.ravel()).reshape(ys.shape)
        if check:
            bad = ~np.isfinite(out)
            if bad.any():
                where = ys[bad] if ys.ndim else y
                raise EvaluatorError(f"{self!r} is non-finite at y={where!r}")
        return float(out) if ys.ndim == 0 else out

    def row_range(self, lo, hi):
        return np.full(np.shape(lo), math.nan), np.full(np.shape(lo), math.nan)


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
class Expression(Evaluator):
    """A compiled formula over ``y``.  Immutable and safe to share.

    ``constant`` is the value of a y-free formula, None for any other.
    """

    source: str
    _fn: Callable
    constant: Optional[float] = None

    def values(self, ys):
        return self._fn(ys)

    def row_range(self, lo, hi):
        """(c, c) on every row [lo, hi] for a y-free formula of value c;
        NaN, which leaves the rows to sampling, for any other formula."""
        c = math.nan if self.constant is None else self.constant
        return np.full(np.shape(lo), c), np.full(np.shape(lo), c)

    def __repr__(self):
        return f"Expression({self.source!r})"


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _apply(fn, a, b=None):
    """The node fn(a) or fn(a, b).  A node is a float, the folded value of
    a y-free subformula, or a function of y.  y-free operands are folded
    once; otherwise a y-free operand meets the array as a scalar."""
    if b is None:
        return _fold(fn, a) if isinstance(a, float) else lambda y: fn(a(y))
    if isinstance(a, float):
        return _fold(fn, a, b) if isinstance(b, float) else lambda y: fn(a, b(y))
    if isinstance(b, float):
        return lambda y: fn(a(y), b)
    return lambda y: fn(a(y), b(y))


def _fold(fn, *values):
    """fn on one-element arrays of the values, which calls the ufunc a call
    would, with floating-point warnings off."""
    with np.errstate(all="ignore"):
        return float(fn(*(np.array([v]) for v in values))[0])


def _materialized(node):
    """An operand of ``^`` at full size: a y-free one as a full array."""
    if isinstance(node, float):
        return lambda y: np.full_like(y, node)
    return node


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
                node = _apply(_BINARY[val], node, self.term())
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = _apply(_BINARY[val], node, self.factor())
            else:
                return node

    def factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return _apply(operator.neg, self.factor())
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            a, b = _materialized(base), _materialized(self.factor())
            return lambda y: np.power(a(y), b(y))
        return base

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return val
        if kind == "name":
            if val == "y":
                return lambda y: y
            if val in _CONSTS:
                return _CONSTS[val]
            if val in _FUNCS:
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return _apply(_FUNCS[val], inner)
            raise ExprSyntaxError(f"unknown name {val!r}", pos)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExprSyntaxError("expected a value", pos)


def parse_expression(text: str) -> Expression:
    """Compile ``text`` into an :class:`Expression` over the variable y."""
    node = _Parser(text).parse()
    if isinstance(node, float):
        return Expression(text, lambda y: np.full_like(y, node), constant=node)
    return Expression(text, node)
