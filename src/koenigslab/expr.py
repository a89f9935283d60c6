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
operands at full size: given a scalar exponent of 0.5, 2 or -1 numpy's
``power`` takes a sqrt, square or reciprocal shortcut whose last bit can
differ from ``pow``.  A scalar call passes such an exponent as a scalar,
as it always has, so only a formula without ``^`` promises the bits of
a scalar call from an array call (``Expression.array_exact``).
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
    every other evaluator subclass.  ``__call__(y, check=True)`` takes a
    height or an array of heights: checked, it raises EvaluatorError where
    a value is not finite; unchecked, it never raises, and gives NaN where
    it is undefined.  ``row_range(lo, hi)`` gives (sup, inf) on each row
    [lo, hi] of two 1-D arrays, NaN on a row left to sampling (every row,
    here).  ``array_exact``: an array call gives the bits of scalar calls.
    """

    array_exact = False

    def __call__(self, y, check=True):  # pragma: no cover - abstract
        raise NotImplementedError

    def row_range(self, lo, hi):
        return np.full(np.shape(lo), math.nan), np.full(np.shape(lo), math.nan)

    def _checked(self, y, out):
        """out, the values at y, unless one is not finite."""
        bad = ~np.isfinite(out)
        if np.any(bad):
            where = np.asarray(y, dtype=float)[bad] if np.ndim(y) else y
            raise EvaluatorError(f"{self!r} is non-finite at y={where!r}")
        return out


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
    ``array_exact`` says that an array call gives every height the bits
    of a scalar call there; a formula with ``^`` may differ in the last
    bit (see the module docstring).
    """

    source: str
    _fn: Callable
    constant: Optional[float] = None
    array_exact: bool = True

    def __call__(self, y, check=True):
        with np.errstate(all="ignore"):
            out = self._fn(np.asarray(y, dtype=float))
        if check:
            self._checked(y, out)
        return float(out) if np.ndim(y) == 0 else out

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
    """An operand of ``^`` at full size: a y-free one as a full array on an
    array of heights, as a scalar on one height."""
    if isinstance(node, float):
        return lambda y: np.full_like(y, node) if np.ndim(y) else node
    return node


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.powers = False  # does the formula hold a ``^``?

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
            self.powers = True
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
    parser = _Parser(text)
    node = parser.parse()
    if isinstance(node, float):
        return Expression(
            text, lambda y: np.full(np.shape(y), node) if np.ndim(y) else node, constant=node
        )
    return Expression(text, node, array_exact=not parser.powers)
