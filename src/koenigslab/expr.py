"""Mini-grammar for defining-function formulas in one variable ``y``.

Grammar (precedence low to high)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | atom ('^' factor)?   # right associative
    atom   := NUMBER | 'y' | 'pi' | 'e' | NAME '(' expr ')' | '(' expr ')'

Supported functions: log, exp, sin, cos, abs, sqrt.  ``**`` is accepted as
an alias for ``^``.  As in Python, ``-a^b`` is ``-(a^b)`` and ``a^-b`` is
``a^(-b)``.  Parsed expressions evaluate on scalars or numpy arrays;
non-finite results raise :class:`EvaluatorError` unless the caller opts
out.

A formula's one representation is a frozen tree.  A node is a float (a
folded y-free subformula), the variable leaf ``"y"``, or a tuple
``(ufunc, *operands)`` over ``np.add``, ``np.subtract``, ``np.multiply``,
``np.divide``, ``np.negative``, ``np.power`` and the six functions.  The
parser folds each y-free node once, through its ufunc on one-element
arrays with floating-point warnings off (``log(0)`` folds to -inf and a
call still reports it); ``^`` is never folded.  One interpreter,
``_walk``, evaluates the tree.  A float operand meets the array of
heights as a scalar, which changes no bit, except under ``^``, which gets
both operands at full size, so numpy's ``power`` never takes the sqrt,
square or reciprocal shortcut of a scalar exponent.  Every call, of one
height or many, evaluates one flat array (``Evaluator.__call__``), so a
height gets the same bits alone and in any array.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

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

_FUNCS = {
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
    """A parsed formula over ``y``: its text and its tree (module
    docstring).  Immutable, safe to share and picklable; two
    ``Expression``s are equal when their texts are, the tree being a
    function of the text (a folded NaN would make two parses of one text
    unequal by tree).
    """

    source: str
    tree: object = field(compare=False)

    @property
    def constant(self):
        """The value of a y-free formula, None for any other."""
        return self.tree if type(self.tree) is float else None

    def values(self, ys):
        return _walk(self.tree, ys)

    def row_range(self, lo, hi):
        """(c, c) on every row [lo, hi] for a y-free formula of value c;
        NaN, which leaves the rows to sampling, for any other formula."""
        c = math.nan if self.constant is None else self.constant
        return np.full(np.shape(lo), c), np.full(np.shape(lo), c)

    def __repr__(self):
        return f"Expression({self.source!r})"


_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def _node(fn, *operands):
    """The node fn(*operands), folded to a float when every operand is one:
    fn on one-element arrays, the ufunc a call would apply, with
    floating-point warnings off."""
    if all(type(a) is float for a in operands):
        with np.errstate(all="ignore"):
            return float(fn(*(np.array([a]) for a in operands))[0])
    return (fn, *operands)


def _walk(node, ys):
    """The float interpreter: the values of ``node`` at the flat array ys.
    A float operand of ``^`` is a full array; of any other node, a scalar."""
    if type(node) is not tuple:
        return ys if type(node) is str else np.full_like(ys, node)
    if len(node) == 2:  # a function or negation; its operand is never a float
        return node[0](_walk(node[1], ys))
    fn, a, b = node
    if fn is np.power:
        return fn(_walk(a, ys), _walk(b, ys))
    return fn(a if type(a) is float else _walk(a, ys), b if type(b) is float else _walk(b, ys))


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

    def chain(self, ops, operand):
        """operand (op operand)* for the binary ops in ``ops``, left to right."""
        node = operand()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            node = _node(_BINARY[self.next()[1]], node, operand())
        return node

    def expr(self):
        return self.chain("+-", self.term)

    def term(self):
        return self.chain("*/", self.factor)

    def factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return _node(np.negative, self.factor())
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            return (np.power, base, self.factor())
        return base

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return val
        if kind == "name":
            if val == "y":
                return "y"
            if val in _CONSTS:
                return _CONSTS[val]
            if val in _FUNCS:
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return _node(_FUNCS[val], inner)
            raise ExprSyntaxError(f"unknown name {val!r}", pos)
        if kind == "op" and val == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExprSyntaxError("expected a value", pos)


def parse_expression(text: str) -> Expression:
    """Parse ``text`` into an :class:`Expression` over the variable y."""
    return Expression(text, _Parser(text).parse())
