"""Differential tests of batched expression evaluation.

Formulas are drawn from the whole grammar of ``expr``: every operator,
``^``, ``pi``, ``e``, every function and y-free subformulas.  The folded
compile must give the bits of an unfolded reference compile, kept here,
and a dyadic ladder read in one array call must give the ``LimitData``
and the kept samples of a height-by-height reference loop, also kept
here.
"""

import math
import operator

import numpy as np
from hypothesis import example, given, settings, strategies as st

from koenigslab.domain import (
    _DIVERGE_RATIO,
    _STAB_TOL,
    LimitData,
    NEG_INF,
    POS_INF,
    _ladder_values,
    _Translated,
    dyadic_limit_estimate,
)
from koenigslab.expr import EvaluatorError, parse_expression

FUNCS = ("log", "exp", "sin", "cos", "abs", "sqrt")
BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
NAMES = {"pi": math.pi, "e": math.e}

leaves = st.one_of(
    st.just(("y",)),
    st.sampled_from(("0", "0.5", "1", "2", "2.5", "3", "10")).map(lambda s: ("num", s)),
    st.sampled_from(tuple(NAMES)).map(lambda s: ("num", s)),
)
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.tuples(st.just("neg"), children),
        st.tuples(st.just("fn"), st.sampled_from(FUNCS), children),
        st.tuples(st.just("bin"), st.sampled_from(tuple(BINARY)), children, children),
        st.tuples(st.just("pow"), children, children),
    ),
    max_leaves=8,
)
heights = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def render(tree):
    kind = tree[0]
    if kind == "y":
        return "y"
    if kind == "num":
        return tree[1]
    if kind == "neg":
        return f"(-{render(tree[1])})"
    if kind == "fn":
        return f"{tree[1]}({render(tree[2])})"
    if kind == "bin":
        return f"({render(tree[2])} {tree[1]} {render(tree[3])})"
    return f"(({render(tree[1])})^({render(tree[2])}))"


def reference(tree):
    """The compile without folding: every literal becomes a full array on
    each call."""
    kind = tree[0]
    if kind == "y":
        return lambda y: y
    if kind == "num":
        c = NAMES.get(tree[1]) or float(tree[1])
        return lambda y: np.full_like(y, c, dtype=float)
    if kind == "neg":
        a = reference(tree[1])
        return lambda y: -a(y)
    if kind == "fn":
        f, a = getattr(np, tree[1]), reference(tree[2])
        return lambda y: f(a(y))
    if kind == "bin":
        op, a, b = BINARY[tree[1]], reference(tree[2]), reference(tree[3])
        return lambda y: op(a(y), b(y))
    a, b = reference(tree[1]), reference(tree[2])
    return lambda y: np.power(a(y), b(y))


def reference_call(fn, y):
    y = np.asarray(y, dtype=float)
    with np.errstate(all="ignore"):
        return fn(y)


def assert_same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    nan = np.isnan(a)
    assert (nan == np.isnan(b)).all(), (a, b)
    assert (a[~nan].view(np.int64) == b[~nan].view(np.int64)).all(), (a, b)


# numpy's power takes a sqrt for a scalar exponent of 0.5, which rounds
# (-0.989 + 2)^0.5 to another last bit than a full exponent array does
SQRT_BY_POWER = (("pow", ("bin", "+", ("y",), ("num", "2")), ("num", "0.5")), [-0.989])


@settings(max_examples=300, deadline=None)
@given(trees, st.lists(heights, min_size=1, max_size=8))
@example(*SQRT_BY_POWER)
def test_folding_keeps_the_bits_of_the_unfolded_compile(tree, ys):
    e, ref = parse_expression(render(tree)), reference(tree)
    ys = np.array(ys)
    assert_same_bits(e(ys, check=False), reference_call(ref, ys))
    for y in ys.tolist():
        # a single height is a one-element array
        assert_same_bits(e(y, check=False), reference_call(ref, [y])[0])


@settings(max_examples=300, deadline=None)
@given(trees, st.lists(heights, min_size=1, max_size=8))
@example(*SQRT_BY_POWER)
def test_array_calls_keep_the_bits_of_scalar_calls(tree, ys):
    # what lets a dyadic ladder be read in one array call, ``^`` included
    e = parse_expression(render(tree))
    ys = np.array(ys)
    assert_same_bits(e(ys, check=False), [e(y, check=False) for y in ys.tolist()])


def test_a_power_gives_a_height_the_same_bits_alone_and_in_an_array():
    # 101 of these heights once got a different last bit alone
    e = parse_expression("(y+2)^0.5")
    ys = np.linspace(-0.99, 0.99, 1981)
    assert_same_bits(e(ys), [e(y) for y in ys.tolist()])


def reference_ladder(f, y0, side, delta):
    """The height-by-height ladder: (LimitData, kept samples)."""
    sgn = -1.0 if side == "left" else 1.0
    vals = []
    for k in range(1, 41):
        t = y0 + sgn * delta * 2.0 ** (-k)
        try:
            v = float(f(t))
        except (EvaluatorError, ArithmeticError, ValueError):
            continue
        if math.isnan(v):
            continue
        vals.append(v)
    if len(vals) < 10:
        return LimitData.inconclusive_data(), vals
    tail = vals[-8:]
    scale = max(1.0, max(abs(v) for v in tail if math.isfinite(v)) if any(
        math.isfinite(v) for v in tail) else 1.0)
    if all(math.isfinite(v) for v in tail) and max(tail) - min(tail) < _STAB_TOL * scale:
        return LimitData(tail[-1], tail[-1], exact=False), vals
    diffs = [b - a for a, b in zip(vals[-12:-1], vals[-11:])]
    if len(diffs) >= 8 and all(d > 0 for d in diffs):
        ratios = [b / a for a, b in zip(diffs, diffs[1:]) if a > 0]
        if ratios and min(ratios) > _DIVERGE_RATIO:
            return LimitData(POS_INF, POS_INF, exact=False), vals
    if len(diffs) >= 8 and all(d < 0 for d in diffs):
        ratios = [b / a for a, b in zip(diffs, diffs[1:]) if a < 0]
        if ratios and min(ratios) > _DIVERGE_RATIO:
            return LimitData(NEG_INF, NEG_INF, exact=False), vals
    return LimitData.inconclusive_data(), vals


def check_ladder(f, y0, side, delta):
    want, kept = reference_ladder(f, y0, side, delta)
    # repr tells -0.0 from 0.0 and names every flag
    assert repr(dyadic_limit_estimate(f, y0, side, delta)) == repr(want)
    # the samples kept, read in one array call, are the reference loop's
    sgn = -1.0 if side == "left" else 1.0
    assert repr(_ladder_values(f, y0 + sgn * delta * 2.0 ** -np.arange(1, 41))) == repr(kept)


shifts = st.lists(
    st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)), max_size=2
)


def translated(f, moves):
    for dx, dy in moves:
        f = _Translated(f, dx, dy)
    return f


@settings(max_examples=300, deadline=None)
@given(
    trees, heights, st.sampled_from(("left", "right")),
    st.sampled_from((1.0, 0.5, 0.25, 1e-3)), shifts,
)
def test_batched_ladder_matches_the_scalar_loop(tree, y0, side, delta, moves):
    check_ladder(translated(parse_expression(render(tree)), moves), y0, side, delta)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((
        "log(abs(y - {c}))", "1/(y - {c})", "-1/(y - {c})", "sqrt(y - {c})",
        "sin(1/(y - {c}))", "exp(1/(y - {c}))", "(y - {c})^0.5",
    )),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.sampled_from(("left", "right")),
    shifts,
)
def test_batched_ladder_at_heights_where_the_formula_is_not_finite(template, c, side, moves):
    # y0 = c: non-finite at y0, and for sqrt on a whole side of it
    f = translated(parse_expression(template.format(c=repr(c))), moves)
    y0 = c + sum(dy for _, dy in moves)
    check_ladder(f, y0, side, 1.0)
