import math
import pickle

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_batched_evaluation import render, trees

from koenigslab.battery import full_battery
from koenigslab.expr import EvaluatorError, Expression, ExprSyntaxError, parse_expression


def test_basic_arithmetic():
    e = parse_expression("2*y + 1")
    assert e(3.0) == 7.0
    assert e(-1.0) == -1.0


def test_precedence_and_power():
    assert parse_expression("2 + 3 * 4")(0.0) == 14.0
    assert parse_expression("2 * 3 ^ 2")(0.0) == 18.0
    # right associative power
    assert parse_expression("2 ^ 3 ^ 2")(0.0) == 512.0
    assert parse_expression("2 ** 3")(0.0) == 8.0


def test_unary_minus():
    assert parse_expression("-y")(2.0) == -2.0
    assert parse_expression("--y")(2.0) == 2.0
    assert parse_expression("3 - -y")(1.0) == 4.0
    # unary minus binds looser than ^, as in Python: -a^b = -(a^b)
    assert parse_expression("exp(-y^2)")(1.0) == math.exp(-1.0)
    assert parse_expression("-y**2")(3.0) == -9.0
    assert parse_expression("-2^2")(0.0) == -4.0
    assert parse_expression("2^-1")(0.0) == 0.5


def test_functions_and_constants():
    assert parse_expression("sin(pi/2)")(0.0) == pytest.approx(1.0)
    assert parse_expression("log(e)")(0.0) == pytest.approx(1.0)
    assert parse_expression("abs(y)")(-3.5) == 3.5
    assert parse_expression("sqrt(y)")(9.0) == 3.0
    assert parse_expression("cos(0)")(123.0) == 1.0


def test_log_domain_formula():
    e = parse_expression("-(1/2)*log(abs(y)+1)")
    assert e(0.0) == 0.0
    assert e(math.e - 1) == pytest.approx(-0.5)


def test_vectorized():
    e = parse_expression("y^2 - 1")
    ys = np.array([0.0, 1.0, 2.0])
    assert np.allclose(e(ys), [-1.0, 0.0, 3.0])


def test_constant_expression_broadcasts():
    e = parse_expression("0")
    out = e(np.zeros(5))
    assert out.shape == (5,)


def test_syntax_errors():
    with pytest.raises(ExprSyntaxError):
        parse_expression("2 +")
    with pytest.raises(ExprSyntaxError):
        parse_expression("foo(y)")
    with pytest.raises(ExprSyntaxError):
        parse_expression("(y")
    with pytest.raises(ExprSyntaxError):
        parse_expression("y @ 2")


def test_nonfinite_raises():
    e = parse_expression("1/y")
    with pytest.raises(EvaluatorError):
        e(0.0)
    assert e(2.0) == 0.5


def test_check_false_passes_nonfinite_through():
    e = parse_expression("log(y)")
    out = e(np.array([0.0, 1.0]), check=False)
    assert out[0] == -math.inf and out[1] == 0.0


@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_polynomial_matches_python(y):
    e = parse_expression("3*y^2 - 2*y + 1")
    assert e(y) == pytest.approx(3 * y**2 - 2 * y + 1, rel=1e-12, abs=1e-9)


@given(
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=1, max_value=5),
)
def test_rationals_round_trip(a, b, c):
    e = parse_expression(f"({a} + {b}*y) / {c}")
    y = 0.625
    assert e(y) == pytest.approx((a + b * y) / c)


# -- constant folding -------------------------------------------------------------


@pytest.mark.parametrize("text", ["log(0) + y", "y * (1/0)", "sqrt(-1) * y", "exp(1000) - y"])
def test_a_non_finite_y_free_subformula_folds_without_a_warning(text):
    # RuntimeWarning is an error under pytest: the fold runs with warnings off
    e = parse_expression(text)
    assert e.source == text and e.constant is None and repr(e) == f"Expression({text!r})"


@pytest.mark.parametrize("text", ["log(0) + y", "y * (1/0)"])
def test_a_folded_non_finite_subformula_still_fails_the_check_at_every_height(text):
    e = parse_expression(text)
    ys = np.array([-1.0, 0.0, 2.0])
    with pytest.raises(EvaluatorError) as err:
        e(ys)
    assert "y=array([-1.,  0.,  2.])" in str(err.value)
    for y in ys:
        with pytest.raises(EvaluatorError):
            e(y)
    assert not np.isfinite(e(ys, check=False)).any()


@pytest.mark.parametrize("text, c", [
    ("0", 0.0), ("-2.5", -2.5), ("2*pi - sin(pi/2)", 2 * math.pi - 1.0), ("-(1/0)", -math.inf),
])
def test_a_y_free_formula_bounds_its_rows_in_closed_form(text, c):
    e = parse_expression(text)
    assert e.constant == c
    sup, inf = e.row_range(np.array([0.0, 1.0]), np.array([0.5, 3.0]))
    assert sup.tolist() == inf.tolist() == [c, c]
    assert e(np.zeros(3), check=False).tolist() == [c] * 3


@pytest.mark.parametrize("text", ["y", "0*y", "2^3", "sin(pi/2) + y"])
def test_a_formula_in_y_or_with_a_power_leaves_its_rows_to_sampling(text):
    e = parse_expression(text)
    assert e.constant is None
    sup, inf = e.row_range(np.array([0.0, 1.0]), np.array([0.5, 3.0]))
    assert np.isnan(sup).all() and np.isnan(inf).all()


def test_a_power_keeps_both_operands_at_full_size():
    # numpy's power takes a sqrt shortcut for a scalar exponent of 0.5; a
    # full-size exponent gives the bits pow gives on every element
    ys = np.linspace(0.1, 10.0, 1001)
    want = np.power(ys, np.full_like(ys, 0.5))
    for text in ("y^0.5", "y^(1/2)", "y**(2*0.25)"):
        assert parse_expression(text)(ys).tobytes() == want.tobytes()


# -- the tree ---------------------------------------------------------------------

BATTERY_FORMULAS = sorted({
    v.source
    for entry in full_battery()
    for piece in entry.psi.pieces
    for v in vars(piece).values()
    if isinstance(v, Expression)
})
# the README's formulas, the logdomain demo's and the open log(|y(y - 1/2)|) case
README_FORMULAS = ["0", "-y^2", "2^-1", "-(1/2)*log(abs(y)+1)", "log(abs(y*(y-0.5)))"]
FORMULAS = list(dict.fromkeys(
    BATTERY_FORMULAS + README_FORMULAS + ["(y+10)^0.5", "exp(-y^2) + sin(pi*y)/e"]
))


def test_the_battery_formulas_are_collected():
    assert "-(1/2)*log(abs(y)+1)" in BATTERY_FORMULAS
    assert "-(1-cos(1/y))/abs(y)" in BATTERY_FORMULAS


@pytest.mark.parametrize("text", FORMULAS)
def test_two_parses_of_one_text_are_equal(text):
    a, b = parse_expression(text), parse_expression(text)
    assert a == b and hash(a) == hash(b)


def test_expressions_are_equal_by_text():
    assert parse_expression("log(-1) + y") == parse_expression("log(-1) + y")  # a folded NaN
    assert parse_expression("y+1") != parse_expression("y + 1")


@pytest.mark.parametrize("text", FORMULAS + ["log(0) + y", "y * (1/0)"])
def test_an_expression_survives_a_pickle_round_trip(text):
    e = parse_expression(text)
    back = pickle.loads(pickle.dumps(e))
    assert back == e and repr(back.constant) == repr(e.constant)
    ys = np.linspace(-10.0, 10.0, 10**4)
    assert back(ys, check=False).tobytes() == e(ys, check=False).tobytes()


def tree_nodes(tree):
    """Every tuple node of a parsed tree, outermost first."""
    if type(tree) is tuple:
        yield tree
        for operand in tree[1:]:
            yield from tree_nodes(operand)


def power_operands(tree):
    """(base, exponent) of every ``pow`` node of a drawn formula."""
    if tree[0] == "pow":
        yield tree[1], tree[2]
    for child in tree[1:]:
        if isinstance(child, tuple):
            yield from power_operands(child)


@settings(max_examples=300, deadline=None)
@given(trees)
def test_only_y_free_nodes_off_a_power_are_folded(tree):
    parsed = parse_expression(render(tree)).tree
    nodes = list(tree_nodes(parsed))
    for fn, *operands in nodes:
        assert fn is np.power or not all(type(a) is float for a in operands), nodes
    # every ^ node keeps its operands as parsed; repr tells NaN and -0.0 apart
    powers = [repr(node) for node in nodes if node[0] is np.power]
    want = [
        repr((np.power, parse_expression(render(a)).tree, parse_expression(render(b)).tree))
        for a, b in power_operands(tree)
    ]
    assert sorted(powers) == sorted(want)


# -- a 200-bit reference interpreter over the same tree --------------------------------

MP_FUNCS = {
    np.add: mpmath.fadd, np.subtract: mpmath.fsub, np.multiply: mpmath.fmul,
    np.divide: mpmath.fdiv, np.negative: mpmath.fneg, np.power: mpmath.power,
    np.log: mpmath.log, np.exp: mpmath.exp, np.sin: mpmath.sin, np.cos: mpmath.cos,
    np.abs: mpmath.fabs, np.sqrt: mpmath.sqrt,
}


def mp_walk(node, y):
    """The tree's value at the mpf height y, in the working precision."""
    if type(node) is tuple:
        return MP_FUNCS[node[0]](*(mp_walk(a, y) for a in node[1:]))
    return y if type(node) is str else mpmath.mpf(node)


@pytest.mark.parametrize("text", FORMULAS)
def test_the_float_interpreter_agrees_with_a_200_bit_walk_of_the_tree(text):
    # quarter-odd heights: at least 1/4 from every singularity (0, 1/2, 1, 2)
    ys = np.linspace(-9.75, 9.75, 40)
    got = parse_expression(text)(ys)
    tree = parse_expression(text).tree
    with mpmath.workprec(200):
        ref = [mp_walk(tree, mpmath.mpf(y)) for y in ys.tolist()]
        for y, f, r in zip(ys.tolist(), got.tolist(), ref):
            assert abs(f - r) <= 1e-13 * (1 + abs(r)), (y, f, r)
