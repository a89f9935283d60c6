import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from koenigslab.expr import EvaluatorError, ExprSyntaxError, parse_expression


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
