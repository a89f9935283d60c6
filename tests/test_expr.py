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
