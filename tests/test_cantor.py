import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from koenigslab.cantor import CantorSet


def ternary_digits_avoid_one(q: Fraction, depth: int = 60) -> bool:
    """Independent membership oracle: base-3 digit expansion of q in [0,1].

    q is in the ternary set iff some expansion avoids the digit 1.  Because
    cell endpoints have two expansions, we mirror the construction rule:
    accept digit 0 when q <= 1/3, digit 2 when q >= 2/3, reject otherwise.
    """
    for _ in range(depth):
        if q <= Fraction(1, 3):
            q = 3 * q
        elif q >= Fraction(2, 3):
            q = 3 * q - 2
        else:
            return False
    return True


@pytest.fixture
def ternary():
    return CantorSet(0.0, 1.0)


def test_known_members(ternary):
    for y in (0.0, 1.0, 0.25, 0.75):  # 1/4 = 0.020202..._3
        assert ternary.contains(y), y


def test_known_non_members(ternary):
    for y in (0.5, 0.2, 0.4, 0.99, -0.1, 1.1):
        assert not ternary.contains(y), y


@given(st.fractions(min_value=0, max_value=1, max_denominator=3**9))
def test_membership_matches_digit_oracle(q):
    c = CantorSet(0.0, 1.0)
    assert c.contains(float(q)) == ternary_digits_avoid_one(Fraction(float(q)))


def test_interval_queries(ternary):
    assert not ternary.intersects(0.4, 0.6)  # inside the middle gap
    assert ternary.intersects(0.3, 0.4)  # contains 1/3-endpoint
    assert ternary.intersects(0.0, 0.01)
    assert ternary.intersects(-1.0, 2.0)
    assert not ternary.intersects(1.5, 2.0)
    # gaps at depth 2: (1/9, 2/9) etc.
    assert not ternary.intersects(0.12, 0.21)


def test_interval_query_agrees_with_gap_enumeration(ternary):
    gaps = ternary.gaps(max_depth=6)
    for glo, ghi in gaps[:40]:
        pad = (ghi - glo) * 0.05
        assert not ternary.intersects(glo + pad, ghi - pad)


def test_sample_points_lie_in_gapless_cells(ternary):
    # every enumerated cell endpoint avoids all enumerated gaps
    pts = ternary.sample_points(5)
    for glo, ghi in ternary.gaps(5):
        for p in pts:
            assert not (glo < p < ghi)


def test_scaled_carrier():
    c = CantorSet(2.0, 4.0)
    assert c.contains(2.0) and c.contains(4.0)
    assert c.contains(2.5)  # maps to 0.25
    assert not c.contains(3.0)
    assert not c.intersects(2.8, 3.2)


def test_no_isolated_points_at_sampled_scale(ternary):
    # every sampled carrier point has carrier points within every dyadic window
    for p in (0.25, 0.75):
        for k in (4, 10, 20, 35):
            d = 2.0**-k
            assert ternary.intersects(p - d, p) or ternary.intersects(p, p + d)


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        CantorSet(1.0, 0.0)
    with pytest.raises(ValueError):
        CantorSet(0.0, 1.0, keep_fraction=0.6)



@pytest.mark.parametrize("kwargs, match", [
    ({"hi": math.inf}, "finite"),
    ({"hi": 1.0, "depth": -3}, "depth must be an integer >= 1"),
    ({"hi": 1.0, "depth": 2.7}, "depth must be an integer >= 1"),
])
def test_rejects_a_carrier_it_cannot_query(kwargs, match):
    # an infinite base overflowed and depth 2.7 failed at the first query;
    # depth -3 made every point of the hull a carrier point
    with pytest.raises(ValueError, match=match):
        CantorSet(0.0, **kwargs)
    with pytest.raises(ValueError, match=match):
        CantorSet.from_json({"base": [0.0, kwargs["hi"]], "depth": kwargs.get("depth", 60)})


def intersects_reference(c: CantorSet, a: float, b: float) -> bool:
    """Interval query by the cell recursion in exact Fractions, one interval
    at a time."""
    if b < a:
        return False
    f = c._frac()

    def rec(a, b, clo, chi, depth):
        if b < clo or a > chi:
            return False
        if a <= clo or chi <= b:
            return True
        if depth == 0:
            return True
        w = (chi - clo) * f
        return rec(a, b, clo, clo + w, depth - 1) or rec(a, b, chi - w, chi, depth - 1)

    return rec(Fraction(a), Fraction(b), Fraction(c.lo), Fraction(c.hi), c.depth)


def exact_cell_ends(c: CantorSet, depth: int):
    f = c._frac()
    cells = [(Fraction(c.lo), Fraction(c.hi))]
    ends = []
    for _ in range(depth):
        nxt = []
        for clo, chi in cells:
            w = (chi - clo) * f
            nxt += [(clo, clo + w), (chi - w, chi)]
        cells = nxt
        ends += [e for cell in cells for e in cell]
    return ends


@st.composite
def carriers_and_intervals(draw):
    lo = draw(st.floats(-4.0, 4.0))
    width = draw(st.floats(1e-3, 8.0))
    keep = draw(st.sampled_from([1.0 / 3.0, 0.25, 0.1, 0.45]) | st.floats(0.01, 0.49))
    c = CantorSet(lo, lo + width, keep, draw(st.integers(1, 60)))
    ends = exact_cell_ends(c, 4)
    # floats at and next to exact cell endpoints
    near_end = st.builds(
        lambda e, k: math.nextafter(float(e), k * math.inf) if k else float(e),
        st.sampled_from(ends), st.sampled_from([-1, 0, 1]),
    )
    anywhere = st.floats(c.lo - width, c.hi + width)
    point = near_end | anywhere
    interval = (
        st.tuples(point, point)  # reversed when b < a
        | point.map(lambda y: (y, y))  # zero width
        | st.tuples(point, st.floats(0.0, width / 100)).map(lambda t: (t[0], t[0] + t[1]))
        | st.tuples(st.floats(c.hi, c.hi + 10), st.floats(0.0, 1.0)).map(lambda t: (t[0], t[0] + t[1]))
    )
    return c, draw(st.lists(interval, min_size=1, max_size=40))


@settings(max_examples=150, deadline=None)
@given(carriers_and_intervals())
def test_intersects_many_equals_the_scalar_query(case):
    c, intervals = case
    a = np.array([lo for lo, _ in intervals])
    b = np.array([hi for _, hi in intervals])
    got = c.intersects_many(a, b)
    assert got.dtype == bool and got.shape == a.shape
    assert got.tolist() == [c.intersects(lo, hi) for lo, hi in intervals]
    assert got.tolist() == [intersects_reference(c, lo, hi) for lo, hi in intervals]
    for lo, hi in intervals:
        if lo == hi:
            assert c.contains(lo) == intersects_reference(c, lo, lo)


def test_intersects_many_at_exact_endpoints(ternary):
    # 1/3 is no double: the floats on either side of it bracket the endpoint
    below = 1.0 / 3.0
    above = math.nextafter(below, 1.0)
    assert Fraction(below) < Fraction(1, 3) < Fraction(above)
    lo = np.array([below, above, 0.4, 0.5, 0.7, 2.0, -1.0])
    hi = np.array([below, above, 0.6, 0.45, 0.7, 3.0, 0.0])
    got = ternary.intersects_many(lo, hi)
    assert got.tolist() == [False, False, False, False, False, False, True]
    assert got.tolist() == [intersects_reference(ternary, *ab) for ab in zip(lo, hi)]
    assert ternary.intersects_many([below], [above]).tolist() == [True]
    assert ternary.intersects_many(np.zeros((2, 3)), 0.5).shape == (2, 3)


def test_intersects_many_rejects_nan(ternary):
    with pytest.raises(ValueError):
        ternary.intersects_many([0.0, math.nan], [1.0, 1.0])
