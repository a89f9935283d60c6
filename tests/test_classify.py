import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from koenigslab import TailEnvelope, TriState
from koenigslab.battery import battery_entry, full_battery
from koenigslab.classify import affine_minorant, classify, lambda_infty, slope_brackets
from koenigslab.completeness import decide
from koenigslab.domain import NEG_INF, POS_INF, FiniteAnalytic, LimitData, PiecewiseDefiningFunction
from koenigslab.expr import parse_expression
from koenigslab.specio import psi_from_dict


def test_kind_from_interval_shape():
    assert classify(battery_entry("strip").psi).kind == "hyperbolic"
    assert classify(battery_entry("quadrant").psi).kind == "parabolic_positive_step"
    assert classify(battery_entry("half_plane").psi).kind == "parabolic_zero_step"
    assert classify(battery_entry("eta1").psi).kind == "parabolic_zero_step"


def test_strip_width():
    cls = classify(battery_entry("strip").psi)
    assert cls.strip_width == pytest.approx(math.pi)


def test_full_battery_kinds():
    for e in full_battery():
        assert classify(e.psi).kind == e.kind, e.name


def test_minorant_flat():
    am = affine_minorant(battery_entry("half_plane").psi)
    assert am.status is TriState.YES
    assert am.m == 0.0 and am.c <= 0.0


def test_minorant_vee():
    entry = battery_entry("vee")
    am = affine_minorant(entry.psi)
    assert am.status is TriState.YES
    # certified: psi(y) >= m y + c at many random heights
    rng = np.random.default_rng(12345)
    ys = rng.uniform(-50, 50, 10_000)
    vals = np.abs(ys)
    assert np.all(vals >= am.m * ys + am.c)


def test_minorant_sampled_certificate_half_plane():
    am = affine_minorant(battery_entry("half_plane").psi)
    rng = np.random.default_rng(7)
    ys = rng.uniform(-100, 100, 10_000)
    assert np.all(0.0 >= am.m * ys + am.c)


def test_minorant_none_for_log_tails():
    for name in ("log_demo", "log_minorant", "eta1"):
        am = affine_minorant(battery_entry(name).psi)
        assert am.status is TriState.NO, name


def test_minorant_requires_whole_line():
    with pytest.raises(ValueError):
        affine_minorant(battery_entry("strip").psi)


def test_classification_invariant_under_horizontal_translation():
    psi = battery_entry("eta1").psi
    assert classify(psi.translated(dx=3.0)).kind == classify(psi).kind


def test_container_shifts_with_vertical_translation():
    psi = battery_entry("strip").psi
    cls0 = classify(psi)
    cls1 = classify(psi.translated(dy=2.0))
    assert cls1.container["lo"] == pytest.approx(cls0.container["lo"] + 2.0)
    assert cls1.strip_width == pytest.approx(cls0.strip_width)


def test_minorant_none_when_upper_envelopes_leave_no_slope():
    # psi <= 2y on the lower tail needs m >= 2, psi <= y on the upper tail
    # needs m <= 1: no affine minorant exists
    psi = psi_from_dict({
        "interval": ["-inf", "inf"],
        "pieces": [
            {"kind": "finite_analytic", "span": ["-inf", 0.0], "expr": "2*y",
             "limits": {"right": {"liminf": 0.0, "limsup": 0.0}},
             "tail_upper": {"kind": "affine", "m": 2.0, "c": 0.0}},
            {"kind": "finite_analytic", "span": [0.0, "inf"], "expr": "y",
             "limits": {"left": {"liminf": 0.0, "limsup": 0.0}},
             "tail_upper": {"kind": "affine", "m": 1.0, "c": 0.0}},
        ],
    })
    am = affine_minorant(psi)
    assert am.status is TriState.NO
    # the envelopes grow on the upper tail, so the reason must not say decay
    assert am.reason == "declared upper envelopes exclude every slope"
    # each tail alone leaves slopes; together none survive
    assert slope_brackets(psi, ("upper",)) == (None, (-math.inf, 1.0))
    assert slope_brackets(psi, ("lower",)) == (None, (2.0, math.inf))
    assert slope_brackets(psi, ("upper", "lower")) == (None, None)


def test_slope_brackets_pin_the_half_plane_to_slope_zero():
    psi = battery_entry("half_plane").psi  # psi = 0 with const envelopes
    assert slope_brackets(psi, ("upper", "lower")) == ((0.0, 0.0), (0.0, 0.0))
    assert slope_brackets(psi, ("upper",)) == ((-math.inf, 0.0), (-math.inf, 0.0))
    # no declared envelope: nothing certified feasible, nothing excluded
    strip = battery_entry("strip").psi
    assert slope_brackets(strip, ("upper", "lower")) == (None, (-math.inf, math.inf))


def _bump_spec(h, cut=None):
    """psi = -1.5 (u + |u|), u = 1 - ((|y| - h)/4)^2: -3 at |y| = h and 0
    beyond h + 4.  Lower envelopes 0 hold on tail pieces cut at +-cut, or,
    with no cut, on one whole-line piece where |y| >= h + 4."""
    u = f"(1-((abs(y)-{h!r})/4)^2)"
    expr = f"-1.5*({u}+abs({u}))"
    env = {"kind": "const", "c": 0.0}
    if cut is None:
        env["valid_from"] = h + 4.0
        pieces = [{"kind": "finite_analytic", "span": ["-inf", "inf"], "expr": expr,
                   "tail_lower": env}]
    else:
        ends = ["-inf", -cut, cut, "inf"]
        pieces = [{"kind": "finite_analytic", "span": [lo, hi], "expr": expr}
                  for lo, hi in zip(ends, ends[1:])]
        pieces[0]["tail_lower"] = pieces[-1]["tail_lower"] = env
    return {"interval": ["-inf", "inf"], "pieces": pieces}


@settings(max_examples=30, deadline=None)
@given(h=st.floats(0.0, 300.0), gap=st.floats(4.0, 200.0), whole=st.booleans())
@example(h=64.0, gap=4.0, whole=False)
def test_minorant_sees_a_dip_before_the_envelopes_hold(h, gap, whole):
    # the intercept rows must reach every height where no envelope holds:
    # once they stopped at 64 and certified c = -1e-9 for a dip at 80.
    # The example's dip falls between two row samples: rows of width 17/32
    # missed it by 2e-6 before the lowest rows were resampled finer
    psi = psi_from_dict(_bump_spec(h, None if whole else h + gap))
    am = affine_minorant(psi)
    assert am.status is TriState.YES and am.m == 0.0
    assert am.c <= -3.0 + 1e-3
    ys = np.geomspace(64.0, 1e12, 400)
    for y in np.concatenate([ys, -ys]):
        assert am.c <= psi.value(y), y


@pytest.mark.parametrize("a", [0.5, 2.0])
def test_minorant_certified_past_a_drifting_tail(a):
    # psi = |y| - 1 below 0, log(3)^a - log(y+3)^a - 1 above: the upper
    # envelope drifts, so slope 0 is out and m = -1 must be certified in
    # closed form on both tails
    psi = psi_from_dict({
        "interval": ["-inf", "inf"],
        "pieces": [
            {"kind": "finite_analytic", "span": ["-inf", 0.0], "expr": "abs(y) - 1",
             "tail_lower": {"kind": "affine", "m": -1.0, "c": -1.0}},
            {"kind": "finite_analytic", "span": [0.0, "inf"],
             "expr": f"log(3)^{a} - log(y+3)^{a} - 1",
             "tail_lower": {"kind": "log_pow", "C": 1.0, "a": a,
                            "D": math.log(3.0) ** a - 1.0}},
        ],
    })
    am = affine_minorant(psi)
    assert am.status is TriState.YES and am.m == -1.0
    assert -1.5 - 1e-6 <= am.c <= -1.0  # a row of width 1/2 costs |m|/2
    ys = np.concatenate([np.linspace(-64.0, 64.0, 2001), np.geomspace(64.0, 1e12, 400)])
    for y in np.concatenate([ys, -ys]):
        assert am.c <= psi.value(y) + y, y


def two_piece_psi(s, t, below, above):
    """psi = s y on (-inf, 0) and t y on (0, inf), with limit 0 at 0; each
    of ``below`` and ``above`` is that tail's (tail_lower, tail_upper)."""
    pieces = tuple(
        FiniteAnalytic(
            span=span, evaluator=parse_expression(f"{slope!r}*y"),
            limits_left=ends[0], limits_right=ends[1],
            tail_lower=envs[0], tail_upper=envs[1],
        )
        for span, slope, envs, ends in (
            ((NEG_INF, 0.0), s, below, (None, LimitData(0.0, 0.0))),
            ((0.0, POS_INF), t, above, (LimitData(0.0, 0.0), None)),
        )
    )
    return PiecewiseDefiningFunction(NEG_INF, POS_INF, pieces)


def assert_minorant_holds(psi, am, n=2001, far=400):
    """c <= psi(y) - m y on linspace(-64, 64, n) and +-geomspace(64, 1e12, far)."""
    ys = np.concatenate([np.linspace(-64.0, 64.0, n), np.geomspace(64.0, 1e12, far)])
    for y in np.concatenate([ys, -ys[n:]]):
        assert am.c <= psi.value(y) - am.m * y, y


def test_minorant_takes_the_midpoint_between_two_drifting_slopes():
    # psi = y below 0 and 2y above, with lower envelopes of slopes 1 and 2
    # that drift: every slope strictly between them is feasible, and
    # neither 0 nor either envelope's own slope is
    psi = two_piece_psi(
        1.0, 2.0,
        (TailEnvelope(m=1.0, C=1.0, a=1.0), None),
        (TailEnvelope(m=2.0, C=1.0, a=1.0), None),
    )
    assert lambda_infty(psi).left_directions is TriState.YES
    am = affine_minorant(psi)
    assert am.status is TriState.YES and am.m == 1.5
    assert_minorant_holds(psi, am)
    out = decide(psi, p=1.0)
    assert out["weak_star_complete"] == "yes"
    assert out["route"] == "whole-line interval: contained in a half-plane and psi regularized"


SLOPES = st.integers(-8, 8).map(lambda k: k / 4)


@st.composite
def tail_declarations(draw, slope):
    """A true lower envelope of slope ``slope`` on psi = slope*y, drifting
    or not, and maybe the true upper envelope psi itself."""
    drift = draw(st.sampled_from([(0.0, 0.0), (1.0, 0.5), (0.5, 1.0), (1.0, 2.0)]))
    lower = TailEnvelope(m=slope, C=drift[0], a=drift[1])
    return lower, TailEnvelope(m=slope) if draw(st.booleans()) else None


@settings(max_examples=40, deadline=None)
@given(data=st.data(), s=SLOPES, t=SLOPES)
def test_minorant_agrees_with_the_left_direction_decision(data, s, t):
    psi = two_piece_psi(s, t, data.draw(tail_declarations(s)), data.draw(tail_declarations(t)))
    am = affine_minorant(psi)
    if am.reason.startswith("intercept certification failed"):
        return
    assert am.status is lambda_infty(psi).left_directions
    if am.status is TriState.YES:
        assert_minorant_holds(psi, am, n=201, far=50)
