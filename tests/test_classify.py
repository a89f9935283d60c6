import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from koenigslab import TriState
from koenigslab.battery import battery_entry, full_battery
from koenigslab.classify import affine_minorant, classify, slope_brackets
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
