import math

import numpy as np
import pytest

from koenigslab import TriState
from koenigslab.battery import battery_entry, full_battery
from koenigslab.classify import affine_minorant, classify, slope_brackets


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
    from koenigslab.specio import psi_from_dict

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

