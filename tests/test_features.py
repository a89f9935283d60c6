import math

import pytest

from koenigslab import (
    FiniteAnalytic,
    LimitData,
    PiecewiseDefiningFunction,
    parse_expression,
)
from koenigslab.battery import battery_entry, full_battery
from koenigslab.features import (
    analyze,
    detect_cantor_combs,
    detect_contact_spikes,
    detect_super_repelling,
    detect_unbounded_discontinuities,
    dw_discontinuity,
)

NEG_INF = float("-inf")
POS_INF = float("inf")


def test_flat_domain_has_no_features():
    rep = analyze(battery_entry("strip").psi)
    assert not rep.super_repelling_heights
    assert not rep.unbounded_discontinuities
    assert not rep.spikes
    assert not rep.cantor_combs
    assert rep.dw_discontinuity == "none"
    assert not rep.correspondence_caveat


def test_gap_interval_is_a_bounded_component():
    rep = analyze(battery_entry("gap").psi)
    assert rep.bounded_gap_intervals == [(0.0, 1.0)]
    # gap endpoints do not qualify as one-sided full -inf limits: outside
    # the gap psi is 0
    assert rep.super_repelling_heights == []


def test_super_repelling_cusp():
    # psi = -1/|y| off 0 with psi(0) = 0: both one-sided limits are -inf
    src = "-1/abs(y)"
    left = FiniteAnalytic(
        span=(-1.0, 0.0), evaluator=parse_expression(src),
        limits_left=LimitData(-1.0, -1.0),
        limits_right=LimitData(NEG_INF, NEG_INF),
    )
    right = FiniteAnalytic(
        span=(0.0, 1.0), evaluator=parse_expression(src),
        limits_left=LimitData(NEG_INF, NEG_INF),
        limits_right=LimitData(-1.0, -1.0),
    )
    psi = PiecewiseDefiningFunction(
        -1.0, 1.0, (left, right), point_values={0.0: 0.0}
    )
    assert detect_super_repelling(psi) == [0.0]
    assert analyze(psi).unknown_flags == []
    # a full -inf limit is not an unbounded discontinuity (limsup not finite)
    assert detect_unbounded_discontinuities(psi) == []


def test_du_oscillation_is_left_sided():
    rep = analyze(battery_entry("du_oscillation").psi)
    assert rep.unbounded_discontinuities == [(0.0, "left")]
    assert rep.super_repelling_heights == []


def test_du_and_super_repelling_disjoint_per_side():
    for e in full_battery():
        rep = analyze(e.psi)
        du_sides = {(h, s) for h, s in rep.unbounded_discontinuities}
        for h in rep.super_repelling_heights:
            # a full limit -inf (limsup = -inf) contradicts a finite limsup
            assert (h, "left") not in du_sides or (h, "right") not in du_sides


def test_du_heights_carry_at_most_two_sides():
    for e in full_battery():
        rep = analyze(e.psi)
        per_height = {}
        for h, side in rep.unbounded_discontinuities:
            per_height.setdefault(h, set()).add(side)
        for sides in per_height.values():
            assert len(sides) <= 2


def test_no_feature_inside_gap_component():
    for e in full_battery():
        rep = analyze(e.psi)
        for lo, hi in rep.bounded_gap_intervals:
            for h in rep.super_repelling_heights:
                assert not (lo < h < hi)
            for h, _ in rep.unbounded_discontinuities:
                assert not (lo < h < hi)


def test_spike_detection_levels():
    rep = analyze(battery_entry("spike").psi)
    assert len(rep.spikes) == 1
    c0, q = rep.spikes[0]
    assert c0 == 0.0 and 0.0 < q < 1.0


def test_comb_detection_and_oscillation_rejection():
    combs = detect_cantor_combs(battery_entry("comb").psi)
    assert len(combs) == 1
    span, q, carrier = combs[0]
    assert span == (0.0, 1.0) and 0.0 < q < 1.0
    assert detect_cantor_combs(battery_entry("oscillation_cantor").psi) == []


def test_comb_has_no_isolated_spikes():
    assert detect_contact_spikes(battery_entry("comb").psi) == []


def test_dw_simple_and_double():
    src = "sin(1/y)/y"
    osc = FiniteAnalytic(
        span=(0.0, 1.0), evaluator=parse_expression(src),
        limits_left=LimitData(NEG_INF, POS_INF),
        limits_right=LimitData(math.sin(1.0), math.sin(1.0), exact=False),
    )
    psi = PiecewiseDefiningFunction(0.0, 1.0, (osc,))
    assert dw_discontinuity(psi) == "simple"

    src2 = "sin(1/(y*(1-y)))/(y*(1-y))"
    osc2 = FiniteAnalytic(
        span=(0.0, 1.0), evaluator=parse_expression(src2),
        limits_left=LimitData(NEG_INF, POS_INF),
        limits_right=LimitData(NEG_INF, POS_INF),
    )
    psi2 = PiecewiseDefiningFunction(0.0, 1.0, (osc2,))
    assert dw_discontinuity(psi2) == "double"


def test_dw_none_for_bounded_flat():
    assert dw_discontinuity(battery_entry("strip").psi) == "none"


def test_exceptional_arc_pattern():
    rep = analyze(battery_entry("exceptional_arc").psi)
    assert rep.exceptional_arc_to_unbounded
    # same interval but continuous approach to the -inf gap: no pattern
    rep2 = analyze(battery_entry("upper_half_plane").psi)
    assert not rep2.exceptional_arc_to_unbounded


def test_exceptional_arc_needs_oscillation():
    # psi -> 0 continuously from the left of the gap: the liminf there is
    # finite, so the pattern must not fire
    from koenigslab import MinusInfinity

    src = "0"
    flat_piece = FiniteAnalytic(
        span=(0.0, 2.0),
        evaluator=parse_expression(src),
        limits_left=LimitData(0.0, 0.0),
        limits_right=LimitData(0.0, 0.0),
    )
    psi = PiecewiseDefiningFunction(
        0.0, POS_INF, (flat_piece, MinusInfinity(span=(2.0, POS_INF)))
    )
    rep = analyze(psi)
    assert not rep.exceptional_arc_to_unbounded


def test_oscillation_cantor_has_no_unbounded_discontinuities():
    rep = analyze(battery_entry("oscillation_cantor").psi)
    assert rep.unbounded_discontinuities == []
    assert rep.super_repelling_heights == []


def test_translation_invariance_of_heights():
    psi = battery_entry("du_oscillation").psi
    rep0 = analyze(psi)
    rep1 = analyze(psi.translated(dx=5.0))
    assert rep0.unbounded_discontinuities == rep1.unbounded_discontinuities
    rep2 = analyze(psi.translated(dy=2.0))
    assert [(h + 2.0, s) for h, s in rep0.unbounded_discontinuities] == pytest.approx(
        [(h, s) for h, s in rep2.unbounded_discontinuities]
    ) or [
        (h + 2.0, s) for h, s in rep0.unbounded_discontinuities
    ] == rep2.unbounded_discontinuities


def test_minus_infinity_components_helper():
    assert battery_entry("double_gap").psi.minus_infinity_components() == [
        (0.0, 1.0),
        (2.0, 3.0),
    ]
