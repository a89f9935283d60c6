"""Invariants the mathematics guarantees, checked over the battery domains
that serialize: verdicts under translation, the spec round trip, and
independence from the order of calls and from the name of a spec."""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from koenigslab import ValidationError
from koenigslab.battery import full_battery
from koenigslab.classify import lambda_infty
from koenigslab.completeness import decide, predicted_components
from koenigslab.features import analyze
from koenigslab.raster import rasterize
from koenigslab.specio import psi_from_dict, psi_to_dict


BATTERY = {e.name: e for e in full_battery()}


def _spec_dicts():
    out = {}
    for e in BATTERY.values():
        try:
            out[e.name] = (e, json.loads(json.dumps(psi_to_dict(e.psi))))
        except ValidationError:
            pass  # opaque evaluator
    return out


SPECS = _spec_dicts()
NAMES = sorted(SPECS)
DYADIC = st.integers(-32, 32).map(lambda k: k / 8.0)


def _decide_json(psi):
    return json.dumps(decide(psi, p=1.0), sort_keys=True, default=str)


def test_specs_cover_the_serializable_battery():
    assert len(NAMES) == 15


@given(st.sampled_from(NAMES), DYADIC, DYADIC)
@settings(max_examples=200, deadline=None)
def test_translation_keeps_verdicts_and_shifts_gaps(name, dx, dy):
    psi = psi_from_dict(SPECS[name][1])
    moved = psi.translated(dx, dy)
    before, after = decide(psi, p=1.0), decide(moved, p=1.0)
    for key in ("weak_star_complete", "route", "p_complete", "p_route"):
        assert before[key] == after[key], key
    assert predicted_components(moved) == predicted_components(psi)
    assert moved.minus_infinity_components() == [
        (lo + dy, hi + dy) for lo, hi in psi.minus_infinity_components()
    ]


@pytest.mark.parametrize("name", NAMES)
def test_spec_round_trip_keeps_decide_json(name):
    entry, spec = SPECS[name]
    saved = json.loads(json.dumps(psi_to_dict(psi_from_dict(spec))))
    assert saved == spec  # saving writes the canonical spelling
    assert _decide_json(psi_from_dict(saved)) == _decide_json(entry.psi)


@given(
    st.sampled_from(NAMES),
    st.lists(st.sampled_from(["analyze", "lambda_infty", "rasterize"]), max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_earlier_calls_do_not_change_decide(name, calls):
    entry, spec = SPECS[name]
    psi = psi_from_dict(spec)
    for call in calls:
        if call == "analyze":
            analyze(psi)
        elif call == "lambda_infty":
            lambda_infty(psi)
        else:
            rasterize(psi, entry.window, 128)
    assert _decide_json(psi) == _decide_json(psi_from_dict(spec))


@given(
    st.sampled_from(sorted(BATTERY)),
    st.one_of(st.sampled_from(sorted(BATTERY)), st.just("eta_impostor"), st.text(max_size=8)),
)
@settings(max_examples=60, deadline=None)
def test_decide_does_not_depend_on_the_name(name, new_name):
    psi = BATTERY[name].psi
    assert _decide_json(replace(psi, name=new_name)) == _decide_json(psi)
