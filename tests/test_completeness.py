from dataclasses import replace

import pytest

from koenigslab import TriState, completeness
from koenigslab.battery import battery_entry, full_battery
from koenigslab.completeness import (
    decide,
    decide_topological,
    decide_weak_star,
    p_completeness_report,
    predicted_components,
)


def test_weak_star_battery():
    for e in full_battery():
        v = decide_weak_star(e.psi)
        assert v.weak_star_complete.value == e.weak_star, (e.name, v.route)
        if v.weak_star_complete is TriState.NO:
            assert v.witnesses or "half-plane" in v.route


def test_topological_battery():
    for e in full_battery():
        topo = decide_topological(e.psi, e.window, min(e.resolution, 1024))
        assert topo["verdict"].value == e.weak_star, (e.name, topo["route"])


def test_two_routes_agree_everywhere_definite():
    # the central cross-validation: analytic and raster routes coincide
    for e in full_battery():
        ws = decide_weak_star(e.psi).weak_star_complete
        tp = decide_topological(e.psi, e.window, min(e.resolution, 1024))["verdict"]
        if ws.definite and tp.definite:
            assert ws is tp, e.name


def test_component_predictions():
    for e in full_battery():
        assert predicted_components(e.psi) == e.components, e.name


def test_headline_verdicts():
    assert decide_weak_star(battery_entry("strip").psi).weak_star_complete is TriState.YES
    assert decide_weak_star(battery_entry("comb").psi).weak_star_complete is TriState.NO
    assert (
        decide_weak_star(battery_entry("oscillation_cantor").psi).weak_star_complete
        is TriState.YES
    )
    assert (
        decide_weak_star(battery_entry("double_spike").psi).weak_star_complete
        is TriState.NO
    )
    assert decide_weak_star(battery_entry("log_demo").psi).weak_star_complete is TriState.NO


def test_comb_witness_is_carrier_point():
    v = decide_weak_star(battery_entry("comb").psi)
    assert v.witnesses
    assert all(0.0 <= w <= 1.0 for w in v.witnesses)


def test_double_gap_witness_is_interval_pair():
    v = decide_weak_star(battery_entry("double_gap").psi)
    assert v.weak_star_complete is TriState.NO
    assert len(v.witnesses) == 2


def test_p_routes():
    rep = p_completeness_report(battery_entry("double_spike").psi, 1.0)
    assert rep["p_complete"] is TriState.NO and "exceedance" in rep["route"]
    rep = p_completeness_report(battery_entry("eta1").psi, 1.0)
    assert rep["p_complete"] is TriState.NO and "bounded frequency interval" in rep["route"]
    rep = p_completeness_report(battery_entry("log_minorant").psi, 1.0)
    assert rep["p_complete"] is TriState.YES and "envelope domination" in rep["route"]
    rep = p_completeness_report(battery_entry("strip").psi, 2.0)
    assert rep["p_complete"] is TriState.YES and "inherited" in rep["route"]
    rep = p_completeness_report(battery_entry("comb").psi, 1.0)
    assert rep["p_complete"] is TriState.UNKNOWN  # open problem, by design


def test_a_borrowed_eta_name_does_not_choose_the_eta_oracle():
    # log_demo is no eta domain: it has no canonical domain for the
    # bounded-frequency-interval route, whatever it is called
    psi = replace(battery_entry("log_demo").psi, name="eta_impostor")
    rep = p_completeness_report(psi, 1.0)
    assert rep["p_complete"] is TriState.UNKNOWN
    assert rep["route"].startswith("no applicable route")


def test_a_renamed_eta_domain_keeps_its_oracle():
    psi = replace(battery_entry("eta1").psi, name="renamed")
    rep = p_completeness_report(psi, 1.0)
    assert rep["p_complete"] is TriState.NO and "bounded frequency interval" in rep["route"]
    assert psi.translated(2.0, -1.0).canonical is psi.canonical


@pytest.mark.parametrize("p", [0.0, -1.0, 0.5, float("nan"), float("inf")])
def test_p_is_range_checked_before_any_route(p):
    psi = battery_entry("strip").psi
    with pytest.raises(ValueError, match="p must be at least 1"):
        p_completeness_report(psi, p)
    with pytest.raises(ValueError, match="p must be at least 1"):
        decide(psi, p=p)


def test_weak_star_yes_implies_p_yes():
    for e in full_battery():
        if e.weak_star == "yes":
            rep = p_completeness_report(e.psi, 1.5)
            assert rep["p_complete"] is TriState.YES, e.name


def test_verdict_invariant_under_translation():
    for name in ("comb", "gap", "eta1", "du_oscillation"):
        psi = battery_entry(name).psi
        v0 = decide_weak_star(psi).weak_star_complete
        assert decide_weak_star(psi.translated(dx=2.5)).weak_star_complete is v0
        assert decide_weak_star(psi.translated(dy=-1.25)).weak_star_complete is v0


def test_decide_dictionary_face():
    e = battery_entry("comb")
    out = decide(e.psi, p=1.0, cross_check=True, window=e.window, resolution=512)
    assert out["weak_star_complete"] == "no"
    assert out["topological"]["verdict"] == "no"
    assert out["routes_agree"] == "yes"
    assert out["features"]["cantor_combs"]


def test_decide_requires_window_for_cross_check():
    with pytest.raises(ValueError):
        decide(battery_entry("strip").psi, cross_check=True)


def test_decide_computes_the_weak_star_verdict_once(monkeypatch):
    calls = []
    inner = completeness.decide_weak_star

    def counting(psi):
        calls.append(psi)
        return inner(psi)

    monkeypatch.setattr(completeness, "decide_weak_star", counting)
    for name in ("strip", "double_spike", "log_minorant"):
        psi = battery_entry(name).psi
        calls.clear()
        out = decide(psi, p=1.0)
        assert len(calls) == 1, name
        calls.clear()
        assert out["p_route"] == p_completeness_report(psi, 1.0)["route"]
        assert len(calls) == 1, name


def test_psi_with_no_finite_value_gets_no_yes():
    # log(-1 - y^2) is NaN on all of R: no sample of psi is finite, so
    # neither the half-plane intercept nor the log-envelope constant is
    # certified (a block whose sampled inf is +inf is no constraint)
    from koenigslab.classify import affine_minorant
    from koenigslab.specio import psi_from_dict

    psi = psi_from_dict({
        "interval": ["-inf", "inf"],
        "pieces": [
            {"kind": "finite_analytic", "span": ["-inf", "inf"], "expr": "log(-1-y*y)",
             "tail_lower": {"kind": "const", "c": 0.0},
             "tail_upper": {"kind": "const", "c": 0.0}},
        ],
    })
    am = affine_minorant(psi)
    assert am.status is TriState.UNKNOWN
    assert am.reason.startswith("intercept certification failed")
    assert "[-64.0, " in am.reason  # names the first middle block
    assert completeness._log_envelope_domination(psi, 1.0) is None
    out = decide(psi, p=1.0)
    assert out["weak_star_complete"] == "unknown"
    assert out["p_complete"] == "unknown"
