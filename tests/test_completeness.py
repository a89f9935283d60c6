import dataclasses
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from koenigslab import TailEnvelope, TriState, completeness
from koenigslab.battery import battery_entry, full_battery
from koenigslab.completeness import (
    decide,
    decide_topological,
    decide_weak_star,
    p_completeness_report,
    predicted_components,
)
from koenigslab.specio import psi_from_dict


def test_weak_star_battery():
    for e in full_battery():
        v = decide_weak_star(e.psi)
        assert v.state.value == e.weak_star, (e.name, v.route)
        if v.state is TriState.NO:
            assert v.witnesses or "half-plane" in v.route


def test_topological_battery():
    for e in full_battery():
        topo, _, _ = decide_topological(e.psi, e.window, min(e.resolution, 1024))
        assert topo.state.value == e.weak_star, (e.name, topo.route)


def test_two_routes_agree_everywhere_definite():
    # the central cross-validation: analytic and raster routes coincide
    for e in full_battery():
        ws = decide_weak_star(e.psi).state
        tp = decide_topological(e.psi, e.window, min(e.resolution, 1024))[0].state
        if ws.definite and tp.definite:
            assert ws is tp, e.name


def test_component_predictions():
    for e in full_battery():
        assert predicted_components(e.psi) == e.components, e.name


def test_headline_verdicts():
    assert decide_weak_star(battery_entry("strip").psi).state is TriState.YES
    assert decide_weak_star(battery_entry("comb").psi).state is TriState.NO
    assert (
        decide_weak_star(battery_entry("oscillation_cantor").psi).state
        is TriState.YES
    )
    assert (
        decide_weak_star(battery_entry("double_spike").psi).state
        is TriState.NO
    )
    assert decide_weak_star(battery_entry("log_demo").psi).state is TriState.NO


def test_comb_witness_is_carrier_point():
    v = decide_weak_star(battery_entry("comb").psi)
    assert v.witnesses
    assert all(0.0 <= w <= 1.0 for w in v.witnesses)


def test_double_gap_witness_is_interval_pair():
    v = decide_weak_star(battery_entry("double_gap").psi)
    assert v.state is TriState.NO
    assert len(v.witnesses) == 2


def test_p_routes():
    rep = p_completeness_report(battery_entry("double_spike").psi, 1.0)
    assert rep.state is TriState.NO and "exceedance" in rep.route
    rep = p_completeness_report(battery_entry("eta1").psi, 1.0)
    assert rep.state is TriState.NO and "bounded frequency interval" in rep.route
    rep = p_completeness_report(battery_entry("log_minorant").psi, 1.0)
    assert rep.state is TriState.YES and "envelope domination" in rep.route
    rep = p_completeness_report(battery_entry("strip").psi, 2.0)
    assert rep.state is TriState.YES and "inherited" in rep.route
    rep = p_completeness_report(battery_entry("comb").psi, 1.0)
    assert rep.state is TriState.UNKNOWN  # open problem, by design


def test_a_borrowed_eta_name_does_not_choose_the_eta_oracle():
    # log_demo is no eta domain: it has no canonical domain for the
    # bounded-frequency-interval route, whatever it is called
    psi = replace(battery_entry("log_demo").psi, name="eta_impostor")
    rep = p_completeness_report(psi, 1.0)
    assert rep.state is TriState.UNKNOWN
    assert rep.route.startswith("no applicable route")


def test_a_renamed_eta_domain_keeps_its_oracle():
    psi = replace(battery_entry("eta1").psi, name="renamed")
    rep = p_completeness_report(psi, 1.0)
    assert rep.state is TriState.NO and "bounded frequency interval" in rep.route
    assert psi.translated(2.0, -1.0).canonical is psi.canonical


def test_eta_p_routes_decide_without_transplanting(monkeypatch):
    from test_cli_golden import BATTERY, _golden, digests

    from koenigslab import hardy
    from koenigslab.battery import eta_domain_psi

    def refuse(*args):
        raise AssertionError("the quadrature route built nodes")

    monkeypatch.setattr(hardy, "circle_nodes", refuse)
    got = digests(BATTERY["eta1"])
    want = _golden()["eta1"]
    for key in ("decide-p1-cross", "decide-p2.5"):
        assert got[key] == want[key], key
    for p in (1.0, 2.0):
        out = decide(eta_domain_psi(1.0), p=p)
        assert out["p_complete"] == "no" and out["p_route"].startswith("bounded frequency interval")
        assert out["p_witnesses"][0].startswith(f"'Lambda_p in ({-1.0 / p}, 0] by the ends ")
        # eta_half admits every real lam <= 0, so its frequencies are unbounded
        out = decide(eta_domain_psi(0.5, "etah"), p=p)
        assert "bounded frequency interval" not in out["p_route"]


ENVELOPES = [
    TailEnvelope(m=-0.5, c=1.0, C=-3.0, a=2.0),  # m < 0, a growing log term
    TailEnvelope(c=1.0),                         # m = 0, C = 0
    TailEnvelope(c=0.35, C=1.0, a=1.0),          # m = 0, C > 0: eta's
    TailEnvelope(C=-1.0, a=0.0),                 # m = 0, C < 0 with a = 0: constant
    TailEnvelope(C=-1.0, a=0.5),                 # m = 0, C < 0 and a > 0
    TailEnvelope(m=1e-3, C=10.0, a=2.0),         # m > 0, a falling log term
]


@pytest.mark.parametrize("tail", ["upper", "lower"])
@pytest.mark.parametrize("env", ENVELOPES, ids=range(len(ENVELOPES)))
def test_bounded_above_reads_the_negated_slopes(env, tail):
    # g is bounded above on the tail iff it does not grow from |y| = 1e6
    # to 1e300 there
    sg = 1.0 if tail == "upper" else -1.0
    want = env.value(sg * 1e300) <= env.value(sg * 1e6)
    assert completeness._bounded_above(env, tail) is bool(want)


def test_bounded_interval_obstruction_needs_bounded_upper_envelopes():
    from koenigslab.battery import eta_domain_psi

    psi = eta_domain_psi(1.0)
    assert completeness._bounded_interval_obstruction(psi, 1.0).state is TriState.NO
    (piece,) = psi.pieces
    growing = replace(piece, tail_upper=TailEnvelope(C=-1.0, a=1.0))
    assert completeness._bounded_interval_obstruction(
        replace(psi, pieces=(growing,)), 1.0
    ) is None
    assert completeness._bounded_interval_obstruction(replace(psi, canonical=None), 1.0) is None


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
            assert rep.state is TriState.YES, e.name


def test_verdict_invariant_under_translation():
    for name in ("comb", "gap", "eta1", "du_oscillation"):
        psi = battery_entry(name).psi
        v0 = decide_weak_star(psi).state
        assert decide_weak_star(psi.translated(dx=2.5)).state is v0
        assert decide_weak_star(psi.translated(dy=-1.25)).state is v0


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
        assert out["p_route"] == p_completeness_report(psi, 1.0).route
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


SQRT_LOG = "-2*sqrt(log(abs(y)+3))"
DIP = SQRT_LOG + " - 3*exp(-((abs(y)-80)/4)^2)"  # a dip at |y| = 80


def _log_spec(expr, valid_from=0.0, cuts=()):
    """psi = expr on R, pieces split at ``cuts``, both tail pieces bounded
    below by 0 - 2 (log(|y|+3))^0.5 where |y| >= valid_from."""
    env = {"kind": "log_pow", "C": 2.0, "a": 0.5, "D": 0.0, "valid_from": valid_from}
    ends = ["-inf", *cuts, "inf"]
    pieces = [{"kind": "finite_analytic", "span": [lo, hi], "expr": expr}
              for lo, hi in zip(ends, ends[1:])]
    pieces[0]["tail_lower"] = pieces[-1]["tail_lower"] = env
    return {"interval": ["-inf", "inf"], "pieces": pieces}


@pytest.mark.parametrize("spec", [
    _log_spec(SQRT_LOG),
    # the dip lies where no envelope holds: the rows must reach past it
    _log_spec(DIP, valid_from=100.0),
    _log_spec(DIP, cuts=(-100.0, 100.0)),
], ids=["envelope", "valid_from", "tail_pieces"])
def test_log_envelope_witness_holds_on_the_whole_line(spec):
    psi = psi_from_dict(spec)
    out = decide(psi, p=1.0)
    assert out["p_complete"] == "yes"
    assert out["p_route"].startswith("logarithmic envelope domination")
    (witness,) = out["p_witnesses"]
    k, coef, a = map(float, re.fullmatch(
        r"'psi >= (\S+) - (\S+)\*\(log\(\|y\|\+3\)\)\^(\S+)'", witness
    ).groups())
    assert coef == 2.0 and a == 0.5
    ys = np.geomspace(64.0, 1e12, 400)
    for y in np.concatenate([ys, -ys]):
        assert psi.value(y) >= k - coef * math.log(abs(y) + 3.0) ** a, y


def test_route_results_are_frozen_records():
    v = p_completeness_report(battery_entry("log_minorant").psi, 1.0)
    assert v.witnesses == ("psi >= 0.9294 - (log(|y|+3))^0.5",)
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.state = TriState.NO
