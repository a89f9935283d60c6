"""Tail envelopes have one form, m*y + c - C*(log(|y|+3))**a.

The spec file spells it three ways (``affine``, ``const``, ``log_pow``);
a verdict must not depend on which spelling declared a bound.
"""

import json
import math

import numpy as np
import pytest

from koenigslab import TailEnvelope, TriState, ValidationError, cli, completeness
from koenigslab.classify import lambda_infty, slope_brackets
from koenigslab.completeness import decide
from koenigslab.domain import NEG_INF, POS_INF, FiniteAnalytic, PiecewiseDefiningFunction
from koenigslab.expr import parse_expression
from koenigslab.specio import load_psi, psi_from_dict, psi_to_dict, save_psi

SQRT_LOG3 = math.sqrt(math.log(3.0))
# one constant bound, psi >= -sqrt(log 3), in each spelling
SPELLINGS = {
    "const": {"kind": "const", "c": -SQRT_LOG3},
    "affine": {"kind": "affine", "m": 0.0, "c": -SQRT_LOG3},
    "log_pow": {"kind": "log_pow", "C": 0.0, "a": 1.0, "D": -SQRT_LOG3},
}


def sqrt_log_spec(upper_tail_lower):
    """psi = -sqrt(log(|y|+3)) for y < 0 and the constant -sqrt(log 3) for y > 0."""
    return {
        "name": "sqrt_log",
        "interval": ["-inf", "inf"],
        "pieces": [
            {"kind": "finite_analytic", "span": ["-inf", 0.0],
             "expr": "-sqrt(log(abs(y)+3))",
             "tail_lower": {"kind": "log_pow", "C": 1.0, "a": 0.5, "D": 0.0}},
            {"kind": "finite_analytic", "span": [0.0, "inf"], "expr": "-sqrt(log(3))",
             "tail_lower": upper_tail_lower},
        ],
    }


def zero_spec(tail_upper):
    """psi = 0 on R, declared between -log(|y|+3) and tail_upper."""
    return {
        "interval": ["-inf", "inf"],
        "pieces": [
            {"kind": "finite_analytic", "span": ["-inf", "inf"], "expr": "0",
             "tail_lower": {"kind": "log_pow", "C": 1.0, "a": 1.0, "D": 0.0},
             "tail_upper": tail_upper},
        ],
    }


def cli_json(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def test_three_spellings_give_identical_decide_and_freq_json(tmp_path, capsys):
    outputs = {}
    for kind, env in SPELLINGS.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(sqrt_log_spec(env)))
        outputs[kind] = (
            cli_json(capsys, "decide", str(path), "--p", "2"),
            cli_json(capsys, "freq", "--domain", str(path)),
        )
    assert outputs["affine"] == outputs["const"] == outputs["log_pow"]
    out = json.loads(outputs["const"][0])
    assert out["p_complete"] == "yes"
    assert out["p_route"].startswith("logarithmic envelope domination")


@pytest.mark.parametrize("tail_upper", [
    {"kind": "log_pow", "C": -1.0, "a": 1.0, "D": 0.0},  # psi <= log(|y|+3)
    {"kind": "log_pow", "C": 1.0, "a": 0.0, "D": 1.0},   # psi <= 0
])
def test_upper_envelopes_that_do_not_drift_keep_slope_zero(tail_upper):
    # the declarations hold for psi = 0, which lies in a half-plane: they
    # do not prove containment, but they must not deny it
    psi = psi_from_dict(zero_spec(tail_upper))
    feas, poss = slope_brackets(psi, ("upper", "lower"))
    assert feas is None and poss == (0.0, 0.0)
    assert decide(psi)["weak_star_complete"] == "unknown"
    region = lambda_infty(psi)
    assert region.left_directions is TriState.UNKNOWN and not region.exact


@pytest.mark.parametrize("interval, tail_lower, note", [
    (["-inf", "inf"], None, "lower-bound-only: no tail_lower on the upper tail and the lower tail"),
    ([0.0, "inf"], None, "lower-bound-only: no tail_lower on the upper tail"),
    (["-inf", "inf"], {"kind": "log_pow", "C": 1.0, "a": 1.0, "D": 0.0},
     "declared lower envelopes too weak to certify a slope"),
])
def test_lambda_infty_names_why_no_slope_is_certified(interval, tail_lower, note):
    spec = zero_spec({"kind": "log_pow", "C": -1.0, "a": 1.0, "D": 0.0})
    spec["interval"] = spec["pieces"][0]["span"] = interval
    if tail_lower is None:
        del spec["pieces"][0]["tail_lower"]
    region = lambda_infty(psi_from_dict(spec))
    assert (region.left_directions, region.exact, region.notes) == (TriState.UNKNOWN, False, note)


@pytest.mark.parametrize("tail_lower, accepted", [
    ({"kind": "log_pow", "C": -1.0, "a": 1.0, "D": 0.0}, True),   # grows: bounded below
    ({"kind": "log_pow", "C": 1.0, "a": 0.75, "D": 0.0}, True),   # drifts with a < 1
    ({"kind": "log_pow", "C": 1.0, "a": 1.0, "D": 0.0}, False),   # drifts too fast
    ({"kind": "affine", "m": 0.25, "c": -5.0}, False),             # a slope
])
def test_log_envelope_domination_reads_the_form(tail_lower, accepted):
    psi = psi_from_dict({
        "interval": ["-inf", "inf"],
        "pieces": [{"kind": "finite_analytic", "span": ["-inf", "inf"],
                    "expr": "log(abs(y)+3)", "tail_lower": tail_lower}],
    })
    rep = completeness._log_envelope_domination(psi, 2.0)
    assert (rep is not None and rep.state is TriState.YES) is accepted


def test_drifting_envelope_opens_its_slope():
    down = TailEnvelope(C=1.0, a=1.0)
    assert down.drifts
    assert not TailEnvelope(C=-1.0, a=1.0).drifts
    assert not TailEnvelope(C=1.0, a=0.0).drifts
    assert not TailEnvelope(m=2.0, c=1.0).drifts
    psi = PiecewiseDefiningFunction(
        NEG_INF, POS_INF,
        (FiniteAnalytic(span=(NEG_INF, POS_INF), evaluator=parse_expression("0"),
                        tail_lower=down, tail_upper=down),),
    )
    assert slope_brackets(psi, ("upper",)) == ((NEG_INF, -5e-324), (NEG_INF, -5e-324))
    assert slope_brackets(psi, ("lower",)) == ((5e-324, POS_INF), (5e-324, POS_INF))


def test_value_keeps_the_bits_of_affine_and_log_bounds():
    ys = np.array([-1e6, -3.5, 0.0, 2.25, 1e9])
    assert np.array_equal(TailEnvelope(m=-0.3, c=1.7).value(ys), -0.3 * ys + 1.7)
    assert np.array_equal(TailEnvelope(c=0.35).value(ys), np.full_like(ys, 0.35))
    assert np.array_equal(
        TailEnvelope(c=0.3, C=0.6, a=1.0).value(ys),
        0.3 - 0.6 * np.log(np.abs(ys) + 3.0) ** 1.0,
    )


@pytest.mark.parametrize("env", [
    TailEnvelope(m=0.5, c=-1.0, valid_from=2.0),
    TailEnvelope(c=0.35, C=1.0, a=1.0),
    TailEnvelope(c=1.0, C=1.0, a=0.5, valid_from=3.0),
    TailEnvelope(c=0.0, C=-1.0, a=1.0),
])
@pytest.mark.parametrize("dx, dy", [(0.0, 0.0), (1.5, 0.0), (-0.75, 2.5), (0.25, -6.0)])
def test_translated_envelope_bounds_the_translated_bound(env, dx, dy):
    # psi = g itself: the translated lower bound stays below psi(y - dy) + dx
    # and the translated upper bound above it, wherever they are declared valid
    low, up = env.translated(dx, dy, "lower"), env.translated(dx, dy, "upper")
    for moved in (low, up):
        assert (moved.m, moved.C, moved.a) == (env.m, env.C, env.a)
        assert moved.valid_from >= env.valid_from + abs(dy)
    ys = np.concatenate([-np.geomspace(low.valid_from + 1e-9, 1e12, 400),
                         np.geomspace(low.valid_from + 1e-9, 1e12, 400)])
    shifted = env.value(ys - dy) + dx
    tol = 1e-9 * (1.0 + np.abs(shifted))
    assert np.all(low.value(ys) <= shifted + tol)
    assert np.all(up.value(ys) >= shifted - tol)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("C", [1.0, -1.0])
@pytest.mark.parametrize("dy", [0.5, -0.5, 5.0, -5.0])
def test_translated_log_bound_stays_on_its_side_for_every_exponent(a, C, dy):
    # TailEnvelope(C=1, a=2).translated(0, 5, "lower") once lay 0.496 above
    # g(y - 5) at y = -15
    env = TailEnvelope(C=C, a=a)
    for role, side in (("lower", -1.0), ("upper", 1.0)):
        moved = env.translated(0.0, dy, role)
        ys = np.geomspace(moved.valid_from, 1e12, 2000)
        ys = np.concatenate([-ys, ys])
        gap = side * (moved.value(ys) - env.value(ys - dy))
        assert np.all(gap >= -1e-9 * (1.0 + np.abs(env.value(ys - dy)))), (role, gap.min())


def test_const_saves_as_affine_with_zero_slope(tmp_path):
    path = tmp_path / "const.json"
    psi = psi_from_dict(sqrt_log_spec(SPELLINGS["const"]))
    save_psi(psi, path)
    saved = json.loads(path.read_text())["pieces"][1]["tail_lower"]
    assert saved == {"kind": "affine", "m": 0.0, "c": -SQRT_LOG3, "valid_from": 0.0}
    again = load_psi(path)
    assert again.tail_envelopes("upper")[0] == TailEnvelope(c=-SQRT_LOG3)
    assert psi_to_dict(again) == psi_to_dict(psi)


def test_log_pow_saves_as_log_pow():
    psi = psi_from_dict(zero_spec({"kind": "log_pow", "C": -1.0, "a": 1.0, "D": 0.5}))
    piece = psi_to_dict(psi)["pieces"][0]
    assert piece["tail_upper"] == {"kind": "log_pow", "C": -1.0, "a": 1.0, "D": 0.5,
                                   "valid_from": 0.0}


def test_mixed_envelope_does_not_serialize():
    mixed = TailEnvelope(m=0.5, c=0.0, C=1.0, a=0.5)
    psi = PiecewiseDefiningFunction(
        NEG_INF, POS_INF,
        (FiniteAnalytic(span=(NEG_INF, POS_INF), evaluator=parse_expression("abs(y)"),
                        tail_lower=mixed),),
    )
    with pytest.raises(ValidationError, match="both a slope and a log term"):
        psi_to_dict(psi)


def test_unknown_envelope_spelling_reports_pointer():
    spec = zero_spec({"kind": "quadratic", "c": 0.0})
    with pytest.raises(ValidationError, match="/pieces/0.*unknown envelope kind 'quadratic'"):
        psi_from_dict(spec)


FLOOR_CASES = {
    # name: (envelope, s, R, coef, a, closed form expected)
    "flat": (TailEnvelope(c=0.5, C=-1.0, a=1.0), 0.3, 64.0, 0.0, 0.0, True),
    "bounded log term": (TailEnvelope(c=0.5, C=2.0, a=0.0), 0.0, 64.0, 0.0, 0.0, True),
    "drift cancelled": (TailEnvelope(c=1.0, C=1.0, a=0.5), 0.0, 64.0, 2.0, 0.75, True),
    "monotone beyond R": (TailEnvelope(C=1.0, a=2.0), 1.0, 64.0, 0.0, 0.0, True),
    "convex under log": (TailEnvelope(C=50.0, a=1.0), 0.1, 64.0, 0.0, 0.0, True),
    "convex under log, a < 1": (TailEnvelope(c=2.0, C=10.0, a=0.5), 0.01, 100.0, 0.5, 0.25, True),
    "no closed form": (TailEnvelope(C=50.0, a=2.0), 0.1, 64.0, 0.0, 0.0, False),
    "drift uncancelled at s = 0": (TailEnvelope(C=1.0, a=0.5), 0.0, 64.0, 0.5, 0.5, False),
}


@pytest.mark.parametrize("name", FLOOR_CASES)
def test_tail_floor_never_exceeds_the_dense_minimum(name):
    env, s, R, coef, a, closed = FLOOR_CASES[name]
    floor = env.floor(s, R, coef, a)
    assert (floor is not None) is closed
    assert env.floor(-1e-3, R, coef, a) is None
    if floor is None:
        return
    t = np.concatenate([np.linspace(R, R + 1e4, 100_001), np.geomspace(R + 1e4, 1e12, 100_001)])
    L = np.log(t + 3.0)
    f = s * t + env.c - env.C * L ** env.a + coef * L ** a
    assert floor <= f.min() + 1e-12 * (1.0 + abs(f.min()))
