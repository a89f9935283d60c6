import json
import math

import pytest

from koenigslab import TriState, ValidationError
from koenigslab.specio import load_psi, psi_from_dict, psi_to_dict, save_psi


def spec_dict():
    return {
        "name": "sample",
        "interval": [-1.0, 2.0],
        "pieces": [
            {"kind": "finite_analytic", "span": [-1.0, 0.0], "expr": "0",
             "limits": {"left": {"liminf": 0, "limsup": 0},
                        "right": {"liminf": 0, "limsup": 0}}},
            {"kind": "minus_infinity", "span": [0.0, 1.0]},
            {"kind": "point_spike", "span": [1.0, 2.0], "c0": 1.5,
             "value": 1.0, "background": 0.0},
        ],
    }


def test_round_trip(tmp_path):
    psi = psi_from_dict(spec_dict())
    assert psi.value(1.5) == 1.0
    assert psi.value(0.5) == -math.inf
    path = tmp_path / "d.json"
    save_psi(psi, path)
    again = load_psi(path)
    assert psi_to_dict(again) == psi_to_dict(psi)


def test_infinity_sentinels():
    d = {
        "interval": ["-inf", "inf"],
        "pieces": [{"kind": "finite_analytic", "span": ["-inf", "inf"], "expr": "abs(y)"}],
    }
    psi = psi_from_dict(d)
    assert psi.value(-3.0) == 3.0


def test_oscillatory_requires_limits():
    d = {
        "interval": [0.0, 1.0],
        "pieces": [{"kind": "oscillatory", "span": [0.0, 1.0], "expr": "sin(1/y)"}],
    }
    with pytest.raises(ValidationError) as err:
        psi_from_dict(d)
    assert "/pieces/0" in str(err.value)


def test_unknown_kind_reports_pointer():
    for pieces, pointer in (
        ([{"kind": "mystery", "span": [0, 1]}], "/pieces/0"),
        (3, "/pieces"),
        ([3], "/pieces/0"),
        ([{"kind": "minus_infinity", "span": 3}], "/pieces/0"),
    ):
        with pytest.raises(ValidationError) as err:
            psi_from_dict({"interval": [0.0, 1.0], "pieces": pieces})
        assert str(err.value).startswith(pointer + ":"), err.value


def test_bad_interval_reports_pointer():
    for interval in ([0.0], ["a", 1], 3):
        with pytest.raises(ValidationError) as err:
            psi_from_dict({"interval": interval, "pieces": []})
        assert str(err.value).startswith("/interval:"), err.value


def test_bad_values_at_reports_pointer():
    base = {"interval": [0.0, 1.0], "pieces": [{"kind": "finite_analytic",
                                                "span": [0, 1], "expr": "0"}]}
    for values_at, pointer in (
        ({"x": 1}, "/values_at/x"),
        ({"0.5": "high"}, "/values_at/0.5"),
        ([0.5], "/values_at"),
    ):
        with pytest.raises(ValidationError) as err:
            psi_from_dict({**base, "values_at": values_at})
        assert str(err.value).startswith(pointer + ":"), err.value


def test_cantor_comb_round_trip(tmp_path):
    d = {
        "interval": [-0.5, 1.5],
        "pieces": [
            {
                "kind": "cantor_comb",
                "span": [-0.5, 1.5],
                "carrier": {"base": [0.0, 1.0]},
                "on_value": 1.0,
                "off_expr": "0",
                "off_bound": 0.0,
                "off_limsup_at_carrier": 0.0,
                "off_liminf_at_carrier": 0.0,
            }
        ],
    }
    psi = psi_from_dict(d)
    assert psi.equals_regularized()[0] is TriState.NO
    path = tmp_path / "comb.json"
    save_psi(psi, path)
    assert json.loads(path.read_text())["pieces"][0]["kind"] == "cantor_comb"


def test_values_at_round_trip(tmp_path):
    d = {
        "interval": [0.0, "inf"],
        "pieces": [
            {"kind": "oscillatory", "span": [0.0, 2.0],
             "expr": "-(1-cos(1/(2-y)))/abs(2-y)",
             "limits": {"left": {"liminf": -0.12, "limsup": -0.12},
                        "right": {"liminf": "-inf", "limsup": 0.0}}},
            {"kind": "minus_infinity", "span": [2.0, "inf"]},
        ],
        "values_at": {"2.0": 0.0},
    }
    psi = psi_from_dict(d)
    assert psi.value(2.0) == 0.0
    path = tmp_path / "exc.json"
    save_psi(psi, path)
    assert load_psi(path).value(2.0) == 0.0


def _spike(value="1.0", background="0.0"):
    return {"interval": [-1.0, 1.0], "pieces": [
        {"kind": "point_spike", "span": [-1.0, 1.0], "c0": 0.0,
         "value": value, "background": background}]}


def _comb(on_value):
    return {"interval": [-0.5, 1.5], "pieces": [
        {"kind": "cantor_comb", "span": [-0.5, 1.5], "carrier": {"base": [0.0, 1.0]},
         "on_value": on_value, "off_expr": "0",
         "off_limsup_at_carrier": 0.0, "off_liminf_at_carrier": 0.0}]}


def _flat_with(values_at):
    return {"interval": [-1.0, 1.0], "values_at": values_at, "pieces": [
        {"kind": "finite_analytic", "span": [-1.0, 1.0], "expr": "0"}]}


@pytest.mark.parametrize("spec, pointer", [
    (_spike(value="nan"), "/pieces/0"),
    (_spike(value="inf"), "/pieces/0"),
    (_spike(background="nan"), "/pieces/0"),
    (_spike(background="inf"), "/pieces/0"),
    (_comb("nan"), "/pieces/0"),
    (_comb("inf"), "/pieces/0"),
    (_flat_with({"0.5": "inf"}), "/values_at/0.5"),
    (_flat_with({"0.5": "nan"}), "/values_at/0.5"),
    (_flat_with({"5.0": 3.0}), "/values_at/5.0"),
    (_flat_with({"nan": 1.0}), "/values_at/nan"),
    (_flat_with({"-1.0": 0.0}), "/values_at/-1.0"),
])
def test_values_of_psi_outside_the_extended_line_are_rejected(spec, pointer):
    # psi takes values in [-inf, +inf) at heights strictly inside I
    with pytest.raises(ValidationError) as err:
        psi_from_dict(spec)
    assert str(err.value).startswith(pointer + ":"), err.value


def test_minus_inf_values_of_psi_still_load():
    psi = psi_from_dict(_spike(background="-inf"))
    assert psi.value(0.5) == -math.inf and psi.value(0.0) == 1.0


# -- declared numbers that are not values of psi -------------------------------


def _with_limit(**limit):
    lim = {"liminf": 0.0, "limsup": 0.0, **limit}
    return {"interval": [-1.0, 1.0], "pieces": [
        {"kind": "finite_analytic", "span": [-1.0, 1.0], "expr": "0",
         "limits": {"left": lim, "right": {"liminf": 0.0, "limsup": 0.0}}}]}


def _with_tail(**env):
    env = {"kind": "affine", "m": 0.0, "c": 0.0, **env}
    return {"interval": ["-inf", "inf"], "pieces": [
        {"kind": "finite_analytic", "span": ["-inf", "inf"], "expr": "0",
         "tail_lower": env}]}


def _comb_with(**declared):
    spec = _comb(1.0)
    spec["pieces"][0].update(declared)
    return spec


@pytest.mark.parametrize("spec, pointer, field", [
    (_with_limit(liminf="nan"), "/pieces/0/limits/left", "liminf"),
    (_with_limit(limsup=math.nan), "/pieces/0/limits/left", "limsup"),
    (_with_tail(m="nan"), "/pieces/0/tail_lower", "m"),
    (_with_tail(c=math.nan), "/pieces/0/tail_lower", "c"),
    (_with_tail(kind="log_pow", C="nan", a=1.0, D=0.0), "/pieces/0/tail_lower", "C"),
    (_with_tail(kind="log_pow", C=1.0, a="nan", D=0.0), "/pieces/0/tail_lower", "a"),
    (_with_tail(valid_from="nan"), "/pieces/0/tail_lower", "valid_from"),
    (_comb_with(off_limsup_at_carrier="nan"), "/pieces/0", "off_limsup_at_carrier"),
    (_comb_with(off_liminf_at_carrier=math.nan), "/pieces/0", "off_liminf_at_carrier"),
])
def test_nan_declared_numbers_are_rejected_at_their_path(spec, pointer, field):
    # a NaN compares false with everything, so it would pass every check
    # that reads it and could turn a verdict into a silent "yes"
    with pytest.raises(ValidationError) as err:
        psi_from_dict(spec)
    assert str(err.value).startswith(f"{pointer}: {field} must be a number"), err.value


ENVELOPES = {
    "affine": {"kind": "affine", "m": 0.0, "c": 0.0, "valid_from": 0.0},
    "const": {"kind": "const", "c": 0.0, "valid_from": 0.0},
    "log_pow": {"kind": "log_pow", "C": 1.0, "a": 0.5, "D": 0.0, "valid_from": 0.0},
}


@pytest.mark.parametrize("kind, key", [
    (kind, key) for kind, env in ENVELOPES.items() for key in env if key != "kind"
])
def test_nan_envelope_numbers_are_reported_under_their_json_key(kind, key):
    # log_pow's D sets the envelope's constant c, but the message names D
    with pytest.raises(ValidationError) as err:
        psi_from_dict(_with_tail(**{**ENVELOPES[kind], key: "nan"}))
    assert str(err.value) == f"/pieces/0/tail_lower: {key} must be a number, got nan"
