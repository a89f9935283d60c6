import json
import math

import pytest
from hypothesis import given, settings, strategies as st

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
        ([{"kind": "minus_infinity", "span": 3}], "/pieces/0/span"),
        # the tiling is checked on the pieces sorted by span, and reported
        # at the JSON index of the piece at fault
        ([{"kind": "minus_infinity", "span": [0.7, 0.7]},
          {"kind": "minus_infinity", "span": [0, 1]}], "/pieces/0/span"),
        ([{"kind": "minus_infinity", "span": [0.5, 1]},
          {"kind": "minus_infinity", "span": [0, 0.4]}], "/pieces/0/span"),
        ([{"kind": "minus_infinity", "span": [0.3, 1]},
          {"kind": "minus_infinity", "span": [0, 0.5]}], "/pieces/0/span"),
        ([{"kind": "minus_infinity", "span": [0, 0.5]},
          {"kind": "minus_infinity", "span": [0.5, 0.9]}], "/pieces/1/span"),
        ([{"kind": "minus_infinity", "span": [0.2, 1]}], "/pieces/0/span"),
        ([{"kind": "point_spike", "span": [0, 1], "c0": 2, "value": 1, "background": 0}],
         "/pieces/0/c0"),
        ([{"kind": "oscillatory", "span": [0, 1], "expr": "0",
           "limits": {"left": {"liminf": 0, "limsup": 0}}}], "/pieces/0/limits"),
        ([{"kind": "cantor_comb", "span": [0, 1], "carrier": {"base": [0.5, 2.0]},
           "on_value": 1.0}], "/pieces/0/carrier"),
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


# -- missing required keys ------------------------------------------------------

REQUIRED = {
    "finite_analytic": ({"span": [-1.0, 1.0], "expr": "0"}, ("span", "expr")),
    "oscillatory": (
        {"span": [-1.0, 1.0], "expr": "0", "limits": {
            "left": {"liminf": 0, "limsup": 0}, "right": {"liminf": 0, "limsup": 0}}},
        ("span", "expr"),
    ),
    "minus_infinity": ({"span": [-1.0, 1.0]}, ("span",)),
    "point_spike": (
        {"span": [-1.0, 1.0], "c0": 0.0, "value": 1.0, "background": 0.0},
        ("span", "c0", "value", "background"),
    ),
    "cantor_comb": (
        {"span": [-1.0, 1.0], "carrier": {"base": [0.0, 1.0]}, "on_value": 1.0},
        ("span", "carrier", "on_value"),
    ),
}


@pytest.mark.parametrize("kind, key", [
    (kind, key) for kind, (_, keys) in REQUIRED.items() for key in keys
])
def test_a_missing_required_key_is_reported_at_its_path(kind, key):
    piece = {"kind": kind, **REQUIRED[kind][0]}
    psi_from_dict({"interval": [-1.0, 1.0], "pieces": [piece]})
    del piece[key]
    with pytest.raises(ValidationError) as err:
        psi_from_dict({"interval": [-1.0, 1.0], "pieces": [piece]})
    assert str(err.value) == f"/pieces/0/{key}: missing required key"


def test_a_carrier_without_a_base_is_reported_at_its_path():
    spec = _comb(1.0)
    del spec["pieces"][0]["carrier"]["base"]
    with pytest.raises(ValidationError) as err:
        psi_from_dict(spec)
    assert str(err.value) == "/pieces/0/carrier/base: missing required key"


# -- errors inside a piece point at the field -----------------------------------

_FLAT = {"kind": "finite_analytic", "span": [-1.0, 1.0], "expr": "0"}
_SPIKE = {"kind": "point_spike", "span": [-1.0, 1.0], "c0": 0.0, "value": 1.0, "background": 0.0}
_COMB = {"kind": "cantor_comb", "span": [-1.0, 1.0], "carrier": {"base": [0.0, 1.0]},
         "on_value": 1.0, "off_expr": "0"}

# (piece, bad field, its value, the message after the field's path)
BAD_FIELDS = [
    (_FLAT, "expr", "log(", "expected a value (at position 4)"),
    (_FLAT, "expr", 5, "expected a string, got int"),
    (_FLAT, "span", ["a", 1.0], "could not convert string to float: 'a'"),
    (_COMB, "off_expr", "2 +", "expected a value (at position 3)"),
    (_COMB, "on_value", "one", "could not convert string to float: 'one'"),
    (_SPIKE, "c0", "zero", "could not convert string to float: 'zero'"),
    (_SPIKE, "value", None, "float() argument must be a string or a real number, not 'NoneType'"),
    (_SPIKE, "background", "low", "could not convert string to float: 'low'"),
]


@pytest.mark.parametrize("piece, field, value, message", BAD_FIELDS)
def test_an_error_inside_a_piece_is_reported_at_its_field(piece, field, value, message):
    spec = {"interval": [-1.0, 1.0], "pieces": [{**piece, field: value}]}
    with pytest.raises(ValidationError) as err:
        psi_from_dict(spec)
    assert str(err.value) == f"/pieces/0/{field}: {message}"


def test_folding_leaves_the_saved_formula_as_written(tmp_path):
    # the compile folds y-free subformulas; the source text is what saves
    spec = {"interval": [-1.0, 1.0], "pieces": [
        {"kind": "finite_analytic", "span": [-1.0, 1.0], "expr": "2*pi - (1/2)*y^2"},
    ]}
    psi = psi_from_dict(spec)
    path = tmp_path / "d.json"
    save_psi(psi, path)
    assert json.loads(path.read_text())["pieces"][0]["expr"] == "2*pi - (1/2)*y^2"
    assert psi_to_dict(load_psi(path)) == psi_to_dict(psi)


# -- one spelling per psi --------------------------------------------------------


def _decide_json(spec):
    from koenigslab.completeness import decide

    return json.dumps(decide(psi_from_dict(spec), p=1.0), sort_keys=True, default=str)


def _background(span, v):
    """psi = v on span, spelled as a piece: a constant formula with its
    exact limits, or minus_infinity."""
    if v == -math.inf:
        return {"kind": "minus_infinity", "span": list(span)}
    lim = {"liminf": v, "limsup": v}
    return {"kind": "finite_analytic", "span": list(span), "expr": repr(v),
            "limits": {"left": lim, "right": lim}}


def _spike_spellings(a, b, c0, value, background):
    """The same psi as one point_spike piece and as pieces plus values_at."""
    bg = "-inf" if background == -math.inf else background
    spike = {"interval": [a, b], "pieces": [
        {"kind": "point_spike", "span": [a, b], "c0": c0, "value": value, "background": bg}]}
    points = {"interval": [a, b],
              "pieces": [_background((a, c0), background), _background((c0, b), background)],
              "values_at": {repr(c0): value}}
    return spike, points


@st.composite
def _spikes(draw):
    a = draw(st.floats(-10.0, 10.0))
    b = a + draw(st.floats(0.1, 10.0))
    c0 = a + (b - a) * draw(st.floats(0.01, 0.99))
    background = draw(st.one_of(st.just(-math.inf), st.floats(-10.0, 10.0)))
    if background == -math.inf:
        value = draw(st.floats(-10.0, 10.0))
    else:
        value = background + draw(st.floats(0.01, 10.0))
    return a, b, c0, value, background


@given(_spikes())
@settings(max_examples=60, deadline=None)
def test_a_spike_decides_alike_in_either_spelling(spike):
    # the isolated exceedance is a fact about psi: it was found only when
    # the spec spelled it point_spike
    as_spike, as_points = _spike_spellings(*spike)
    assert _decide_json(as_points) == _decide_json(as_spike)
    assert psi_to_dict(psi_from_dict(as_points)) == psi_to_dict(psi_from_dict(as_spike))


def test_a_spike_at_a_junction_of_two_backgrounds_is_found():
    spec = {"interval": [-1.0, 1.0],
            "pieces": [_background((-1.0, 0.0), 0.0), _background((0.0, 1.0), -1.0)],
            "values_at": {"0.0": 1.0}}
    out = json.loads(_decide_json(spec))
    assert out["features"]["spikes"] == [[0.0, 0.5]]
    assert out["p_complete"] == "no"


def test_the_slit_plane_loads_in_either_spelling():
    # psi = -inf on R but for psi(0) = 1: the plane less a horizontal
    # half-line, not the whole plane
    as_spike, as_points = _spike_spellings(-math.inf, math.inf, 0.0, 1.0, -math.inf)
    as_spike["interval"] = as_points["interval"] = ["-inf", "inf"]
    as_spike["pieces"][0]["span"] = ["-inf", "inf"]
    psi = psi_from_dict(as_points)
    assert psi.value(0.0) == 1.0 and psi.minus_infinity_components() == [
        (-math.inf, 0.0), (0.0, math.inf)
    ]
    assert psi_to_dict(psi) == psi_to_dict(psi_from_dict(as_spike))
    assert _decide_json(as_points) == _decide_json(as_spike)
    whole = {**as_points, "values_at": {"0.0": "-inf"}}
    with pytest.raises(ValidationError, match="whole plane"):
        psi_from_dict(whole)


def test_a_spike_declared_twice_names_both_paths():
    spec = {**_spike(), "values_at": {"0.0": 2.0}}
    with pytest.raises(ValidationError) as err:
        psi_from_dict(spec)
    assert str(err.value).startswith("/values_at/0.0:") and "/pieces/0/c0" in str(err.value)


def test_loaded_spellings_save_in_canonical_form():
    d = {"interval": [0.0, 1.0], "pieces": [
        {"kind": "oscillatory", "span": [0.0, 1.0], "expr": "0",
         "limits": {"left": {"liminf": 0, "limsup": 0}, "right": {"liminf": 0, "limsup": 0}}}]}
    assert psi_to_dict(psi_from_dict(d))["pieces"][0]["kind"] == "finite_analytic"
    saved = psi_to_dict(psi_from_dict(_spike(background="-inf")))
    assert [p["kind"] for p in saved["pieces"]] == ["minus_infinity", "minus_infinity"]
    assert saved["values_at"] == {"0.0": 1.0}


def test_a_finite_value_inside_a_minus_inf_piece_cuts_its_component():
    # the -inf components once ignored a point value that is not a piece
    # junction, so one minus_infinity piece and two gave other gaps
    one = {"interval": [-1.0, 1.0], "pieces": [{"kind": "minus_infinity", "span": [-1.0, 1.0]}],
           "values_at": {"0.0": 1.0}}
    spike, _ = _spike_spellings(-1.0, 1.0, 0.0, 1.0, -math.inf)
    assert psi_from_dict(one).minus_infinity_components() == [(-1.0, 0.0), (0.0, 1.0)]
    assert _decide_json(one) == _decide_json(spike)
