"""Domain-spec JSON files: load/save PiecewiseDefiningFunction.

Schema::

    {
      "name": "strip",                       # optional
      "interval": [lo, hi],                  # "-inf"/"inf" sentinels allowed
      "pieces": [
        {"kind": "finite_analytic", "span": [a, b], "expr": "...",
         "limits": {"left": {"liminf": ..., "limsup": ...}, "right": {...}},   # optional
         "tail_lower": {...}, "tail_upper": {...}},                            # optional
        {"kind": "minus_infinity", "span": [a, b]},
        {"kind": "point_spike", "span": [a, b], "c0": c, "value": v,
         "background": w},
        {"kind": "cantor_comb", "span": [a, b],
         "carrier": {"base": [a, b], "keep_fraction": f, "depth": d},
         "on_value": v, "off_expr": "...",
         "off_limsup_at_carrier": s, "off_liminf_at_carrier": t},              # optional
        {"kind": "oscillatory", "span": [a, b], "expr": "...",
         "limits": {"left": {...}, "right": {...}}}                            # required
      ]
    }

A tail envelope is {"kind": "affine", "m": m, "c": c}, {"kind": "const",
"c": c} or {"kind": "log_pow", "C": C, "a": a, "D": D}, each with an
optional "valid_from".  The three kinds spell the one form
m*y + c - C*(log(|y| + 3))**a of ``TailEnvelope``; a loaded ``const`` saves
as ``affine`` with m = 0.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

from .cantor import CantorSet
from .domain import (
    CantorCarrierPiece,
    FiniteAnalytic,
    LimitData,
    MinusInfinity,
    OscillatorySample,
    PiecewiseDefiningFunction,
    PointSpike,
    TailEnvelope,
    ValidationError,
    _as_float,
    _json_float,
    point_value,
    reject_nan,
)
from .expr import Expression, parse_expression


def _span(obj):
    a, b = obj["span"]
    return (_as_float(a), _as_float(b))


def _limits(obj):
    lims = obj.get("limits") or {}
    return tuple(
        _at(f"/limits/{side}", LimitData.from_json, lims[side]) if side in lims else None
        for side in ("left", "right")
    )


def _tail(obj, key):
    return _at(f"/{key}", envelope_from_json, obj[key]) if key in obj else None


# the TailEnvelope field that each JSON key of a spelling declares
_ENVELOPE_FIELDS = {
    "affine": {"m": "m", "c": "c"}, "const": {"c": "c"}, "log_pow": {"C": "C", "a": "a", "D": "c"},
}


def envelope_from_json(obj) -> TailEnvelope:
    """A ``TailEnvelope`` from any of its three spellings; a NaN is
    reported under its JSON key."""
    keys = _ENVELOPE_FIELDS.get(obj["kind"])
    if keys is None:
        raise ValidationError(f"unknown envelope kind {obj['kind']!r}")
    declared = {"valid_from": float(obj.get("valid_from", 0.0))}
    declared.update((key, float(obj[key])) for key in keys)
    reject_nan(SimpleNamespace(**declared), *declared)
    return TailEnvelope(**{keys.get(key, key): v for key, v in declared.items()})


def envelope_to_json(env: TailEnvelope):
    """'affine' without a log term, 'log_pow' without a slope."""
    if env.C == 0:
        return {"kind": "affine", "m": env.m, "c": env.c, "valid_from": env.valid_from}
    if env.m == 0:
        return {
            "kind": "log_pow", "C": env.C, "a": env.a, "D": env.c,
            "valid_from": env.valid_from,
        }
    raise ValidationError("cannot serialize a tail envelope with both a slope and a log term")


def piece_from_json(obj):
    kind = obj.get("kind")
    if kind in ("finite_analytic", "oscillatory"):
        left, right = _limits(obj)
        return (OscillatorySample if kind == "oscillatory" else FiniteAnalytic)(
            span=_span(obj),
            evaluator=parse_expression(obj["expr"]),
            limits_left=left,
            limits_right=right,
            tail_lower=_tail(obj, "tail_lower"),
            tail_upper=_tail(obj, "tail_upper"),
        )
    if kind == "minus_infinity":
        return MinusInfinity(span=_span(obj))
    if kind == "point_spike":
        return PointSpike(
            span=_span(obj),
            c0=float(obj["c0"]),
            spike_value=float(obj["value"]),
            background=_as_float(obj["background"]),
        )
    if kind == "cantor_comb":
        return CantorCarrierPiece(
            span=_span(obj),
            carrier=CantorSet.from_json(obj["carrier"]),
            on_value=float(obj["on_value"]),
            off_evaluator=parse_expression(obj.get("off_expr", "0")),
            off_limsup_at_carrier=(
                None
                if obj.get("off_limsup_at_carrier") is None
                else float(obj["off_limsup_at_carrier"])
            ),
            off_liminf_at_carrier=(
                None
                if obj.get("off_liminf_at_carrier") is None
                else float(obj["off_liminf_at_carrier"])
            ),
        )
    raise ValidationError(f"unknown piece kind {kind!r}")


def piece_to_json(p):
    span = [_json_float(p.span[0]), _json_float(p.span[1])]
    if isinstance(p, FiniteAnalytic):  # OscillatorySample included
        if not isinstance(p.evaluator, Expression):
            raise ValidationError("cannot serialize a piece without expression source")
        kind = "oscillatory" if isinstance(p, OscillatorySample) else "finite_analytic"
        out = {"kind": kind, "span": span, "expr": p.evaluator.source}
        lims = {}
        if p.limits_left is not None:
            lims["left"] = p.limits_left.to_json()
        if p.limits_right is not None:
            lims["right"] = p.limits_right.to_json()
        if lims:
            out["limits"] = lims
        if p.tail_lower is not None:
            out["tail_lower"] = envelope_to_json(p.tail_lower)
        if p.tail_upper is not None:
            out["tail_upper"] = envelope_to_json(p.tail_upper)
        return out
    if isinstance(p, MinusInfinity):
        return {"kind": "minus_infinity", "span": span}
    if isinstance(p, PointSpike):
        return {
            "kind": "point_spike",
            "span": span,
            "c0": p.c0,
            "value": p.spike_value,
            "background": _json_float(p.background),
        }
    if isinstance(p, CantorCarrierPiece):
        if not isinstance(p.off_evaluator, Expression):
            raise ValidationError("cannot serialize a carrier piece without off-expression source")
        out = {
            "kind": "cantor_comb",
            "span": span,
            "carrier": p.carrier.to_json(),
            "on_value": p.on_value,
            "off_expr": p.off_evaluator.source,
        }
        if p.off_limsup_at_carrier is not None:
            out["off_limsup_at_carrier"] = p.off_limsup_at_carrier
        if p.off_liminf_at_carrier is not None:
            out["off_liminf_at_carrier"] = p.off_liminf_at_carrier
        return out
    raise ValidationError(f"cannot serialize {type(p).__name__}")


def _at(path, convert, arg):
    """convert(arg), with a malformed-input error pointing at path; an
    error that already points at a sub-path is extended to the full one."""
    try:
        return convert(arg)
    except (KeyError, TypeError, ValueError) as exc:
        msg = str(exc)
        raise ValidationError(f"{path}{'' if msg.startswith('/') else ': '}{msg}") from exc


def _expect(path, value, kind, what):
    if not isinstance(value, kind):
        raise ValidationError(f"{path}: expected {what}, got {type(value).__name__}")
    return value


def psi_from_dict(obj) -> PiecewiseDefiningFunction:
    try:
        lo, hi = map(_as_float, obj["interval"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"/interval: expected [lo, hi] ({exc})") from exc
    pieces = []
    for i, pobj in enumerate(_expect("/pieces", obj.get("pieces", []), list, "a list")):
        path = f"/pieces/{i}"
        pieces.append(_at(path, piece_from_json, _expect(path, pobj, dict, "an object")))
    values_at = {}
    for k, v in _expect("/values_at", obj.get("values_at") or {}, dict, "an object").items():
        path = f"/values_at/{k}"
        y = _at(path, float, k)
        values_at[y] = _at(path, lambda s: point_value(y, _as_float(s), lo, hi), v)
    return PiecewiseDefiningFunction(
        lo,
        hi,
        tuple(pieces),
        name=obj.get("name", ""),
        point_values=values_at,
    )


def psi_to_dict(psi: PiecewiseDefiningFunction):
    out = {
        "interval": [_json_float(psi.interval_lo), _json_float(psi.interval_hi)],
        "pieces": [piece_to_json(p) for p in psi.pieces],
    }
    if psi.point_values:
        out["values_at"] = {repr(k): _json_float(v) for k, v in psi.point_values.items()}
    if psi.name:
        out["name"] = psi.name
    return out


def load_psi(path) -> PiecewiseDefiningFunction:
    with open(path, "r", encoding="utf-8") as fh:
        return psi_from_dict(json.load(fh))


def save_psi(psi, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(psi_to_dict(psi), fh, indent=2, sort_keys=True)
        fh.write("\n")
