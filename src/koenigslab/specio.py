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
      ],
      "values_at": {"c": v}                  # optional: psi at junction heights
    }

``point_spike`` and ``oscillatory`` are spellings that the loader
rewrites: a spike is its background on [a, c0] and on [c0, b] (a constant
``finite_analytic`` piece with exact limits, or ``minus_infinity``) plus
the value of psi at c0, which ``values_at`` may not declare again, and an
oscillatory piece is a ``finite_analytic`` one whose endpoint limits are
required.  Saving writes that canonical form.

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
    PiecewiseDefiningFunction,
    TailEnvelope,
    ValidationError,
    _as_float,
    _json_float,
    constant_piece,
    point_value,
    psi_value,
    reject_nan,
)
from .expr import Expression, parse_expression


def _pair(value):
    a, b = value
    return (_as_float(a), _as_float(b))


def _field(obj, key, convert=float):
    """convert(obj[key]), a malformed value reported at /key."""
    return _at(f"/{key}", convert, obj[key])


def _expression(obj, key):
    """The formula obj[key], an error in it reported at /key."""
    return _at(f"/{key}", parse_expression, _expect(f"/{key}", obj[key], str, "a string"))


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
    """(pieces, {height: value of psi}) that one JSON piece declares."""
    kind = obj.get("kind")
    if kind in ("finite_analytic", "oscillatory"):
        left, right = _limits(obj)
        if kind == "oscillatory" and (left is None or right is None):
            raise ValidationError("oscillatory pieces require declared endpoint limits", "limits")
        return (FiniteAnalytic(
            span=_field(obj, "span", _pair),
            evaluator=_expression(obj, "expr"),
            limits_left=left,
            limits_right=right,
            tail_lower=_tail(obj, "tail_lower"),
            tail_upper=_tail(obj, "tail_upper"),
        ),), {}
    if kind == "minus_infinity":
        return (MinusInfinity(span=_field(obj, "span", _pair)),), {}
    if kind == "point_spike":
        a, b = _field(obj, "span", _pair)
        c0 = _field(obj, "c0")
        if not a < c0 < b:
            raise ValidationError("spike location must be interior to its span", "c0")
        value = psi_value(_field(obj, "value"))
        background = psi_value(_field(obj, "background", _as_float))
        return tuple(constant_piece(s, background) for s in ((a, c0), (c0, b))), {c0: value}
    if kind == "cantor_comb":
        declared = {
            key: _field(obj, key)
            for key in ("off_limsup_at_carrier", "off_liminf_at_carrier")
            if obj.get(key) is not None
        }
        return (CantorCarrierPiece(
            span=_field(obj, "span", _pair),
            carrier=_field(obj, "carrier", CantorSet.from_json),
            on_value=_field(obj, "on_value"),
            off_evaluator=(
                _expression(obj, "off_expr") if "off_expr" in obj else parse_expression("0")
            ),
            **declared,
        ),), {}
    raise ValidationError(f"unknown piece kind {kind!r}")


def piece_to_json(p):
    span = [_json_float(p.span[0]), _json_float(p.span[1])]
    if isinstance(p, FiniteAnalytic):
        if not isinstance(p.evaluator, Expression):
            raise ValidationError("cannot serialize a piece without expression source")
        out = {"kind": "finite_analytic", "span": span, "expr": p.evaluator.source}
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
    error that already points at a sub-path or names its field is extended
    to the full path, and a key missing from the object arg points at that
    key."""
    try:
        return convert(arg)
    except (KeyError, TypeError, ValueError) as exc:
        msg = str(exc)
        if isinstance(exc, KeyError) and isinstance(arg, dict) and exc.args[0] not in arg:
            msg = f"/{exc.args[0]}: missing required key"
        elif isinstance(exc, ValidationError) and exc.field:
            msg = f"/{exc.field}: {msg}"
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
    pieces, values_at = [], {}
    owner, spike_at = {}, {}  # id of a piece, height of a spike -> its JSON path
    for i, pobj in enumerate(_expect("/pieces", obj.get("pieces", []), list, "a list")):
        path = f"/pieces/{i}"
        made, values = _at(path, piece_from_json, _expect(path, pobj, dict, "an object"))
        pieces.extend(made)
        values_at.update(values)
        owner.update((id(p), path) for p in made)
        spike_at.update(dict.fromkeys(values, path))
    for k, v in _expect("/values_at", obj.get("values_at") or {}, dict, "an object").items():
        path = f"/values_at/{k}"
        y = _at(path, float, k)
        if y in spike_at:
            raise ValidationError(f"{path}: psi({y}) is already the spike at {spike_at[y]}/c0")
        values_at[y] = _at(path, lambda s: point_value(y, _as_float(s), lo, hi), v)
    try:
        return PiecewiseDefiningFunction(
            lo, hi, tuple(pieces), name=obj.get("name", ""), point_values=values_at
        )
    except ValidationError as exc:
        if exc.piece is None:
            raise
        raise ValidationError(f"{owner[id(exc.piece)]}/{exc.field}: {exc}") from exc


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
