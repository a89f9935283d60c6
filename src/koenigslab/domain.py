"""Piecewise defining functions psi for starlike-at-infinity domains.

A domain here is ``{x + iy : y in I, x > psi(y)}`` for an upper
semicontinuous ``psi: I -> [-inf, +inf)`` on an open interval I.  psi is
stored as a list of typed pieces and point values with declared structure
(one-sided limit metadata, Cantor carriers, tail envelopes), because
semicontinuity and liminf/limsup questions are not decidable from finite
samples alone.  Everything numeric is flagged; declared structure is
treated as exact.

The module also computes the two regularizations used by the completeness
criteria: the lower semicontinuous envelope ``psi_*`` (pointwise liminf)
and the upper semicontinuous envelope of that, ``psi~``.  A psi is
validated when it is built and is immutable from then on; validation
builds a ``DomainFacts`` record with every structural fact the criteria
read, so each one is computed once per psi and cannot go stale.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .cantor import CantorSet
from .expr import Evaluator, parse_expression
from .tri import TriState

NEG_INF = float("-inf")
POS_INF = float("inf")

# value beyond which a monotone dyadic sample trend is read as divergence
_DIVERGE_RATIO = 0.9
_STAB_TOL = 1e-9
_DYADIC_DEPTH = 40
_DYADIC_STEPS = np.ldexp(1.0, -np.arange(1, _DYADIC_DEPTH + 1))  # 2^-k
_ROW_SAMPLES = 64  # midpoints sampled per row by ``row_bounds``


class ValidationError(ValueError):
    """An invalid psi.  ``field`` names the field at fault, when one is,
    and ``piece`` the piece that holds it, so the spec loader can point at
    its JSON path."""

    def __init__(self, message, field=None, piece=None):
        super().__init__(message)
        self.field, self.piece = field, piece


def _as_float(v):
    if isinstance(v, str):
        s = v.strip().lower()
        if s in ("inf", "+inf", "infinity"):
            return POS_INF
        if s in ("-inf", "-infinity"):
            return NEG_INF
        return float(v)
    return float(v)


def psi_value(v):
    """v as a value of psi, which lies in [-inf, +inf)."""
    if math.isnan(v) or v == POS_INF:
        raise ValidationError(f"a value of psi must lie in [-inf, +inf), got {v}")
    return v


def reject_nan(obj, *names):
    """Reject NaN in the declared numbers ``names`` of ``obj``: a NaN
    compares false with everything, so every check that reads it would
    let it through and the verdict could be a silent yes."""
    for name in names:
        v = getattr(obj, name)
        if v is not None and math.isnan(v):
            raise ValidationError(f"{name} must be a number, got {v}")


def point_value(y, v, lo, hi):
    """A declared psi(y) = v: y strictly inside I = (lo, hi), v a value of psi."""
    if not lo < y < hi:
        raise ValidationError(f"height {y} is not inside I = ({lo}, {hi})")
    return psi_value(v)


def _json_float(v):
    if v == POS_INF:
        return "inf"
    if v == NEG_INF:
        return "-inf"
    return v


def _shift(v, d):
    """v + d for a finite v; an infinite v (or None) stays as it is."""
    return v + d if v is not None and math.isfinite(v) else v


@dataclass(frozen=True)
class LimitData:
    """One-sided liminf/limsup with an exactness flag."""

    liminf: float
    limsup: float
    exact: bool = True
    inconclusive: bool = False

    def __post_init__(self):
        reject_nan(self, "liminf", "limsup")
        if not self.inconclusive and self.liminf > self.limsup:
            raise ValidationError("declared liminf exceeds limsup")

    @staticmethod
    def inconclusive_data() -> "LimitData":
        return LimitData(NEG_INF, POS_INF, exact=False, inconclusive=True)

    @staticmethod
    def from_json(obj) -> "LimitData":
        return LimitData(_as_float(obj["liminf"]), _as_float(obj["limsup"]))

    def to_json(self):
        return {"liminf": _json_float(self.liminf), "limsup": _json_float(self.limsup)}

    def shifted(self, dx) -> "LimitData":
        return replace(self, liminf=_shift(self.liminf, dx), limsup=_shift(self.limsup, dx))


@dataclass(frozen=True)
class OneSidedLimits:
    """Limits of psi at a height from each side; a side is None outside
    closure(I)."""

    left: Optional[LimitData]
    right: Optional[LimitData]

    def side(self, side) -> Optional[LimitData]:
        return self.left if side == "left" else self.right

    @property
    def sides(self):
        """The limits from the sides that lie in closure(I)."""
        if self.left is None or self.right is None:
            return (self.left or self.right,)
        return (self.left, self.right)

    @property
    def inconclusive(self):
        return (self.left is not None and self.left.inconclusive) or (
            self.right is not None and self.right.inconclusive
        )


@dataclass(frozen=True)
class TailEnvelope:
    """Declared asymptotic bound g(y) = m*y + c - C*(log(|y| + 3))**a,
    valid where |y| >= valid_from."""

    m: float = 0.0
    c: float = 0.0
    C: float = 0.0
    a: float = 0.0
    valid_from: float = 0.0

    def __post_init__(self):
        reject_nan(self, "m", "c", "C", "a", "valid_from")

    def value(self, y):
        y = np.asarray(y, dtype=float)
        g = self.m * y + self.c
        if self.C:
            g = g - self.C * np.log(np.abs(y) + 3.0) ** self.a
        return g

    @property
    def drifts(self):
        """g - m*y runs to -inf, more slowly than any line."""
        return self.C > 0 and self.a > 0

    def slopes(self, tail):
        """Slopes s for which g - s*y stays bounded below on ``tail``
        ('upper' or 'lower'), as an interval.

        For a lower envelope these slopes are feasible on that tail; an
        upper envelope kills every other slope, since psi - s*y runs to
        -inf there.  A drifting envelope runs to -inf slower than any
        line, so its own slope is excluded: the interval is open at m.
        """
        towards = NEG_INF if tail == "upper" else POS_INF
        m0 = math.nextafter(self.m, towards) if self.drifts else self.m
        return (NEG_INF, m0) if tail == "upper" else (m0, POS_INF)

    def floor(self, s, R, coef, a):
        """A closed-form floor on f(t) = s*t + c - C*L**b + coef*L**a over
        t >= R, where b = self.a and L = log(t + 3) > 1, or None.

        On the tail where y has sign sg, f(|y|) = g(y) - m*y + coef*L**a
        for s = (self.m - m)*sg.  Needs s >= 0 (else None) and coef, a >= 0,
        so that coef*L**a >= 0 may be dropped.  With h = s*t + c - C*L**b:

        * not drifting (C <= 0, or b <= 0 and L**b <= 1): s*R + c - max(C, 0);
        * coef >= C and a >= b: coef*L**a >= C*L**b, so s*R + c;
        * s > 0, L(R) >= b - 1 and s >= C*b*L(R)**(b-1)/(R+3): h(R), since
          h' = s - C*b*L**(b-1)/(t+3), and L**(b-1)/(t+3) has derivative
          L**(b-2)*(b-1-L)/(t+3)**2 <= 0 once L >= b - 1;
        * s > 0 and b <= 1: L**b <= L, and s*t + c - C*log(t+3) is convex
          with its minimum over t >= R at t = max(R, C/s - 3).
        """
        if s < 0:
            return None
        if not self.drifts:
            return s * R + self.c - max(self.C, 0.0)
        if coef >= self.C and a >= self.a:
            return s * R + self.c
        if s > 0:
            b, L = self.a, math.log(R + 3.0)
            if L >= b - 1.0 and s >= self.C * b * L ** (b - 1.0) / (R + 3.0):
                return s * R + self.c - self.C * L ** b
            if b <= 1.0:
                t = max(R, self.C / s - 3.0)
                return s * t + self.c - self.C * math.log(t + 3.0)
        return None

    def translated(self, dx, dy, role):
        """A bound of the same role ('lower' or 'upper') on psi(y - dy) + dx.

        The affine part moves exactly and holds |dy| further out.  For
        a <= 1 the map x -> x^a is subadditive, which yields a constant
        slack |C| * (log(1 + |dy|/3))^a on the log term.  For a > 1,
        log(|y - dy| + 3) / log(|y| + 3) lies in [1/K, K] with
        K = 1 + log(1 + |dy|/3) / log 3 on |y| >= |dy|, so C is scaled by
        K^a or K^-a, whichever moves the bound away from psi."""
        c, C, valid_from = self.c, self.C, self.valid_from
        if dy:
            c -= self.m * dy
            if C and self.a <= 1.0:
                slack = abs(C) * max(math.log1p(abs(dy) / 3.0), math.log(2.0)) ** self.a
                c += -slack if role == "lower" else slack
            elif C:
                K = 1.0 + math.log1p(abs(dy) / 3.0) / math.log(3.0)
                C *= K ** (self.a if (role == "lower") == (C > 0) else -self.a)
            if C:
                valid_from = max(valid_from, 2.0 * abs(dy))
            valid_from += abs(dy)
        return replace(self, c=c + dx, C=C, valid_from=valid_from)


def dyadic_limit_estimate(f, y0, side, delta=1.0):
    """Estimate lim f(t) as t -> y0 from one side by dyadic sampling at
    y0 +- delta 2^-k, k = 1, ..., 40.

    Returns LimitData.  Stabilization: the last 8 samples agree to
    _STAB_TOL relative; monotone divergence is read as an infinite limit.
    Oscillation that neither stabilizes nor diverges is inconclusive.

    f is an ``Evaluator``, read through ``_ladder_values``: the 40 heights
    are one array, with the association of a height-by-height loop, and
    the samples kept are f's finite values there, in ladder order.
    """
    sgn = -1.0 if side == "left" else 1.0
    vals = _ladder_values(f, y0 + sgn * delta * _DYADIC_STEPS)
    if len(vals) < 10:
        return LimitData.inconclusive_data()
    tail = vals[-8:]
    if max(tail) - min(tail) < _STAB_TOL * max(1.0, max(abs(v) for v in tail)):
        v = tail[-1]
        return LimitData(v, v, exact=False)
    # monotone divergence: increments keep their sign and do not decay
    diffs = [b - a for a, b in zip(vals[-12:-1], vals[-11:])]
    if len(diffs) >= 8 and all(d > 0 for d in diffs):
        ratios = [b / a for a, b in zip(diffs, diffs[1:]) if a > 0]
        if ratios and min(ratios) > _DIVERGE_RATIO:
            return LimitData(POS_INF, POS_INF, exact=False)
    if len(diffs) >= 8 and all(d < 0 for d in diffs):
        ratios = [b / a for a, b in zip(diffs, diffs[1:]) if a < 0]
        if ratios and min(ratios) > _DIVERGE_RATIO:
            return LimitData(NEG_INF, NEG_INF, exact=False)
    return LimitData.inconclusive_data()


def _ladder_values(f, ts):
    """The finite values of the evaluator f at the heights ts, in order,
    from one unchecked call."""
    vals = f(ts, check=False)
    return vals[np.isfinite(vals)].tolist()


# ---------------------------------------------------------------------------
# pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Piece:
    """psi on one span of I.

    Callers read a piece only through this protocol and never test its
    kind: ``value``, ``side_limits`` (limits of psi), ``side_limits_lsc``
    (limits of psi_*), ``row_bounds`` (bounds on rows of heights, the one
    row-bounds rule: the evaluator's own ``row_range``, else sampled),
    ``minus_inf_intervals``, ``carrier_gap_sup``, the declared tail
    envelopes ``tail_lower``/``tail_upper`` and ``translate``.  There are
    three kinds: ``FiniteAnalytic``, ``MinusInfinity`` and
    ``CantorCarrierPiece``.  An isolated value of psi, such as a spike, is
    a point value of ``PiecewiseDefiningFunction``, never a piece.  Only
    the spec loader knows the concrete kinds.
    """

    span: tuple  # (a, b), a < b; may be +-inf

    tail_lower = None  # TailEnvelope of an outermost piece, if declared
    tail_upper = None

    def value(self, y):  # pragma: no cover - abstract
        raise NotImplementedError

    def side_limits(self, y0, side) -> LimitData:  # limits of psi
        raise NotImplementedError

    def side_limits_lsc(self, y0, side, lim) -> LimitData:
        """Limits of psi_* given ``lim``, those of psi; off a Cantor
        carrier they are the same."""
        return lim

    def row_bounds(self, lo, hi):
        """(M, m, Mstar, ends) on the rows [lo, hi], clipped to the span:
        sup psi, inf psi and sup psi_* per row (or one scalar for every
        row), and the span ends whose exact one-sided limits from inside
        also bound the rows holding them (a sampled piece can miss its
        endpoint behavior)."""
        raise NotImplementedError

    def minus_inf_intervals(self):
        """Open intervals inside the span where psi is identically -inf."""
        return []

    def carrier_gap_sup(self):
        """(sup of the off part near a Cantor carrier, declared?); None
        off carriers."""
        return None

    def translate(self, dx, dy) -> "Piece":
        raise NotImplementedError


def _row_samples(evaluator, lo, hi):
    """(max, min) of the evaluator over _ROW_SAMPLES midpoints of each row
    [lo, hi]; NaN on a row where every sample fails."""
    frac = (np.arange(_ROW_SAMPLES) + 0.5) / _ROW_SAMPLES
    vals = evaluator(lo[:, None] + (hi - lo)[:, None] * frac[None, :], check=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return np.nanmax(vals, axis=1), np.nanmin(vals, axis=1)


def _row_range(evaluator, lo, hi):
    """(sup, inf) of the evaluator on each row [lo, hi]: from its own
    ``row_range(lo, hi)``, and from ``_row_samples`` on every row where
    that gives NaN."""
    sup, inf = evaluator.row_range(lo, hi)
    left = np.isnan(sup) | np.isnan(inf)
    if left.any():
        sup[left], inf[left] = _row_samples(evaluator, lo[left], hi[left])
    return sup, inf


def _require_evaluator(name, ev):
    """Reject a piece's evaluator field ``name`` that is no ``Evaluator``."""
    if not isinstance(ev, Evaluator):
        raise ValidationError(f"{name} must be an Evaluator, got {type(ev).__name__}")


@dataclass(frozen=True)
class _Translated(Evaluator):
    """y -> ev(y - dy) + dx, with ev's rows moved with it.  It has no
    source to save."""

    ev: Evaluator
    dx: float
    dy: float

    def values(self, ys):
        return self.ev.values(ys - self.dy) + self.dx

    def row_range(self, lo, hi):
        sup, inf = self.ev.row_range(lo - self.dy, hi - self.dy)
        return sup + self.dx, inf + self.dx


@dataclass(frozen=True)
class FiniteAnalytic(Piece):
    """Continuous finite evaluator on the open span.

    Optional declared endpoint limits and tail envelopes; undeclared
    endpoint limits fall back to dyadic estimation, and so does an interior
    height where the evaluator fails.
    """

    evaluator: Evaluator = None
    limits_left: Optional[LimitData] = None   # as y -> span[0]+
    limits_right: Optional[LimitData] = None  # as y -> span[1]-
    tail_lower: Optional[TailEnvelope] = None
    tail_upper: Optional[TailEnvelope] = None

    def __post_init__(self):
        _require_evaluator("evaluator", self.evaluator)

    def value(self, y):
        return float(self.evaluator(y))

    def _interior_limit(self, y0):
        v = self.evaluator(y0, check=False)
        if not math.isfinite(v):
            return LimitData.inconclusive_data()
        return LimitData(v, v, exact=False)

    def side_limits(self, y0, side):
        a, b = self.span
        if side == "right" and y0 == a and self.limits_left is not None:
            return self.limits_left
        if side == "left" and y0 == b and self.limits_right is not None:
            return self.limits_right
        if a < y0 < b:
            est = self._interior_limit(y0)
            if not est.inconclusive:
                return est
        delta = min(1.0, (min(b, y0 + 1) - max(a, y0 - 1)) / 2 or 1.0)
        return dyadic_limit_estimate(self.evaluator, y0, side, delta)

    def row_bounds(self, lo, hi):
        row_max, row_min = _row_range(self.evaluator, lo, hi)
        a, b = self.span
        return row_max, row_min, row_max, ((a, "right"), (b, "left"))

    def translate(self, dx, dy):
        return replace(
            self,
            span=(self.span[0] + dy, self.span[1] + dy),
            evaluator=_Translated(self.evaluator, dx, dy),
            limits_left=None if self.limits_left is None else self.limits_left.shifted(dx),
            limits_right=None if self.limits_right is None else self.limits_right.shifted(dx),
            tail_lower=self.tail_lower and self.tail_lower.translated(dx, dy, "lower"),
            tail_upper=self.tail_upper and self.tail_upper.translated(dx, dy, "upper"),
        )


@dataclass(frozen=True)
class MinusInfinity(Piece):
    def value(self, y):
        return NEG_INF

    def side_limits(self, y0, side):
        return LimitData(NEG_INF, NEG_INF, exact=True)

    def row_bounds(self, lo, hi):
        return NEG_INF, NEG_INF, NEG_INF, ()

    def minus_inf_intervals(self):
        return [self.span]

    def translate(self, dx, dy):
        return MinusInfinity((self.span[0] + dy, self.span[1] + dy))


def constant_piece(span, v) -> Piece:
    """psi = v on the span: ``MinusInfinity`` for v = -inf, else the
    formula ``repr(v)`` with its exact limits declared at the finite ends."""
    if psi_value(v) == NEG_INF:
        return MinusInfinity(span)
    lim = LimitData(v, v)
    return FiniteAnalytic(
        span=span,
        evaluator=parse_expression(repr(float(v))),
        limits_left=lim if math.isfinite(span[0]) else None,
        limits_right=lim if math.isfinite(span[1]) else None,
    )


@dataclass(frozen=True)
class CantorCarrierPiece(Piece):
    """on_value on a Cantor carrier, an off evaluator elsewhere.

    With bounded off values this is the comb construction; when the off
    part oscillates up to on_value near the carrier it is the benign
    Cantor-discontinuity construction instead, and ``off_limsup_at_carrier``
    should declare that.
    """

    carrier: CantorSet = None
    on_value: float = 1.0
    off_evaluator: Evaluator = None
    off_limsup_at_carrier: Optional[float] = None
    off_liminf_at_carrier: Optional[float] = None

    def __post_init__(self):
        _require_evaluator("off_evaluator", self.off_evaluator)
        a, b = self.span
        if not (a <= self.carrier.lo and self.carrier.hi <= b):
            raise ValidationError("carrier must sit inside the piece span", "carrier")
        psi_value(self.on_value)
        reject_nan(self, "off_limsup_at_carrier", "off_liminf_at_carrier")

    def value(self, y):
        if self.carrier.contains(y):
            return self.on_value
        return float(self.off_evaluator(y))

    def _carrier_accumulates(self, y0, side):
        d = np.array([2.0 ** (-k) for k in (3, 8, 16, 28, 40)])
        lo, hi = (y0 - d, y0 - d * 1e-9) if side == "left" else (y0 + d * 1e-9, y0 + d)
        return bool(self.carrier.intersects_many(lo, hi).all())

    def _off_side(self, y0, side):
        delta = min(1.0, (self.span[1] - self.span[0]) / 4)
        return dyadic_limit_estimate(self.off_evaluator, y0, side, delta)

    def side_limits(self, y0, side):
        if not self._carrier_accumulates(y0, side):
            return self._off_side(y0, side)
        if self.off_liminf_at_carrier is not None:
            lim_inf = self.off_liminf_at_carrier
            exact = True
        else:
            off = self._off_side(y0, side)
            if off.inconclusive:
                return LimitData.inconclusive_data()
            lim_inf = off.liminf
            exact = False
        return LimitData(min(lim_inf, self.on_value), self.on_value, exact=exact)

    def side_limits_lsc(self, y0, side, lim):
        # away from the carrier psi is the off part; near it psi_* never
        # exceeds the off part, since the carrier has empty interior
        if not self._carrier_accumulates(y0, side):
            return lim
        if self.off_limsup_at_carrier is None:
            return self._off_side(y0, side)
        v = self.off_limsup_at_carrier
        if self.off_liminf_at_carrier is not None:
            lo = self.off_liminf_at_carrier
        else:
            off = self._off_side(y0, side)
            lo = off.liminf if not off.inconclusive else v
        return LimitData(min(lo, v), v, exact=True)

    def carrier_gap_sup(self):
        # undeclared, the sup is read over the carrier's hull as one row
        if self.off_limsup_at_carrier is not None:
            return self.off_limsup_at_carrier, True
        row_max, _ = _row_range(
            self.off_evaluator, np.array([self.carrier.lo]), np.array([self.carrier.hi])
        )
        return float(np.fmax(row_max[0], NEG_INF)), False

    def row_bounds(self, lo, hi):
        row_max, row_min = _row_range(self.off_evaluator, lo, hi)
        hit = self.carrier.intersects_many(lo, hi)
        M, Mstar = row_max.copy(), row_max.copy()
        M[hit] = np.fmax(M[hit], self.on_value)
        if self.off_limsup_at_carrier is not None:
            Mstar[hit] = np.fmax(Mstar[hit], self.off_limsup_at_carrier)
        a, b = self.span
        return M, row_min, Mstar, ((a, "right"), (b, "left"))

    def translate(self, dx, dy):
        return replace(
            self,
            span=(self.span[0] + dy, self.span[1] + dy),
            carrier=CantorSet(
                self.carrier.lo + dy, self.carrier.hi + dy,
                self.carrier.keep_fraction, self.carrier.depth,
            ),
            on_value=_shift(self.on_value, dx),
            off_evaluator=_Translated(self.off_evaluator, dx, dy),
            off_limsup_at_carrier=_shift(self.off_limsup_at_carrier, dx),
            off_liminf_at_carrier=_shift(self.off_liminf_at_carrier, dx),
        )


# ---------------------------------------------------------------------------
# the assembled defining function
# ---------------------------------------------------------------------------


def _limsup_of(lims):
    """Max limsup over the decided sides; NaN when no side is decided and
    one is inconclusive."""
    out = NEG_INF
    inconclusive = False
    for lim in lims:
        if lim.inconclusive:
            inconclusive = True
            continue
        out = max(out, lim.limsup)
    return math.nan if inconclusive and out == NEG_INF else out


def _merge(intervals):
    """Sorted union of intervals; overlapping or touching ones merge."""
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def _cut(lo, hi, cuts):
    """(lo, hi) cut at each of the sorted heights ``cuts`` inside it."""
    inner = [y for y in cuts if lo < y < hi]
    return zip([lo, *inner], [*inner, hi])


@dataclass(frozen=True, eq=False)
class RowProfile:
    """Bounds on psi, sampled or bounded by the evaluator, over the rows
    between consecutive ``y_edges``: M (sup psi), m (inf psi), Mstar (sup
    psi_*), outside (row disjoint from I), edge (row straddles an end of
    I).  The arrays are read-only."""

    y_edges: np.ndarray
    M: np.ndarray
    m: np.ndarray
    Mstar: np.ndarray
    outside: np.ndarray
    edge: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False


@dataclass(frozen=True)
class DomainFacts:
    """The structural facts the criteria read off psi, computed once.

    ``PiecewiseDefiningFunction.validate`` builds them when psi is built,
    and psi is immutable, so no call order or cache state can change them
    and no later edit of psi can leave them stale.  ``values`` holds psi at
    the special heights: the span ends and the point values inside I.
    ``limits`` holds the one-sided limits at ``heights``: the special
    heights plus the finite ends of I.  ``carriers`` holds, for each Cantor carrier piece, (piece,
    sup of its off part near the carrier, whether that sup is declared,
    whether the piece is a comb: its off part stays below on_value near
    the carrier, which a sampled sup must clear by 1e-7).
    """

    heights: tuple
    values: dict
    limits: dict
    carriers: tuple
    usc: TriState
    usc_problems: tuple
    minus_inf_components: tuple
    E: tuple
    E_exact: bool
    equals_regularized: TriState
    witnesses: tuple

    @staticmethod
    def of(psi: "PiecewiseDefiningFunction") -> "DomainFacts":
        special = psi._special_heights()
        heights = tuple(sorted(
            set(special)
            | {e for e in (psi.interval_lo, psi.interval_hi) if math.isfinite(e)}
        ))
        values = {y: psi.value(y) for y in special}
        limits = {
            y: OneSidedLimits(psi._side_limits(y, "left"), psi._side_limits(y, "right"))
            for y in heights
        }
        tildes = {y: psi._tilde(y, limits[y]) for y in special}
        carriers = tuple(
            (p, sup, declared, p.on_value > sup + (0.0 if declared else 1e-7))
            for p in psi.pieces
            if (gap := p.carrier_gap_sup()) is not None
            for sup, declared in [gap]
        )

        # upper semicontinuity: limsup psi <= psi at every special height
        usc, problems = TriState.YES, []
        for y in special:
            lims = limits[y]
            if lims.inconclusive:
                usc = TriState.UNKNOWN
                problems.append(f"inconclusive limits at y={y}")
                continue
            sup = max(lim.limsup for lim in lims.sides)
            tol = 0.0 if all(lim.exact for lim in lims.sides) else 1e-7
            if sup > values[y] + tol:
                usc = TriState.NO
                problems.append(f"limsup {sup} exceeds psi({y}) = {values[y]}")
        for p, gap_sup, _, _ in carriers:
            if gap_sup > p.on_value + 1e-7:
                usc = TriState.NO
                problems.append(
                    f"off values exceed the carrier value near the carrier of {p.span}"
                )

        # psi = psi~ everywhere on I
        eq, witnesses = TriState.YES, []
        for y in special:
            if math.isnan(tildes[y]):
                eq = TriState.UNKNOWN
            elif values[y] > tildes[y] + 1e-9:
                witnesses.append(y)
        for p, gap_sup, declared, comb in carriers:
            if comb:
                witnesses.extend(p.carrier.sample_points(2)[:3])
            elif not declared and p.on_value > gap_sup - 1e-3:
                eq = TriState.UNKNOWN
        if witnesses:
            eq, witnesses = TriState.NO, sorted(set(witnesses))

        # the -inf intervals merged, then cut where psi is finite; E: their
        # closures plus every height with a one-sided liminf of -inf, exact
        # when every -inf limit is declared
        finite = [y for y, v in values.items() if v > NEG_INF]
        components = tuple(
            part
            for lo, hi in _merge([iv for p in psi.pieces for iv in p.minus_inf_intervals()])
            for part in _cut(lo, hi, finite)
        )
        E_exact = True
        points = []
        for y in heights:
            lims = limits[y]
            if lims.inconclusive:
                E_exact = False
                continue
            for lim in lims.sides:
                if lim.liminf == NEG_INF:
                    points.append((y, y))
                    E_exact = E_exact and lim.exact
        return DomainFacts(
            heights=heights,
            values=values,
            limits=limits,
            carriers=carriers,
            usc=usc,
            usc_problems=tuple(problems),
            minus_inf_components=components,
            E=_merge(list(components) + points),
            E_exact=E_exact,
            equals_regularized=eq,
            witnesses=tuple(witnesses),
        )


@dataclass(frozen=True)
class PiecewiseDefiningFunction:
    """psi on I = (interval_lo, interval_hi): building one sorts the
    pieces, freezes ``point_values`` and sets ``facts`` from ``validate()``,
    so an invalid psi raises ``ValidationError`` and a built one never
    changes (``dataclasses.replace`` builds and validates a new psi)."""

    interval_lo: float
    interval_hi: float
    pieces: tuple
    name: str = ""
    # psi at junction heights, over what the pieces give there: a spike's
    # value, or a value where no piece evaluator applies
    point_values: Mapping = field(default_factory=dict)
    # the hardy.CanonicalDomain of this same domain up to translation, when
    # known: the membership oracle then answers for psi itself
    canonical: object = None
    facts: DomainFacts = field(init=False, repr=False, compare=False)
    _starts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pieces = tuple(sorted(self.pieces, key=lambda p: p.span[0]))
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "point_values", MappingProxyType(dict(self.point_values)))
        object.__setattr__(self, "_starts", tuple(p.span[0] for p in pieces))
        object.__setattr__(self, "facts", self.validate())

    # -- validation ---------------------------------------------------------

    def validate(self) -> DomainFacts:
        """Coverage, declared values, degenerate-domain rejection and the
        semicontinuity check; returns the structural facts."""
        if not (self.interval_lo < self.interval_hi):
            raise ValidationError("the height interval I is empty")
        if not self.pieces:
            raise ValidationError("no pieces")
        for p in self.pieces:
            if not p.span[0] < p.span[1]:
                raise ValidationError(f"piece span {p.span} is empty", "span", p)
        first, last = self.pieces[0], self.pieces[-1]
        if first.span[0] != self.interval_lo:
            raise ValidationError("pieces do not start at the left end of I", "span", first)
        if last.span[1] != self.interval_hi:
            raise ValidationError("pieces do not end at the right end of I", "span", last)
        for p, q in zip(self.pieces, self.pieces[1:]):
            if p.span[1] != q.span[0]:
                raise ValidationError(
                    f"pieces must tile I; gap or overlap at {p.span[1]} vs {q.span[0]}",
                    "span", q,
                )
        for y, v in self.point_values.items():
            point_value(y, v, self.interval_lo, self.interval_hi)
        if (
            self.interval_lo == NEG_INF
            and self.interval_hi == POS_INF
            and all(p.minus_inf_intervals() == [p.span] for p in self.pieces)
            and all(v == NEG_INF for v in self.point_values.values())
        ):
            raise ValidationError(
                "psi = -inf on all of R defines the whole plane; rejected"
            )
        facts = DomainFacts.of(self)
        if facts.usc is TriState.NO:
            raise ValidationError(
                "psi is not upper semicontinuous: " + "; ".join(facts.usc_problems)
            )
        return facts

    # -- evaluation ---------------------------------------------------------

    def value(self, y):
        """psi(y); at piece junctions the value is the max over owners."""
        if not (self.interval_lo < y < self.interval_hi):
            raise ValueError(f"height {y} outside I")
        if y in self.point_values:
            return self.point_values[y]
        right = self._side_limit_piece(y, "right")
        left = self._side_limit_piece(y, "left")
        cands = []
        for p in (right,) if left is right else (right, left):
            try:
                cands.append(p.value(y))
            except (ArithmeticError, ValueError):
                continue
        if not cands:
            raise ValueError(
                f"no piece evaluates at height {y}; declare it in point_values"
            )
        return max(cands)

    def contains(self, z) -> bool:
        """Is z in the domain {x + iy : y in I, x > psi(y)}?"""
        y = z.imag if isinstance(z, complex) else complex(z).imag
        x = z.real if isinstance(z, complex) else complex(z).real
        if not (self.interval_lo < y < self.interval_hi):
            return False
        return x > self.value(y)

    # -- one-sided limits ----------------------------------------------------

    def one_sided_limits(self, y0) -> OneSidedLimits:
        if not (self.interval_lo <= y0 <= self.interval_hi):
            raise ValueError(f"height {y0} outside closure(I)")
        return OneSidedLimits(self._side_limits(y0, "left"), self._side_limits(y0, "right"))

    def _side_limits(self, y0, side) -> Optional[LimitData]:
        """Limits of psi at y0 from one side; None outside closure(I)."""
        if (side == "left" and y0 <= self.interval_lo) or (
            side == "right" and y0 >= self.interval_hi
        ):
            return None
        return self._side_limit_piece(y0, side).side_limits(y0, side)

    def _side_limit_piece(self, y0, side):
        if side == "left":
            i = bisect.bisect_left(self._starts, y0) - 1
            i = max(i, 0)
            piece = self.pieces[i]
            if piece.span[1] < y0 and i + 1 < len(self.pieces):
                piece = self.pieces[i + 1]
            return piece
        i = bisect.bisect_right(self._starts, y0) - 1
        piece = self.pieces[max(i, 0)]
        if piece.span[1] <= y0 and i + 1 < len(self.pieces):
            piece = self.pieces[i + 1]
        return piece

    # -- semicontinuity -----------------------------------------------------

    def _special_heights(self):
        """Heights where psi can differ from its regularizations."""
        hs = {y for p in self.pieces for y in p.span}
        hs.update(self.point_values)
        return sorted(y for y in hs if self.interval_lo < y < self.interval_hi)

    # -- regularizations ------------------------------------------------------

    def psi_star(self, y0):
        """Lower semicontinuous regularization: liminf of psi at y0.

        Defined on closure(I); one-sided at the interval endpoints.
        """
        lims = self.one_sided_limits(y0)
        if lims.inconclusive:
            return math.nan
        return min(lim.liminf for lim in lims.sides)

    def psi_tilde(self, y0):
        """Upper semicontinuous regularization of psi_* at y0 in I."""
        if not (self.interval_lo < y0 < self.interval_hi):
            raise ValueError(f"height {y0} outside I")
        return self._tilde(y0, self.one_sided_limits(y0))

    def _tilde(self, y0, lims):
        """psi~(y0) from the limits of psi_*, read off the limits of psi."""
        return _limsup_of(
            self._side_limit_piece(y0, s).side_limits_lsc(y0, s, lims.side(s))
            for s in ("left", "right")
        )

    def equals_regularized(self):
        """Does psi equal psi~ everywhere on I?  (TriState, witnesses)."""
        return self.facts.equals_regularized, list(self.facts.witnesses)

    # -- liminf = -inf structure ----------------------------------------------

    def minus_infinity_components(self):
        """Maximal open intervals where psi is identically -inf."""
        return list(self.facts.minus_inf_components)

    def liminf_neg_inf_set(self):
        """E = {y in closure(I): liminf psi = -inf} as closed intervals.

        Returns (intervals, exact).  Exact when every -inf conclusion comes
        from declared structure.
        """
        return list(self.facts.E), self.facts.E_exact

    # -- sampled bounds --------------------------------------------------------

    def row_profiles(self, y_edges) -> RowProfile:
        """Per-row sup/inf of psi and sup of psi_* between consecutive edges:
        every bound on psi over rows comes from here.

        Declared -inf limit points inside a row force m = -inf exactly; a
        row where every sample fails keeps m = +inf.  The profile holds its
        own copy of the edges.
        """
        y_edges = np.array(y_edges, dtype=float)
        nrows = y_edges.size - 1
        M = np.full(nrows, NEG_INF)
        m = np.full(nrows, POS_INF)
        Mstar = np.full(nrows, NEG_INF)
        lo_r, hi_r = y_edges[:-1], y_edges[1:]

        def rows_at(y0):
            """The rows whose closed span holds y0 (two at a row edge)."""
            j = int(np.searchsorted(y_edges, y0, side="right")) - 1
            return [jj for jj in (j - 1, j) if 0 <= jj < nrows and lo_r[jj] <= y0 <= hi_r[jj]]

        for y0, v in self.point_values.items():
            for jj in rows_at(y0):
                M[jj] = max(M[jj], v)
        outside = (hi_r <= self.interval_lo) | (lo_r >= self.interval_hi)
        edge = ~outside & (
            (lo_r < self.interval_lo) | (hi_r > self.interval_hi)
        )
        for p in self.pieces:
            a, b = p.span
            i0 = max(0, min(int(np.searchsorted(hi_r, a, side="right")), nrows))
            i1 = max(0, min(int(np.searchsorted(lo_r, b, side="left")), nrows))
            if i1 <= i0:
                continue
            rows = slice(i0, i1)
            Mp, mp, Mstarp, ends = p.row_bounds(
                np.maximum(lo_r[rows], a), np.minimum(hi_r[rows], b)
            )
            M[rows] = np.fmax(M[rows], Mp)
            m[rows] = np.fmin(m[rows], mp)
            Mstar[rows] = np.fmax(Mstar[rows], Mstarp)
            for y0, side in ends:
                if not math.isfinite(y0):
                    continue
                lim = self.facts.limits[y0].side(side)
                if not lim.exact:
                    continue
                for jj in rows_at(y0):
                    M[jj] = max(M[jj], lim.limsup)
                    m[jj] = min(m[jj], lim.liminf)
                    Mstar[jj] = max(Mstar[jj], lim.limsup)
        return RowProfile(y_edges, M, m, Mstar, outside, edge)

    # -- tails and translation -------------------------------------------------

    def tail_envelopes(self, side):
        """(lower, upper) declared envelopes on the +inf or -inf tail."""
        p = self.pieces[-1] if side == "upper" else self.pieces[0]
        return p.tail_lower, p.tail_upper

    def translated(self, dx=0.0, dy=0.0) -> "PiecewiseDefiningFunction":
        """The defining function of Omega + (dx + i dy)."""
        return PiecewiseDefiningFunction(
            _shift(self.interval_lo, dy),
            _shift(self.interval_hi, dy),
            tuple(p.translate(dx, dy) for p in self.pieces),
            name=self.name,
            point_values={y + dy: _shift(v, dx) for y, v in self.point_values.items()},
            canonical=self.canonical,  # translation keeps H^p membership of e^{lam z}
        )
