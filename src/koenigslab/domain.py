"""Piecewise defining functions psi for starlike-at-infinity domains.

A domain here is ``{x + iy : y in I, x > psi(y)}`` for an upper
semicontinuous ``psi: I -> [-inf, +inf)`` on an open interval I.  psi is
stored as a list of typed pieces with declared structure (one-sided limit
metadata, Cantor carriers, spikes, tail envelopes), because semicontinuity
and liminf/limsup questions are not decidable from finite samples alone.
Everything numeric is flagged; declared structure is treated as exact.

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
from typing import Callable, Mapping, Optional

import numpy as np

from .cantor import CantorSet
from .expr import EvaluatorError, Expression
from .tri import TriState

NEG_INF = float("-inf")
POS_INF = float("inf")

# value beyond which a monotone dyadic sample trend is read as divergence
_DIVERGE_RATIO = 0.9
_STAB_TOL = 1e-9
_DYADIC_DEPTH = 40


class ValidationError(ValueError):
    pass


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
    """
    sgn = -1.0 if side == "left" else 1.0
    vals = []
    for k in range(1, _DYADIC_DEPTH + 1):
        t = y0 + sgn * delta * 2.0 ** (-k)
        try:
            v = float(f(t))
        except (EvaluatorError, ArithmeticError, ValueError):
            continue
        if math.isnan(v):
            continue
        vals.append(v)
    if len(vals) < 10:
        return LimitData.inconclusive_data()
    tail = vals[-8:]
    scale = max(1.0, max(abs(v) for v in tail if math.isfinite(v)) if any(
        math.isfinite(v) for v in tail) else 1.0)
    if all(math.isfinite(v) for v in tail) and max(tail) - min(tail) < _STAB_TOL * scale:
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


# ---------------------------------------------------------------------------
# pieces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Piece:
    """psi on one span of I.

    Callers read a piece only through this protocol and never test its
    kind: ``value``, ``side_limits`` (limits of psi), ``side_limits_lsc``
    (limits of psi_*), ``row_bounds`` (bounds on rows of heights, the one
    sampled-bounds rule), ``minus_inf_intervals``, ``interior_heights``
    (heights inside the span where psi may jump), ``carrier_gap_sup``,
    the declared tail envelopes ``tail_lower``/``tail_upper`` and
    ``translate``.  Only the spec loader knows the concrete kinds.
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

    def interior_heights(self):
        """Heights inside the span where psi may differ from its limits."""
        return ()

    def carrier_gap_sup(self):
        """(sup of the off part near a Cantor carrier, declared?); None
        off carriers."""
        return None

    def translate(self, dx, dy) -> "Piece":
        raise NotImplementedError


def _row_samples(evaluator, lo, hi, k=64):
    """(max, min) of the evaluator over k midpoints of each row [lo, hi];
    NaN on a row where every sample fails."""
    frac = (np.arange(k) + 0.5) / k
    vals = _evaluate(evaluator, lo[:, None] + (hi - lo)[:, None] * frac[None, :])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return np.nanmax(vals, axis=1), np.nanmin(vals, axis=1)


def _evaluate(evaluator, ys):
    """The evaluator on an array of heights, NaN wherever it fails."""
    try:
        vs = evaluator(ys, check=False) if isinstance(evaluator, Expression) else evaluator(ys)
        return np.broadcast_to(np.asarray(vs, dtype=float), ys.shape)
    except Exception:
        return np.vectorize(lambda t: _safe_eval(evaluator, t), otypes=[float])(ys)


def _safe_eval(evaluator, t):
    try:
        return float(evaluator(t))
    except Exception:
        return math.nan


def _shifted_evaluator(ev, dx, dy):
    return lambda y, ev=ev, dx=dx, dy=dy: ev(np.asarray(y) - dy) + dx


@dataclass(frozen=True)
class FiniteAnalytic(Piece):
    """Continuous finite evaluator on the open span.

    Optional declared endpoint limits and tail envelopes; undeclared
    endpoint limits fall back to dyadic estimation, and so does an interior
    height where the evaluator fails.
    """

    evaluator: Callable = None
    limits_left: Optional[LimitData] = None   # as y -> span[0]+
    limits_right: Optional[LimitData] = None  # as y -> span[1]-
    tail_lower: Optional[TailEnvelope] = None
    tail_upper: Optional[TailEnvelope] = None

    def value(self, y):
        v = self.evaluator(y)
        return float(v)

    def _interior_limit(self, y0):
        v = _safe_eval(self.evaluator, y0)
        if math.isnan(v):
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
        return dyadic_limit_estimate(lambda t: self.evaluator(t), y0, side, delta)

    def row_bounds(self, lo, hi):
        row_max, row_min = _row_samples(self.evaluator, lo, hi)
        a, b = self.span
        return row_max, row_min, row_max, ((a, "right"), (b, "left"))

    def translate(self, dx, dy):
        return replace(
            self,
            span=(self.span[0] + dy, self.span[1] + dy),
            evaluator=_shifted_evaluator(self.evaluator, dx, dy),
            limits_left=None if self.limits_left is None else self.limits_left.shifted(dx),
            limits_right=None if self.limits_right is None else self.limits_right.shifted(dx),
            tail_lower=self.tail_lower and self.tail_lower.translated(dx, dy, "lower"),
            tail_upper=self.tail_upper and self.tail_upper.translated(dx, dy, "upper"),
        )


@dataclass(frozen=True)
class OscillatorySample(FiniteAnalytic):
    """Continuous evaluator whose endpoint behavior is declared.

    Declared liminf/limsup at each span endpoint are required: dyadic
    sampling cannot recover oscillation envelopes.
    """

    def __post_init__(self):
        if self.limits_left is None or self.limits_right is None:
            raise ValidationError("oscillatory pieces require declared endpoint limits")


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


@dataclass(frozen=True)
class PointSpike(Piece):
    """Constant background with an isolated exceedance at c0."""

    c0: float = 0.0
    spike_value: float = 1.0
    background: float = 0.0  # may be -inf

    def __post_init__(self):
        a, b = self.span
        if not (a < self.c0 < b):
            raise ValidationError("spike location must be interior to its span")
        psi_value(self.spike_value)
        psi_value(self.background)

    def value(self, y):
        return self.spike_value if y == self.c0 else self.background

    def side_limits(self, y0, side):
        return LimitData(self.background, self.background, exact=True)

    def row_bounds(self, lo, hi):
        M = np.full(lo.shape, self.background)
        at = (lo <= self.c0) & (self.c0 < hi)
        M[at] = np.maximum(M[at], self.spike_value)
        return M, self.background, self.background, ()

    def minus_inf_intervals(self):
        if self.background == NEG_INF:
            a, b = self.span
            return [(a, self.c0), (self.c0, b)]
        return []

    def interior_heights(self):
        return (self.c0,)

    def translate(self, dx, dy):
        return PointSpike(
            (self.span[0] + dy, self.span[1] + dy),
            self.c0 + dy,
            _shift(self.spike_value, dx),
            _shift(self.background, dx),
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
    off_evaluator: Callable = None
    off_limsup_at_carrier: Optional[float] = None
    off_liminf_at_carrier: Optional[float] = None

    def __post_init__(self):
        a, b = self.span
        if not (a <= self.carrier.lo and self.carrier.hi <= b):
            raise ValidationError("carrier must sit inside the piece span")
        psi_value(self.on_value)
        reject_nan(self, "off_limsup_at_carrier", "off_liminf_at_carrier")

    def _off(self, y):
        return self.off_evaluator(y)

    def value(self, y):
        if self.carrier.contains(y):
            return self.on_value
        return float(self._off(y))

    def _carrier_accumulates(self, y0, side):
        d = np.array([2.0 ** (-k) for k in (3, 8, 16, 28, 40)])
        lo, hi = (y0 - d, y0 - d * 1e-9) if side == "left" else (y0 + d * 1e-9, y0 + d)
        return bool(self.carrier.intersects_many(lo, hi).all())

    def _off_side(self, y0, side):
        delta = min(1.0, (self.span[1] - self.span[0]) / 4)
        return dyadic_limit_estimate(self._off, y0, side, delta)

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
        # undeclared, the sup is sampled over the carrier's hull as one row
        if self.off_limsup_at_carrier is not None:
            return self.off_limsup_at_carrier, True
        row_max, _ = _row_samples(
            self.off_evaluator, np.array([self.carrier.lo]), np.array([self.carrier.hi])
        )
        return float(np.fmax(row_max[0], NEG_INF)), False

    def row_bounds(self, lo, hi):
        row_max, row_min = _row_samples(self.off_evaluator, lo, hi)
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
            off_evaluator=_shifted_evaluator(self.off_evaluator, dx, dy),
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


def _merge(intervals, joins=lambda b, a: True):
    """Sorted union of intervals; overlapping or touching ones merge when
    ``joins(end of the first, start of the second)`` holds."""
    merged = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1] and joins(merged[-1][1], lo):
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


@dataclass(frozen=True, eq=False)
class RowProfile:
    """Sampled bounds on psi over the rows between consecutive ``y_edges``:
    M (sup psi), m (inf psi), Mstar (sup psi_*), outside (row disjoint from
    I), edge (row straddles an end of I).  The arrays are read-only."""

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
    and no later edit of psi can leave them stale.  ``limits`` holds the
    one-sided limits at ``heights``: the special heights plus the finite
    ends of I.  ``carriers`` pairs each Cantor carrier piece with the sup of
    its off part near the carrier and whether that sup is declared.
    """

    heights: tuple
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
            (p, *gap) for p in psi.pieces if (gap := p.carrier_gap_sup()) is not None
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
        for p, gap_sup, _ in carriers:
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
        for p, gap_sup, declared in carriers:
            if p.on_value > gap_sup + (0.0 if declared else 1e-7):
                witnesses.extend(p.carrier.sample_points(2)[:3])
            elif not declared and p.on_value > gap_sup - 1e-3:
                eq = TriState.UNKNOWN
        if witnesses:
            eq, witnesses = TriState.NO, sorted(set(witnesses))

        # E: the closed -inf components plus every height with a one-sided
        # liminf of -inf; exact when every -inf limit is declared
        components = _merge(
            [iv for p in psi.pieces for iv in p.minus_inf_intervals()], psi._joins
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
    # explicit psi values at junction heights where no piece evaluator
    # applies (e.g. the endpoint value of an oscillatory piece)
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
                raise ValidationError(f"piece span {p.span} is empty")
        if self.pieces[0].span[0] != self.interval_lo:
            raise ValidationError("pieces do not start at the left end of I")
        if self.pieces[-1].span[1] != self.interval_hi:
            raise ValidationError("pieces do not end at the right end of I")
        for p, q in zip(self.pieces, self.pieces[1:]):
            if p.span[1] != q.span[0]:
                raise ValidationError(
                    f"pieces must tile I; gap or overlap at {p.span[1]} vs {q.span[0]}"
                )
        for y, v in self.point_values.items():
            point_value(y, v, self.interval_lo, self.interval_hi)
        if (
            self.interval_lo == NEG_INF
            and self.interval_hi == POS_INF
            and all(p.minus_inf_intervals() == [p.span] for p in self.pieces)
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
            except (EvaluatorError, ArithmeticError, ValueError):
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
        hs = {y for p in self.pieces for y in (*p.span, *p.interior_heights())}
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

    def _joins(self, b, a):
        # two -inf intervals merge across a shared endpoint if psi = -inf there
        if b != a:
            return b >= a
        if not (self.interval_lo < b < self.interval_hi):
            return True
        return self.value(b) == NEG_INF

    def liminf_neg_inf_set(self):
        """E = {y in closure(I): liminf psi = -inf} as closed intervals.

        Returns (intervals, exact).  Exact when every -inf conclusion comes
        from declared structure.
        """
        return list(self.facts.E), self.facts.E_exact

    # -- sampled bounds --------------------------------------------------------

    def row_profiles(self, y_edges) -> RowProfile:
        """Per-row sup/inf of psi and sup of psi_* between consecutive edges:
        every sampled bound on psi comes from here.

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
