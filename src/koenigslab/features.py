"""Dynamical features read off the defining function.

Heights and intervals reported here correspond, on the disc side, to
boundary regular fixed points (bounded gaps where psi is -inf),
super-repelling fixed points (one-sided full limits -inf), unbounded
discontinuities (one-sided liminf -inf with finite limsup), contact-arc
coincidences (isolated exceedances: a value of psi above both of its
exact one-sided limsups, however the spec spells it), Cantor combs, and
the attracting boundary point's discontinuity type.  Everything is
expressed at the level of heights in R; no Riemann map is computed.

Each detector is a filter over ``psi.facts`` and returns its feature
alone; a height whose limits are inconclusive is left out, and
``analyze`` names it in ``unknown_flags`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .classify import HYPERBOLIC, PARABOLIC_POSITIVE, PARABOLIC_ZERO, classify
from .domain import NEG_INF, POS_INF, PiecewiseDefiningFunction
from .tri import TriState


@dataclass
class FeatureReport:
    minus_inf_components: list = field(default_factory=list)  # open intervals
    bounded_gap_intervals: list = field(default_factory=list)  # I_R
    unbounded_gap_intervals: list = field(default_factory=list)  # I_inf / Theta_inf
    super_repelling_heights: list = field(default_factory=list)  # I_N
    unbounded_discontinuities: list = field(default_factory=list)  # (height, side)
    spikes: list = field(default_factory=list)  # (c0, level)
    cantor_combs: list = field(default_factory=list)  # (span, level, carrier json)
    dw_discontinuity: str = "none"  # none | simple | double | unknown
    exceptional_arc_to_unbounded: bool = False
    correspondence_caveat: bool = False  # Int(closure) != domain
    suspected: list = field(default_factory=list)  # numeric-only findings
    unknown_flags: list = field(default_factory=list)

    def to_json(self):
        return {
            "minus_inf_components": [list(t) for t in self.minus_inf_components],
            "bounded_gap_intervals": [list(t) for t in self.bounded_gap_intervals],
            "unbounded_gap_intervals": [list(t) for t in self.unbounded_gap_intervals],
            "super_repelling_heights": self.super_repelling_heights,
            "unbounded_discontinuities": [list(t) for t in self.unbounded_discontinuities],
            "spikes": [list(t) for t in self.spikes],
            "cantor_combs": [
                {"span": list(s), "level": q, "carrier": c}
                for (s, q, c) in self.cantor_combs
            ],
            "dw_discontinuity": self.dw_discontinuity,
            "exceptional_arc_to_unbounded": self.exceptional_arc_to_unbounded,
            "correspondence_caveat": self.correspondence_caveat,
            "suspected": self.suspected,
            "unknown_flags": self.unknown_flags,
        }


def detect_super_repelling(psi: PiecewiseDefiningFunction):
    """Heights outside the closure of the -inf gaps where a one-sided
    limit of psi is fully -inf (liminf = limsup = -inf)."""
    facts = psi.facts
    return [
        y0
        for y0, lims in _conclusive_limits(facts)
        if not any(lo <= y0 <= hi for lo, hi in facts.minus_inf_components)
        and any(lim.limsup == NEG_INF for lim in lims.sides)
    ]


def detect_unbounded_discontinuities(psi: PiecewiseDefiningFunction):
    """(height, side) pairs where liminf = -inf but limsup is finite."""
    return [
        (y0, side)
        for y0, lims in _conclusive_limits(psi.facts)
        for side in ("left", "right")
        if (lim := lims.side(side)) is not None
        and lim.liminf == NEG_INF
        and math.isfinite(lim.limsup)
    ]


def _conclusive_limits(facts):
    """(height, limits) at the special heights whose limits are decided;
    ``analyze`` flags the others."""
    return [(y0, facts.limits[y0]) for y0 in facts.heights if not facts.limits[y0].inconclusive]


def detect_contact_spikes(psi: PiecewiseDefiningFunction):
    """Isolated exceedances: special heights where every side's limit is
    decided and exact and psi lies above the larger limsup, with the
    separating level halfway between the two."""
    facts = psi.facts
    out = []
    for c0, top in facts.values.items():
        sides = facts.limits[c0].sides
        if all(lim.exact for lim in sides):
            around = max(lim.limsup for lim in sides)
            if top > around:
                out.append((c0, 0.5 * (top + around)))
    return out


def detect_cantor_combs(psi: PiecewiseDefiningFunction):
    """Carrier pieces whose off part stays below a level q < on_value near
    the carrier, with the on-values usc-attained along the carrier."""
    return [
        ((p.carrier.lo, p.carrier.hi), 0.5 * (p.on_value + off_sup), p.carrier.to_json())
        for p, off_sup, _, comb in psi.facts.carriers
        if comb
    ]


def dw_discontinuity(psi: PiecewiseDefiningFunction):
    """Discontinuity type of the attracting boundary point: a finite
    endpoint of I qualifies when liminf = -inf and limsup = +inf there."""
    cls = classify(psi)
    if cls.kind == PARABOLIC_ZERO:
        return "none"
    ends = [
        psi.facts.limits[y0].side(side)
        for y0, side in ((psi.interval_lo, "right"), (psi.interval_hi, "left"))
        if math.isfinite(y0)
    ]
    if any(lim.inconclusive for lim in ends):
        return "unknown"
    n = sum(lim.liminf == NEG_INF and lim.limsup == POS_INF for lim in ends)
    if n == 0:
        return "none"
    return "double" if n == 2 and cls.kind == HYPERBOLIC else "simple"


def unbounded_gap(psi: PiecewiseDefiningFunction):
    """The -inf component of psi that reaches an infinite end of I, or None."""
    return next(
        ((lo, hi) for lo, hi in psi.minus_infinity_components()
         if lo == NEG_INF or hi == POS_INF),
        None,
    )


def exceptional_arc_to_unbounded(psi: PiecewiseDefiningFunction):
    """I a half-line with psi = -inf beyond some height a, a finite value
    psi(a), and from inside: liminf -inf, limsup = psi(a)."""
    if classify(psi).kind != PARABOLIC_POSITIVE:
        return False
    gap = unbounded_gap(psi)
    if gap is None:
        return False
    a, inner = (gap[0], "left") if gap[1] == POS_INF else (gap[1], "right")
    va = psi.facts.values.get(a, NEG_INF)  # none at an end of I
    lims = psi.facts.limits[a]
    if not math.isfinite(va) or lims.inconclusive:
        return False
    lim = lims.side(inner)
    return lim is not None and lim.liminf == NEG_INF and lim.limsup == va


def analyze(psi: PiecewiseDefiningFunction) -> FeatureReport:
    """Every feature of psi, read off ``psi.facts``.  ``unknown_flags``
    names each special height whose limits are inconclusive and each
    carrier whose undeclared off part may reach its on_value."""
    facts = psi.facts
    rep = FeatureReport()
    comps = psi.minus_infinity_components()
    rep.minus_inf_components = comps
    rep.bounded_gap_intervals = [
        (lo, hi) for lo, hi in comps if math.isfinite(lo) and math.isfinite(hi)
    ]
    rep.unbounded_gap_intervals = [
        (lo, hi) for lo, hi in comps if not (math.isfinite(lo) and math.isfinite(hi))
    ]
    rep.super_repelling_heights = detect_super_repelling(psi)
    rep.unbounded_discontinuities = detect_unbounded_discontinuities(psi)
    rep.spikes = detect_contact_spikes(psi)
    rep.cantor_combs = detect_cantor_combs(psi)
    rep.dw_discontinuity = dw_discontinuity(psi)
    rep.exceptional_arc_to_unbounded = exceptional_arc_to_unbounded(psi)
    eq, _ = psi.equals_regularized()
    rep.correspondence_caveat = eq is not TriState.YES
    rep.unknown_flags = sorted(
        {f"height:{y0}" for y0 in facts.heights if facts.limits[y0].inconclusive}
        | {
            f"span:{p.span}"
            for p, _, declared, comb in facts.carriers
            if not (declared or comb)
        }
    )
    return rep
