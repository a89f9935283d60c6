"""Semigroup type and canonical containing domain, read off the interval I.

The model set swept by the domain under left translation is the whole
plane when I = R, a horizontal half-plane when I is a proper half-line,
and a strip when I is bounded; that trichotomy is the semigroup class.
Containment of the domain in a tilted half-plane reduces to an affine
minorant of psi and is decided from declared tail envelopes plus grid
certification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domain import NEG_INF, POS_INF, PiecewiseDefiningFunction
from .tri import TriState

HYPERBOLIC = "hyperbolic"
PARABOLIC_POSITIVE = "parabolic_positive_step"
PARABOLIC_ZERO = "parabolic_zero_step"


@dataclass(frozen=True)
class SemigroupClass:
    kind: str
    container: dict  # descriptive: strip/half-plane parameters

    @property
    def strip_width(self):
        if self.kind != HYPERBOLIC:
            return None
        return self.container["hi"] - self.container["lo"]


def classify(psi: PiecewiseDefiningFunction) -> SemigroupClass:
    """Hyperbolic iff I bounded; positive step iff I a proper half-line;
    zero step iff I = R.  The whole-plane domain is rejected at validation."""
    lo, hi = psi.interval_lo, psi.interval_hi
    lo_fin, hi_fin = math.isfinite(lo), math.isfinite(hi)
    if lo_fin and hi_fin:
        return SemigroupClass(HYPERBOLIC, {"type": "strip", "lo": lo, "hi": hi})
    if lo_fin and not hi_fin:
        return SemigroupClass(
            PARABOLIC_POSITIVE, {"type": "horizontal_half_plane", "edge": lo, "side": "upper"}
        )
    if hi_fin and not lo_fin:
        return SemigroupClass(
            PARABOLIC_POSITIVE, {"type": "horizontal_half_plane", "edge": hi, "side": "lower"}
        )
    return SemigroupClass(PARABOLIC_ZERO, {"type": "none"})


@dataclass(frozen=True)
class AffineMinorant:
    status: TriState
    m: Optional[float] = None
    c: Optional[float] = None
    reason: str = ""


def _tail_slopes(env, tail):
    """Slopes m for which (envelope - m y) stays bounded below on one tail,
    as an interval (None when no envelope is declared).

    For a lower envelope these slopes are feasible on that tail; an upper
    envelope kills every other slope, since psi - m y runs to -inf there.
    A drifting envelope runs to -inf slower than any line, so its own
    slope is excluded: the interval is open at env.m.
    """
    if env is None:
        return None
    towards = NEG_INF if tail == "upper" else POS_INF
    m0 = math.nextafter(env.m, towards) if env.drifts else env.m
    return (NEG_INF, m0) if tail == "upper" else (m0, POS_INF)


def _isect(a, b):
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    return (lo, hi) if lo <= hi else None


def slope_brackets(psi: PiecewiseDefiningFunction, tails):
    """Slopes m for which psi(y) - m y stays bounded below on the given
    tails of I, bracketed as ``(feasible, possible)``.

    ``feasible`` is certified inside the set: the declared lower envelopes
    of every tail admit it (None when a tail declares none, or when they
    admit no common slope).  ``possible`` is certified to contain the set:
    declared upper envelopes remove the rest (None when nothing survives).
    """
    everything = (NEG_INF, POS_INF)
    feasible = possible = everything
    for tail in tails:
        lower, upper = psi.tail_envelopes(tail)
        slopes = _tail_slopes(lower, tail)
        feasible = feasible and slopes and _isect(feasible, slopes)
        possible = possible and _isect(possible, _tail_slopes(upper, tail) or everything)
    return feasible, possible


# the intercept grid: 64 rows of psi's row profiles over [-64, 64]
_GRID_ROWS = 64
_GRID_HALFWIDTH = 64.0


def affine_minorant(psi: PiecewiseDefiningFunction) -> AffineMinorant:
    """A feasible (m, c) with psi(y) >= m y + c on R, if one exists.

    Requires I = R.  Tail feasibility is decided from the declared
    envelopes of the outermost pieces; the intercept is certified from the
    row infima of psi over the middle plus the envelope values on the
    tails.  Missing declarations, or a middle row where psi has no finite
    sample, yield Unknown rather than a guess.
    """
    if math.isfinite(psi.interval_lo) or math.isfinite(psi.interval_hi):
        raise ValueError("affine minorants are computed for I = R only")

    E, e_exact = psi.liminf_neg_inf_set()
    if E:
        return AffineMinorant(
            TriState.NO if e_exact else TriState.UNKNOWN,
            reason="psi reaches -inf; no half-plane contains the domain",
        )

    lo_up, _ = psi.tail_envelopes("upper")
    lo_dn, _ = psi.tail_envelopes("lower")
    feas, poss = slope_brackets(psi, ("upper", "lower"))

    # candidate slopes: 0 first, then envelope-suggested slopes
    candidates = [0.0] + [env.m for env in (lo_up, lo_dn) if env is not None]
    feasible_m = next((m for m in candidates if feas and feas[0] <= m <= feas[1]), None)

    if feasible_m is None:
        if poss is None:
            return AffineMinorant(
                TriState.NO,
                reason="declared upper envelopes exclude every slope",
            )
        return AffineMinorant(
            TriState.UNKNOWN, reason="tail declarations insufficient to decide"
        )

    m = feasible_m
    # certified intercept: row infima over the middle, envelope bound on tails
    edges = np.linspace(-_GRID_HALFWIDTH, _GRID_HALFWIDTH, _GRID_ROWS + 1)
    low = psi.row_profiles(edges)["m"]
    empty = np.flatnonzero(low == POS_INF)  # psi never takes +inf: no sample was finite
    if empty.size:
        lo, hi = edges[empty[0]], edges[empty[0] + 1]
        return AffineMinorant(
            TriState.UNKNOWN,
            reason=f"intercept certification failed: no finite sample of psi on [{lo}, {hi}]",
        )
    c_mid = float(np.min(low - m * (edges[:-1] if m <= 0 else edges[1:])))

    def tail_c(env, tail):
        if env is None:
            return POS_INF
        ts = np.geomspace(max(env.valid_from, _GRID_HALFWIDTH), 1e9, 2048)
        if tail == "lower":
            ts = -ts
        g = env.value(ts)
        return float(np.min(g - m * ts))

    c = min(c_mid, tail_c(lo_up, "upper"), tail_c(lo_dn, "lower"))
    if not math.isfinite(c):
        return AffineMinorant(TriState.UNKNOWN, reason="intercept certification failed")
    c -= 1e-9 * (1.0 + abs(c))  # guard against grid-sampling optimism
    return AffineMinorant(TriState.YES, m=m, c=c)
