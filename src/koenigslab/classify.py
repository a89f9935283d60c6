"""Semigroup type and canonical containing domain, read off the interval I,
and the directions of bounded exponentials.

The model set swept by the domain under left translation is the whole
plane when I = R, a horizontal half-plane when I is a proper half-line,
and a strip when I is bounded; that trichotomy is the semigroup class.
``lambda_infty`` is the one decision of which slopes admit an affine
minorant of psi, bracketed from the declared tail envelopes by
``slope_brackets``; e^{lam z} is bounded on the domain along those
directions.  Containment of the domain in a tilted half-plane reads that
decision: ``affine_minorant`` takes its slope from the bracket and its
intercept from ``line_floor``, the one whole-line floor on psi.
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
        feasible = feasible and lower and _isect(feasible, lower.slopes(tail))
        possible = possible and _isect(possible, upper.slopes(tail) if upper else everything)
    return feasible, possible


@dataclass
class FrequencyRegion:
    """Description of the directions lam with e^{lam z} bounded on the domain.

    The region is {0}, plus the vertical directions allowed by the height
    interval, plus rays into the open left half-plane whose slope
    v/u (lam = u + iv, u < 0) admits an affine minorant of psi.  Feasible
    slopes are bracketed: ``slopes_feasible`` is certified inside,
    ``slopes_possible`` certified outside its complement; they coincide
    exactly when declarations pin the region.
    """

    includes_plus_i: TriState
    includes_minus_i: TriState
    left_directions: TriState  # any u < 0 direction at all
    slopes_feasible: Optional[tuple]  # closed interval or None
    slopes_possible: Optional[tuple]
    exact: bool
    notes: str = ""

    def contains(self, lam) -> TriState:
        lam = complex(lam)
        if lam == 0:
            return TriState.YES
        u, v = lam.real, lam.imag
        if u > 0:
            return TriState.NO
        if u == 0:
            return self.includes_plus_i if v > 0 else self.includes_minus_i
        if self.left_directions is TriState.NO:
            return TriState.NO
        m = v / u
        if self.slopes_feasible is not None and (
            self.slopes_feasible[0] <= m <= self.slopes_feasible[1]
        ):
            return TriState.YES
        if self.slopes_possible is None or not (
            self.slopes_possible[0] <= m <= self.slopes_possible[1]
        ):
            return TriState.NO
        return TriState.UNKNOWN

    def to_json(self):
        return {
            "includes_plus_i": self.includes_plus_i.value,
            "includes_minus_i": self.includes_minus_i.value,
            "left_directions": self.left_directions.value,
            "slopes_feasible": list(self.slopes_feasible)
            if self.slopes_feasible
            else None,
            "slopes_possible": list(self.slopes_possible)
            if self.slopes_possible
            else None,
            "exact": self.exact,
            "notes": self.notes,
        }


def lambda_infty(psi: PiecewiseDefiningFunction) -> FrequencyRegion:
    """The bounded-exponential directions, bracketed from the declared
    envelopes; ``exact`` says when the bracket pins them."""
    cls = classify(psi)
    plus_i = TriState.from_bool(math.isfinite(psi.interval_lo))
    minus_i = TriState.from_bool(math.isfinite(psi.interval_hi))
    E, e_exact = psi.liminf_neg_inf_set()
    if E:
        return FrequencyRegion(
            plus_i,
            minus_i,
            TriState.NO if e_exact else TriState.UNKNOWN,
            None,
            None,
            exact=e_exact,
            notes="psi reaches -inf: no left directions",
        )
    if cls.kind == HYPERBOLIC:
        # psi_* > -inf on the compact closure of I, so psi is bounded
        # below and every slope admits an intercept
        return FrequencyRegion(
            plus_i, minus_i, TriState.YES, (NEG_INF, POS_INF), (NEG_INF, POS_INF),
            exact=True, notes="bounded interval and psi bounded below",
        )
    tails = ("upper", "lower") if cls.kind == PARABOLIC_ZERO else (cls.container["side"],)
    feas, poss = slope_brackets(psi, tails)
    if feas is None and poss is None:
        left, exact, notes = TriState.NO, True, "declared upper envelopes exclude every slope"
    elif feas is None:
        left, exact = TriState.UNKNOWN, False
        bare = " and ".join(f"the {t} tail" for t in tails if psi.tail_envelopes(t)[0] is None)
        notes = f"lower-bound-only: no tail_lower on {bare}" if bare else (
            "declared lower envelopes too weak to certify a slope")
    else:
        left, exact = TriState.YES, poss is not None and feas == poss
        notes = "" if exact else "feasible slopes are a certified lower bound"
    return FrequencyRegion(plus_i, minus_i, left, feas, poss, exact=exact, notes=notes)


def _row_floors(psi, edges, m, coef, a):
    """Per row between consecutive edges: the sampled infimum of psi, plus
    -m y at the row end where it is least and the log term at the end
    nearer 0."""
    lo, hi = edges[:-1], edges[1:]
    logs = np.log(np.minimum(np.abs(lo), np.abs(hi)) + 3.0) ** a
    return psi.row_profiles(edges).m + np.minimum(-m * lo, -m * hi) + coef * logs


def line_floor(psi: PiecewiseDefiningFunction, m=0.0, coef=0.0, a=0.0):
    """K with psi(y) >= m y + K - coef (log(|y|+3))^a on I = R, as
    ``(K, "")``, or ``(None, reason)``; needs coef, a >= 0.

    256 row floors (``_row_floors``) bound [-R, R], R the largest of 64,
    each lower envelope's ``valid_from`` and each tail piece's inner end.
    Beyond R each tail is bounded by ``TailEnvelope.floor``.  The rows are
    sampled, and a dip between samples hides up to the square of their
    spacing: so the lowest row and its neighbours are split into 64 rows,
    then the lowest of those and its neighbours (at most 8 times), while K
    still drops by more than the guard 1e-9 (1 + |K|) it is lowered by.
    """
    lower, upper = psi.tail_envelopes("lower")[0], psi.tail_envelopes("upper")[0]
    if lower is None or upper is None:
        return None, "a tail declares no lower envelope"
    inner = [abs(t) for t in (psi.pieces[0].span[1], psi.pieces[-1].span[0]) if math.isfinite(t)]
    R = max(64.0, lower.valid_from, upper.valid_from, *inner)
    edges = np.linspace(-R, R, 257)
    rows = _row_floors(psi, edges, m, coef, a)
    empty = np.flatnonzero(rows == POS_INF)  # psi never takes +inf: no sample was finite
    if empty.size:
        return None, f"no finite sample of psi on [{edges[empty[0]]}, {edges[empty[0] + 1]}]"
    tails = [lower.floor(m - lower.m, R, coef, a), upper.floor(upper.m - m, R, coef, a)]
    if None in tails:
        return None, "a lower tail envelope gives no closed-form floor"
    j = int(np.argmin(rows))
    k, lo, hi = min(float(rows[j]), *tails), edges[max(j - 1, 0)], edges[min(j + 2, rows.size)]
    for _ in range(8):
        sub = np.linspace(lo, hi, 65)
        floors = _row_floors(psi, sub, m, coef, a)
        s = int(np.argmin(floors))
        if not floors[s] < k - 1e-9 * (1.0 + abs(k)):
            break
        k, lo, hi = float(floors[s]), sub[max(s - 1, 0)], sub[min(s + 2, 64)]
    if not math.isfinite(k):
        return None, "the floor is not finite"
    return k - 1e-9 * (1.0 + abs(k)), ""


def affine_minorant(psi: PiecewiseDefiningFunction) -> AffineMinorant:
    """A feasible (m, c) with psi(y) >= m y + c on R, if one exists.

    Requires I = R.  Whether any slope admits a minorant is
    ``lambda_infty``'s left-direction decision, with its notes as the
    reason when that is not yes.  The slope is the first of 0, the lower
    envelopes' own slopes and the midpoint of the feasible bracket (bounded
    for I = R) that the bracket admits, and the intercept is certified by
    ``line_floor``; an intercept it cannot certify yields Unknown.
    """
    if math.isfinite(psi.interval_lo) or math.isfinite(psi.interval_hi):
        raise ValueError("affine minorants are computed for I = R only")
    region = lambda_infty(psi)
    if region.left_directions is not TriState.YES:
        return AffineMinorant(region.left_directions, reason=region.notes)
    lo, hi = region.slopes_feasible
    lowers = [psi.tail_envelopes(tail)[0].m for tail in ("upper", "lower")]
    m = next(m for m in (0.0, *lowers, 0.5 * lo + 0.5 * hi) if lo <= m <= hi)
    c, why = line_floor(psi, m)
    if c is None:
        return AffineMinorant(TriState.UNKNOWN, reason=f"intercept certification failed: {why}")
    return AffineMinorant(TriState.YES, m=m, c=c)
