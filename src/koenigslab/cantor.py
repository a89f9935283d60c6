"""Self-similar Cantor sets with exact membership and interval queries.

A set is built on a base interval by keeping the two outer ``keep_fraction``
sub-intervals of every cell and recursing; ``keep_fraction = 1/3`` is the
ternary middle-thirds set.  Queries run in exact rational arithmetic
(every float converts exactly to a Fraction), with no drift, up to the
declared depth cap.  Construction cell endpoints always belong to the set,
which is what makes the interval intersection query exact above the cap
scale; membership of y is the query on [y, y].  Interval queries run in a
batch: the cells are descended once for all intervals with exact rational
endpoints, and each float interval end is compared with an endpoint c
through the two adjacent floats that bracket c, which is exact.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def _bracket(num: int, den: int):
    """The adjacent floats (c_dn, c_up) with c_dn <= num/den <= c_up, den > 0."""
    d = num / den  # correctly rounded
    n, q = d.as_integer_ratio()
    above = n * den - num * q  # sign of d - num/den
    if above < 0:
        return d, math.nextafter(d, math.inf)
    if above > 0:
        return math.nextafter(d, -math.inf), d
    return d, d


@dataclass(frozen=True)
class CantorSet:
    lo: float
    hi: float
    keep_fraction: float = 1.0 / 3.0
    depth: int = 60

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("base interval must be finite")
        if not (self.lo < self.hi):
            raise ValueError("base interval must be nondegenerate")
        d = self.depth
        if isinstance(d, bool) or not isinstance(d, numbers.Integral) or d < 1:
            raise ValueError(f"depth must be an integer >= 1, got {d!r}")
        if not (0.0 < self.keep_fraction < 0.5):
            raise ValueError("keep_fraction must lie in (0, 1/2)")

    def _frac(self):
        f = Fraction(self.keep_fraction)
        if f == Fraction(6004799503160661, 18014398509481984):  # float(1/3)
            f = Fraction(1, 3)
        return f

    def contains(self, y: float) -> bool:
        """Exact membership, up to the depth cap: the point interval [y, y]."""
        return self.intersects(y, y)

    # -- interval queries --------------------------------------------------

    def intersects(self, a: float, b: float) -> bool:
        """Does [a, b] contain a point of the set?  Exact above the cap."""
        return bool(self.intersects_many([a], [b])[0])

    def intersects_many(self, lo, hi) -> np.ndarray:
        """Elementwise: does [lo, hi] contain a point of the set?

        Exact above the cap.  The construction cells are descended once for
        all intervals, level by level.  On the base [L, H] with keep
        fraction p/q, a level-k cell is [L + W n / q^k, L + W (n + p^k) / q^k]
        with W = H - L and an integer n, so its endpoints are exact ratios
        of integers (the same rationals the Fraction recursion
        c_lo + (c_hi - c_lo) p/q gives).  A float x is compared
        with an exact endpoint c through the adjacent floats c_dn <= c <=
        c_up (equal when c is a float): x < c iff x < c_up, and x <= c iff
        x <= c_dn, with no rounding and no fallback.  An interval that
        contains a cell endpoint meets the set (endpoints belong to it); one
        strictly inside a cell contains an endpoint of a child, lies in the
        gap between the children, or lies strictly inside one child and
        goes down a level.  One still undecided at the depth cap counts as
        a hit.  Reversed intervals (hi < lo) are empty.
        """
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise ValueError("interval ends must not be NaN")
        f = self._frac()
        p, q = f.numerator, f.denominator
        base = Fraction(self.lo)
        width = Fraction(self.hi) - base
        # L + W n / q^k as (A q^k + B n) / (C q^k)
        A = base.numerator * width.denominator
        B = width.numerator * base.denominator
        C = base.denominator * width.denominator

        (lo_dn, lo_up), (hi_dn, hi_up) = _bracket(A, C), _bracket(A + B, C)
        meets = (lo <= hi) & (hi >= lo_up) & (lo <= hi_dn)
        out = meets & ((lo <= lo_dn) | (hi >= hi_up))
        inside = np.flatnonzero(meets & ~out)  # strictly inside the base cell
        flat_out = out.reshape(-1)
        a_of, b_of = lo.reshape(-1).tolist(), hi.reshape(-1).tolist()
        cells = {0: inside.tolist()} if inside.size else {}
        qk = pk = 1  # q^k and p^k at the level of the cells
        for _ in range(self.depth):
            if not cells:
                break
            qk, pk1 = qk * q, pk * p
            children = {}
            for n, rows in cells.items():
                e1, e2 = n * q + pk1, (n + pk) * q - pk1  # inner child endpoints
                e1_dn, e1_up = _bracket(A * qk + B * e1, C * qk)
                e2_dn, e2_up = _bracket(A * qk + B * e2, C * qk)
                for r in rows:
                    a, b = a_of[r], b_of[r]
                    if b < e1_up:
                        children.setdefault(n * q, []).append(r)
                    elif a > e2_dn:
                        children.setdefault(e2, []).append(r)
                    elif a <= e1_dn or b >= e2_up:
                        flat_out[r] = True
                    # else it lies in the gap between the children
            cells, pk = children, pk1
        for rows in cells.values():
            flat_out[rows] = True  # undecided at the depth cap: conservative
        return out

    def gaps(self, max_depth: int = 8):
        """Complementary open intervals inside the base, up to max_depth."""
        out = []

        def rec(clo, chi, depth):
            if depth == 0:
                return
            w = (chi - clo) * self.keep_fraction
            out.append((clo + w, chi - w))
            rec(clo, clo + w, depth - 1)
            rec(chi - w, chi, depth - 1)

        rec(self.lo, self.hi, max_depth)
        out.sort()
        return out

    def sample_points(self, max_depth: int = 6):
        """Cell endpoints up to max_depth; all belong to the set."""
        return sorted({self.lo, self.hi, *(e for gap in self.gaps(max_depth) for e in gap)})

    def to_json(self):
        return {
            "base": [self.lo, self.hi],
            "keep_fraction": self.keep_fraction,
            "depth": self.depth,
        }

    @staticmethod
    def from_json(obj) -> "CantorSet":
        lo, hi = obj["base"]
        return CantorSet(
            float(lo),
            float(hi),
            float(obj.get("keep_fraction", 1.0 / 3.0)),
            obj.get("depth", 60),
        )
