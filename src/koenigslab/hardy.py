"""Frequency sets: the exact bounded-exponential region, and two routes to
the membership of e^{lam z} in H^p of the canonical domains.

A canonical domain is the image of the unit disc under an explicit map T,
and e^{lam z} is in H^p of it exactly when F = e^{lam T} is in H^p(D).
That holds iff F is in the Smirnov class N^+ and its boundary values are
in L^p (Duren, *Theory of H^p Spaces*, 1970, Thm 2.11).

``exact_membership`` decides this in closed form from the ends each
``CanonicalDomain`` declares: a pole end T = c w + g, with w the Cayley
map and g in every H^q, q < inf, and a logarithmic end, where
log|F| = Re(lam k) (log 1/delta)^a + O(1) on the boundary at distance
delta from it.  The proofs are in ``PoleEnd`` and ``LogEnd``; a
logarithmically divergent boundary integral is decided exactly there.

``hardy_membership`` is the independent quadrature route.  The p-th
power means over circles |u| = r are nondecreasing in r, and membership
is equivalent to their boundedness.  The oracle climbs a dyadic schedule
r = 1 - 2^-j with a node budget per level and certifies one of

  * divergence: means exceed 1e12 and keep growing (non-member),
  * stabilization: relative Cauchy differences below 1e-6 (member),
  * increment trend: successive increments decay geometrically (member,
    the sup is finitely extrapolated) or grow geometrically (non-member).

Anything else is inconclusive; a logarithmically divergent boundary
integral (increment ratio 1) is one such case for this route.

Each level is the periodic trapezoid rule on n midpoint nodes
theta_k = (k + 1/2) 2 pi / n, a set closed under conjugation.  Every
canonical transplant T satisfies T(conj u) = reflection * conj T(u) with
reflection = +1 or -1, so only the n/2 nodes on the upper half circle
are transplanted; the lower half is read from them by that symmetry.  The
node cache keeps the transplanted upper half as two contiguous real
arrays (x, y).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .classify import HYPERBOLIC, PARABOLIC_ZERO, classify, slope_brackets
from .domain import NEG_INF, POS_INF, PiecewiseDefiningFunction
from .tri import TriState

MEMBER = "member"
NON_MEMBER = "non_member"
INCONCLUSIVE = "inconclusive"

_LOG_DIV = math.log(1e12)
_CAUCHY_TOL = 1e-6
_DECAY_RATIO = 0.98
_GROWTH_RATIO = 1.02


@dataclass(frozen=True)
class QuadraturePlan:
    j_min: int
    j_max: int
    node_base: int  # N_j = 2**min(18, node_scale(j) + node_base)
    half_scale: bool  # structure scale 2^{-j/2} (log-type boundary) or 2^{-j}

    def levels(self):
        for j in range(self.j_min, self.j_max + 1):
            k = (j + 1) // 2 if self.half_scale else j
            n = 2 ** min(18, k + self.node_base)
            yield j, 1.0 - 2.0 ** (-j), n


@dataclass(frozen=True)
class PoleEnd:
    """A boundary end where T = c w + g, with w = (1 + u)/(1 - u) the Cayley
    map and g in H^q(D) for every q < inf.

    Then F = e^{lam T} is in N^+ iff lam c is real and <= 0.  Proof: g is in
    H^1, so Re(lam g) is the Poisson integral of its boundary values; hence
    e^{lam g} and its reciprocal are outer, and F is in N^+ iff e^{lam c w}
    is.  Write lam c = s + it.  Re w is the Poisson kernel P at 1, and Im w
    has boundary values cot(theta/2).

    * t = 0, s <= 0: |e^{lam c w}| = e^{s P} <= 1, a bounded function.
    * t != 0: log|e^{lam c w}| has boundary values -t cot(theta/2), whose
      positive part is not integrable on one side of theta = 0, so the
      function is not even in the Nevanlinna class.
    * t = 0, s > 0: log|e^{lam c w}| = s P > 0, while its boundary values
      vanish almost everywhere; a function G in N^+ has
      log|G| <= P[log|G*|] (Duren 1970, Thm 2.10).

    The right half-plane (T = w) and eta_a have c = 1; the horizontal
    half-planes, T = i edge +- i w, have c = +-i.  For eta_a,
    g = -(log(w+3))^a with |g| <= (log(8/|1-u|) + pi/2)^a, and log(1-u) has
    bounded imaginary part, so it lies in every H^q."""

    c: complex

    def obstruction(self, lam, p):
        lc = lam * self.c
        if lc.imag == 0.0 and lc.real <= 0.0:
            return None
        return f"pole end c={self.c}: lam*c = {lc} is not real and <= 0, so e^(lam T) is not in N^+"


@dataclass(frozen=True)
class LogEnd:
    """A boundary end where log|e^{lam T}| = Re(lam k) (log 1/delta)^a + O(1)
    at boundary points at arc distance delta from it, with k real and
    0 < a <= 1, for every lam that the domain's pole ends admit.

    Near the end |F*|^p = e^{p Re(lam k) (log 1/delta)^a + O(1)}.  For a = 1
    that is delta^{-p Re(lam k)} up to bounded factors, integrable iff
    p Re(lam k) < 1.  Divergence certifies a non-member with no class
    condition, since H^p functions have L^p boundary values.  For a < 1 and
    every eps > 0, (log 1/delta)^a <= eps log(1/delta) + C(a, eps); with
    eps = 1/(2 p |k lam|) the integrand is O(delta^(-1/2)), so the end adds
    no condition.

    * Strip, T = log w: on the boundary w = i cot(theta/2), so
      Re T = log|cot(theta/2)| and |Im T| = pi/2.  At theta = 0,
      |cot(theta/2)| = 2/delta + O(delta), so Re T = log(1/delta) + O(1):
      k = 1, a = 1.  At theta = pi, |cot(theta/2)| = delta/2 + O(delta^3):
      k = -1, a = 1.  Im lam enters only through the bounded Im T.
    * eta_a: the pole end admits only real lam, and on the boundary
      T = i tau - L^a with L = log(3 + i tau), |tau| = 2/delta + O(delta).
      Re L^a = |L|^a cos(a arg L) with arg L = O(1/log|tau|), so
      Re L^a = (log|3 + i tau|)^a + o(1) = (log 1/delta)^a + O(1), the last
      step because (x + O(1))^a - x^a = O(x^(a-1)) for a <= 1.  Hence
      log|F*| = -lam (log 1/delta)^a + O(1): k = -1 with the exponent a."""

    k: float
    a: float

    def obstruction(self, lam, p):
        v = p * (lam * self.k).real
        if self.a == 1.0 and v >= 1.0:
            return f"logarithmic end k={self.k}: p Re(lam k) = {v} >= 1, so the boundary integral diverges"
        return None


@dataclass(frozen=True)
class CanonicalDomain:
    """A domain with an explicit conformal map from the unit disc.

    ``ends`` lists the pole and logarithmic ends of T on the unit circle,
    pole ends first.  Away from them F = e^{lam T} has bounded boundary
    values.  T is c w + g when the domain has a pole end, and T itself lies
    in every H^q when it has none (the strip, T = log w); so F is in N^+ iff
    every pole end admits lam, and then F is in H^p iff every logarithmic
    end keeps the boundary integral finite."""

    key: str
    transplant: Callable  # u in D (ndarray complex) -> domain points
    plan: QuadraturePlan
    # +1.0 or -1.0: transplant(conj u) = reflection * conj(transplant(u))
    reflection: float
    ends: tuple

    def __repr__(self):
        return f"CanonicalDomain({self.key})"


def _cayley(u):
    return (1.0 + u) / (1.0 - u)


def half_plane_right() -> CanonicalDomain:
    return CanonicalDomain(
        "half_plane_right", _cayley, QuadraturePlan(2, 14, 5, False), 1.0, (PoleEnd(1.0),)
    )


def horizontal_half_plane(edge=0.0, side="upper") -> CanonicalDomain:
    sgn = 1.0 if side == "upper" else -1.0

    def tr(u):
        return 1j * edge + sgn * 1j * _cayley(u)

    return CanonicalDomain(
        f"horizontal_half_plane:{edge}:{side}", tr, QuadraturePlan(2, 14, 5, False), -1.0,
        (PoleEnd(complex(0.0, sgn)),),
    )


def strip_width_pi() -> CanonicalDomain:
    def tr(u):
        return np.log(_cayley(u))

    return CanonicalDomain(
        "strip_width_pi", tr, QuadraturePlan(2, 14, 5, False), 1.0,
        (LogEnd(1.0, 1.0), LogEnd(-1.0, 1.0)),
    )


def eta_domain(a=1.0) -> CanonicalDomain:
    """Image of the right half-plane under w - (log(w+3))^a, a in (0, 1]."""
    if not (0.0 < a <= 1.0):
        raise ValueError("the exponent must lie in (0, 1]")

    def tr(u):
        w = _cayley(u)
        lg = np.log(w + 3.0)
        return w - np.exp(a * np.log(lg))

    return CanonicalDomain(
        f"eta_domain:{a}", tr, QuadraturePlan(3, 22, 9, True), 1.0,
        (PoleEnd(1.0), LogEnd(-1.0, a)),
    )


@dataclass
class MembershipResult:
    status: str
    lam: complex
    p: float
    certificate: str
    log_means: list
    levels_used: int


def check_p(p):
    """The one range check on p, shared by both membership routes and the
    H^p verdicts of ``completeness``."""
    if not 1.0 <= p < POS_INF:
        raise ValueError(f"p must be at least 1 and finite, got {p!r}")


def _check_query(lam, p):
    lam = complex(lam)
    if not cmath.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam!r}")
    check_p(p)
    return lam


# -- the exact route -----------------------------------------------------------


def exact_membership(lam, dom: CanonicalDomain, p=2.0) -> MembershipResult:
    """Membership of e^{lam z} in H^p(dom), decided from the ends of dom."""
    lam = _check_query(lam, p)
    if lam == 0:
        return MembershipResult(MEMBER, lam, p, "constant function", [], 0)
    for end in dom.ends:
        reason = end.obstruction(lam, p)
        if reason is not None:
            return MembershipResult(NON_MEMBER, lam, p, reason, [], 0)
    return MembershipResult(
        MEMBER, lam, p, "in N^+ with a convergent boundary integral at every end", [], 0
    )


# -- the quadrature route ----------------------------------------------------

_transplant_cache: dict = {}


def _nodes(dom, j, r, n):
    """Transplanted upper half circle of level j: real arrays (x, y) at the
    nodes theta_k, k < n/2; the rule's lower half is their reflection."""
    key = (dom.key, j, n)
    xy = _transplant_cache.get(key)
    if xy is None:
        theta = (np.arange(n // 2) + 0.5) * (2.0 * math.pi / n)
        w = dom.transplant(r * np.exp(1j * theta))
        xy = (np.ascontiguousarray(w.real), np.ascontiguousarray(w.imag))
        if len(_transplant_cache) > 40:
            _transplant_cache.clear()
        _transplant_cache[key] = xy
    return xy


def _log_mean(dom, lam, p, j, r, n):
    """log of the p-th power mean of |e^{lam z}| over the circle |u| = r.

    At w = x + iy on the upper half, log|e^{p lam w}| = a x - b y with
    (a, b) = p (Re lam, Im lam); at the mirrored node it is
    reflection * (a x + b y).  For real lam and reflection +1 the two
    agree, and one half carries the whole mean."""
    x, y = _nodes(dom, j, r, n)
    a, b = p * lam.real, p * lam.imag
    if dom.reflection > 0 and b == 0:
        halves = (a * x,)
    else:
        ax, by = a * x, b * y
        mirrored = ax + by
        if dom.reflection < 0:
            np.negative(mirrored, out=mirrored)
        halves = (np.subtract(ax, by, out=ax), mirrored)
    Lmax = float(np.max([L.max() for L in halves]))
    if not math.isfinite(Lmax):
        return POS_INF
    total = 0.0
    for L in halves:
        L -= Lmax
        total += float(np.exp(L, out=L).sum())
    return Lmax + math.log(total / (x.size * len(halves)))


def _trend_verdict(logs):
    vals = np.exp(np.asarray(logs, dtype=float))
    k = min(9, len(vals))
    tail = vals[-k:]
    scale = max(float(tail[-1]), 1e-300)
    d = np.diff(tail)
    if np.all(np.abs(d[-4:]) < 1e-9 * scale):
        return MEMBER, "means stabilized at the noise floor"
    if np.any(d <= 0):
        return INCONCLUSIVE, "non-monotone increments (quadrature noise)"
    ratios = d[1:] / d[:-1]
    last = ratios[-3:]
    if np.all(last <= _DECAY_RATIO):
        return MEMBER, "increments decay geometrically; bounded extrapolation"
    if np.all(last >= _GROWTH_RATIO):
        return NON_MEMBER, "increments grow geometrically; divergence trend"
    return INCONCLUSIVE, "increment ratio too close to 1 to certify"


def hardy_membership(lam, dom: CanonicalDomain, p=2.0, budget=None) -> MembershipResult:
    """Tri-state membership of e^{lam z} in H^p(dom), by quadrature."""
    lam = _check_query(lam, p)
    if lam == 0:
        return MembershipResult(MEMBER, lam, p, "constant function", [0.0], 1)
    logs = []
    nodes_spent = 0
    cert = None
    status = None
    for j, r, n in dom.plan.levels():
        if budget is not None and nodes_spent + n > budget:
            break
        logs.append(_log_mean(dom, lam, p, j, r, n))
        nodes_spent += n
        if len(logs) >= 4:
            tail = logs[-4:]
            if tail[-1] > _LOG_DIV and all(b > a for a, b in zip(tail, tail[1:])):
                status, cert = NON_MEMBER, "means exceed the divergence threshold"
                break
            deltas = [abs(b - a) for a, b in zip(logs[-4:-1], logs[-3:])]
            if all(d < _CAUCHY_TOL for d in deltas):
                status, cert = MEMBER, "relative Cauchy differences below tolerance"
                break
    if status is None:
        if len(logs) >= 6:
            status, cert = _trend_verdict(logs)
        else:
            status, cert = INCONCLUSIVE, "budget exhausted before any certificate"
    return MembershipResult(status, lam, p, cert, logs, len(logs))


# -- exact bounded-exponential region ----------------------------------------


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
    """Exact description of the bounded-exponential directions."""
    psi.require_validated()
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


# -- frequency algebra checks -------------------------------------------------


def scaling_law_check(dom: CanonicalDomain, p, q, grid):
    """For each lam with definite H^p status, (p/q) lam must have the same
    H^q status.  Returns agreement counts and mismatches."""
    agree = 0
    mismatch = []
    skipped = 0
    factor = p / q
    for lam in grid:
        s1 = hardy_membership(lam, dom, p)
        s2 = hardy_membership(factor * complex(lam), dom, q)
        if s1.status == INCONCLUSIVE or s2.status == INCONCLUSIVE:
            skipped += 1
            continue
        if s1.status == s2.status:
            agree += 1
        else:
            mismatch.append((complex(lam), s1.status, s2.status))
    return {
        "p": p,
        "q": q,
        "agree": agree,
        "mismatch": mismatch,
        "skipped_inconclusive": skipped,
    }


_BAND_TOL = 0.02  # bracket width, in units of 1/p
_BAND_MAX_ITER = 12


def betsakos_band(dom: CanonicalDomain, p):
    """Bracket the member/non-member transitions of H^p membership along
    the real axis, one bracket per side, for a strip-type domain.
    Returns dict with per-side brackets scaled by p (the band constants)
    and spot checks on the imaginary axis."""

    def status(u):
        return hardy_membership(complex(u, 0.0), dom, p).status

    def bracket(sign):
        hi = 4.0 / p
        # find a definite non-member endpoint
        for _ in range(8):
            if status(sign * hi) == NON_MEMBER:
                break
            hi *= 1.5
        else:
            return None
        # member edge: largest |u| certified member (inconclusive counts up)
        a, b = 0.0, hi
        for _ in range(_BAND_MAX_ITER):
            if b - a < _BAND_TOL / p:
                break
            mid = 0.5 * (a + b)
            if status(sign * mid) == MEMBER:
                a = mid
            else:
                b = mid
        member_edge = a
        # non-member edge: smallest |u| certified non-member
        a2, b2 = member_edge, hi
        for _ in range(_BAND_MAX_ITER):
            if b2 - a2 < _BAND_TOL / p:
                break
            mid = 0.5 * (a2 + b2)
            if status(sign * mid) == NON_MEMBER:
                b2 = mid
            else:
                a2 = mid
        return (p * member_edge, p * b2)

    axis_checks = {
        repr(v): hardy_membership(complex(0.0, v), dom, p).status
        for v in (0.5, -1.0, 5.0)
    }
    return {
        "c2_bracket": bracket(+1.0),
        "c1_bracket": bracket(-1.0),
        "imaginary_axis": axis_checks,
        "p": p,
    }
