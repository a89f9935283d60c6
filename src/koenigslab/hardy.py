"""Frequency sets of the canonical domains: two routes to the membership of
e^{lam z} in H^p, and the bounded real interval that the ends may confine
Lambda_p to.

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
``frequency_floor`` reads off the same ends when they confine Lambda_p,
the lam it admits, to a bounded real interval (lo, 0].

``hardy_membership`` is the independent quadrature route.  The p-th
power means over circles |u| = r are nondecreasing in r, and membership
is equivalent to their boundedness.  The oracle climbs a dyadic schedule
r = 1 - 2^-j with a node count per level and certifies one of

  * divergence: means exceed 1e12 and keep growing (non-member),
  * stabilization: relative Cauchy differences below 1e-6 (member),
  * increment trend: successive increments decay geometrically (member,
    the sup is finitely extrapolated) or grow geometrically (non-member).

Anything else is inconclusive; a logarithmically divergent boundary
integral (increment ratio 1) is one such case for this route.

Each level is the periodic trapezoid rule on n midpoint nodes
theta_k = (k + 1/2) 2 pi / n, a set closed under conjugation.  Every
canonical map T satisfies T(conj u) = reflection * conj T(u) with
reflection = +1 or -1, so only the n/2 nodes on the upper half circle
are mapped; the lower half is read from them by that symmetry.

``circle_nodes`` is the one way into a canonical map: it forms the Cayley
point w = (1 + u)/(1 - u) from sines of the node angles with no
cancellation, and each domain's ``re_map`` and ``im_map`` carry
(Re w, Im w) to Re T and Im T.  On the five canonical domains every node
is within 8 ulps of |T| (about 4 at worst) against a 200-bit evaluation at
the same float angle; forming T from complex u would lose up to ~2*10^4
ulps to the cancellation in 1 - u near theta = 0.  The oracle and
``approx.least_squares_fit`` both read these nodes.  The node cache keeps
one record per upper half, keyed by the domain itself: the read-only
Re T with its minimum and maximum, and Im T once a query reads it.  A
real lam on a domain with reflection +1 reads Re T alone, so the deep
real-axis queries never build Im T.  Each query runs its levels and the
trend rules under one ``np.errstate``, so a lam whose node products
overflow keeps its +inf means without a warning.

A level of ``_LANE_MIN`` upper-half nodes or more is mapped on two lanes
(``two_lanes``): the upper half of its nodes on a short-lived thread,
while numpy's loops run without the interpreter lock.  Each lane writes
its slice of one preallocated array through the ufuncs one lane would
run, so every node keeps its bits.  ``approx`` builds its design matrix,
each fit's conjugate copy and each fit's Gram matrix the same way, the
Gram split by its rows; no lane gets fewer than two rows.
"""

from __future__ import annotations

import cmath
import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

# benchmarks/worker.py and its tracer call hardy.lambda_infty; it lives in classify
from .classify import FrequencyRegion, lambda_infty  # noqa: F401
from .domain import POS_INF

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
    end keeps the boundary integral finite.

    T is given as two maps of the Cayley point w = (1 + u)/(1 - u), each
    taking (Re w, Im w) as two real arrays: ``re_map`` returns Re T and
    ``im_map`` returns Im T.  Either may overwrite its arguments, and
    both act element by element, so a level may map its nodes in two
    slices on two lanes.  ``circle_nodes`` is their one caller, and a query
    that reads only Re T never runs ``im_map``."""

    key: str
    re_map: Callable  # (Re w, Im w) -> Re T, w the Cayley point of u
    im_map: Callable  # (Re w, Im w) -> Im T
    plan: QuadraturePlan
    # +1.0 or -1.0: T(conj u) = reflection * conj T(u)
    reflection: float
    ends: tuple

    def __repr__(self):
        return f"CanonicalDomain({self.key})"


def _re_w(x, y):
    return x


def _im_w(x, y):
    return y


def half_plane_right() -> CanonicalDomain:
    return CanonicalDomain(
        "half_plane_right", _re_w, _im_w, QuadraturePlan(2, 14, 5, False), 1.0,
        (PoleEnd(1.0),),
    )


def horizontal_half_plane(edge=0.0, side="upper") -> CanonicalDomain:
    """The half-plane above (side "upper") or below ("lower") the line
    Im z = edge: T = i edge +- i w."""
    if side not in ("upper", "lower"):
        raise ValueError(f"horizontal_half_plane: side must be 'upper' or 'lower', got {side!r}")
    if not math.isfinite(edge):
        raise ValueError(f"horizontal_half_plane: edge must be finite, got {edge!r}")
    sgn = 1.0 if side == "upper" else -1.0

    def re_map(x, y):
        y *= -sgn
        return y

    def im_map(x, y):
        x *= sgn
        x += edge
        return x

    return CanonicalDomain(
        f"horizontal_half_plane:{edge}:{side}", re_map, im_map, QuadraturePlan(2, 14, 5, False),
        -1.0, (PoleEnd(complex(0.0, sgn)),),
    )


def _log_abs(x, y):
    l = np.hypot(x, y, out=x)
    return np.log(l, out=l)


def _arg(x, y):
    return np.arctan2(y, x)


def strip_width_pi() -> CanonicalDomain:
    return CanonicalDomain(
        "strip_width_pi", _log_abs, _arg, QuadraturePlan(2, 14, 5, False), 1.0,
        (LogEnd(1.0, 1.0), LogEnd(-1.0, 1.0)),
    )


def log_power(s, t, a, part=None):
    """L = log(s + i t) = l + i phi and L^a = p + i q for s > 0 and t, one of
    them an array, in real arithmetic: the one eta kernel, shared by the quadrature
    nodes (s = Re w + 3) and ``battery``'s boundary inversion (s = 3).

    l = log hypot(s, t) (s^2 + t^2 overflows above 1.3e154) and
    phi = atan2(t, s).  For a = 1, L^a = L exactly; otherwise
    L^a = |L|^a (cos a theta, sin a theta) with theta = atan2(phi, l), the
    principal power.  Each step writes over its own temporary.

    ``part`` "re" asks for p alone and "im" for q alone; the tuple then
    holds None for what that part does not need.  Re L needs no atan2 and
    Im L no log; for a < 1, p needs no sin and q no cos.  Every part that
    is computed has the bits of the full call.
    """
    l = phi = None
    if part != "im" or a != 1.0:
        l = np.hypot(s, t)
        np.log(l, out=l)
    if part != "re" or a != 1.0:
        phi = np.arctan2(t, s)
    if a == 1.0:
        return l, phi, l, phi
    ra = np.hypot(l, phi)
    ra **= a
    a_theta = np.arctan2(phi, l)
    a_theta *= a
    p = q = None
    if part != "im":
        p = np.cos(a_theta)
        p *= ra
    if part != "re":
        q = np.sin(a_theta, out=a_theta)
        q *= ra
    return l, phi, p, q


def eta_domain(a=1.0) -> CanonicalDomain:
    """Image of the right half-plane under w - (log(w+3))^a, a in (0, 1]."""
    if not (0.0 < a <= 1.0):
        raise ValueError(f"eta_domain: the exponent a must lie in (0, 1], got {a!r}")

    def re_map(x, y):
        x -= log_power(x + 3.0, y, a, "re")[2]
        return x

    def im_map(x, y):
        y -= log_power(x + 3.0, y, a, "im")[3]
        return y

    return CanonicalDomain(
        f"eta_domain:{a}", re_map, im_map, QuadraturePlan(3, 22, 9, True), 1.0,
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


def frequency_floor(dom: CanonicalDomain, p=2.0):
    """lo with Lambda_p(dom), the lam that ``exact_membership`` admits,
    inside (lo, 0], read off the ends of dom; None when they do not
    confine it so.

    A pole end with real c > 0 admits only real lam <= 0, and then each
    logarithmic end k < 0 with a = 1 admits only p lam k < 1, that is
    lam > 1/(p k).  For eta_1, lo = -1/p."""
    check_p(p)
    poles = [complex(e.c) for e in dom.ends if isinstance(e, PoleEnd)]
    if not any(c.imag == 0 and c.real > 0 for c in poles):
        return None
    cuts = [1.0 / (p * e.k) for e in dom.ends if isinstance(e, LogEnd) and e.a == 1.0 and e.k < 0]
    return max(cuts, default=None)


# -- the quadrature route ----------------------------------------------------

# the _Level of each level, keyed by (domain, j, n): the domain itself, so
# that two domains with one key never share nodes
_node_cache: dict = {}


@functools.lru_cache(maxsize=32)
def _half_circle_sines(n):
    """sin(theta_k / 2) and sin(theta_k) at the upper half's midpoint nodes
    theta_k = (k + 1/2) 2 pi / n, k < n/2; read-only, shared by every level
    and domain with this n."""
    half = (np.arange(n // 2) + 0.5) * (math.pi / n)
    s, sn = np.sin(half), np.sin(2.0 * half)
    s.flags.writeable = False
    sn.flags.writeable = False
    return s, sn


def _cayley_point(j, s, sn):
    """(Re w, Im w) at the nodes of |u| = r = 1 - 2^-j whose sines are
    s = sin(theta/2) and sn = sin(theta), two slices of one
    ``_half_circle_sines``, as two fresh arrays.

    With h = 1 - r = 2^-j and D = |1 - u|^2 = h^2 + 4 r s^2, the Cayley
    point of u = r e^{i theta} is Re w = h (1 + r)/D and
    Im w = 2 r sin(theta)/D.  Every term of D is positive, so nothing
    cancels."""
    h = 2.0 ** (-j)
    r = 1.0 - h
    d = np.multiply(s, s)
    d *= 4.0 * r
    d += h * h
    x = np.divide(h * (1.0 + r), d)
    y = np.divide(sn, d, out=d)
    y *= 2.0 * r
    return x, y


# below this many elements ``two_lanes`` runs one lane in place: starting
# and joining a thread costs about 0.1-0.2 ms on a 2-core Xeon, and on the
# oracle's levels two lanes gained from 2^15 nodes on
_LANE_MIN = 2**15


def two_lanes(fn, n, width=1):
    """fn(lane) on the two halves of range(n), n rows of ``width`` elements
    each, each lane a slice of the rows: the lower half in the caller, the
    upper half on a short-lived thread.  Below ``_LANE_MIN`` elements, or
    below 4 rows, fn(slice(0, n)) runs alone in place.

    No lane gets fewer than two rows: the fit's Gram product on one row
    is a vector-matrix product, which BLAS hands to gemv, and gemv sums in
    another order than the gemm one lane would run.  The levels and the
    fit's design and conjugate copy run on thousands of rows, so only a
    Gram matrix of 2 or 3 frequencies reaches this rule.

    numpy's loops release the interpreter lock, so the two halves' ufunc
    work runs on two cores, and each element goes through the ufunc that
    one lane would run on it.  The thread takes the caller's numpy error
    state (a new thread starts from numpy's defaults), so a lane inside
    the caller's ``np.errstate`` warns as the caller would, and an
    exception raised on it is raised again here.  No pool: a thread that
    outlives the call is unsafe across ``fork``, and importing
    ``concurrent.futures`` costs about 4.5 ms."""
    if n < 4 or n * width < _LANE_MIN:
        fn(slice(0, n))
        return
    mid = n // 2
    errstate = np.geterr()
    raised = []

    def upper():
        # numpy's error state is local to a thread, and this one ends here
        np.seterr(**errstate)
        try:
            fn(slice(mid, n))
        except BaseException as exc:  # raised again in the caller
            raised.append(exc)

    thread = threading.Thread(target=upper)
    thread.start()
    try:
        fn(slice(0, mid))
    finally:
        thread.join()
    if raised:
        raise raised[0]


def _mapped(map_, j, n):
    """map_ (``re_map`` or ``im_map``) at the Cayley points of the upper
    half's n/2 nodes on level j, a read-only array built on two lanes: each
    lane forms its slice of the Cayley point and writes its slice of the
    map into one preallocated array."""
    s, sn = _half_circle_sines(n)
    out = np.empty(n // 2)

    def lane(sl):
        out[sl] = map_(*_cayley_point(j, s[sl], sn[sl]))

    two_lanes(lane, n // 2)
    out.flags.writeable = False
    return out


class _Level:
    """The nodes of one upper half circle: the read-only Re T with its
    minimum and maximum, and the read-only Im T, built on its first read.
    Both are built by ``_mapped``, on two lanes from ``_LANE_MIN`` nodes on."""

    def __init__(self, dom, j, n):
        self._at = (dom, j, n)
        self.re = _mapped(dom.re_map, j, n)
        self.re_min, self.re_max = float(self.re.min()), float(self.re.max())

    @functools.cached_property
    def im(self):
        dom, j, n = self._at
        return _mapped(dom.im_map, j, n)


def _level(dom, j, n):
    key = (dom, j, n)
    level = _node_cache.get(key)
    if level is None:
        level = _Level(dom, j, n)
        if len(_node_cache) > 40:
            _node_cache.clear()
        _node_cache[key] = level
    return level


def circle_nodes(dom, j, n):
    """T on the upper half of the circle |u| = r = 1 - 2^-j: read-only real
    arrays (x, y) = (Re T, Im T) at the midpoint nodes theta_k, k < n/2.
    The lower half, theta_{n-1-k} = 2 pi - theta_k, is their reflection.
    ``dom.re_map`` and ``dom.im_map`` carry the Cayley point w to T; Im T
    is built on the first call that asks for a level's nodes here."""
    level = _level(dom, j, n)
    return level.re, level.im


def _log_mean(dom, lam, p, j, n):
    """log of the p-th power mean of |e^{lam z}| over the circle of level j.

    At w = x + iy on the upper half, log|e^{p lam w}| = a x - b y with
    (a, b) = p (Re lam, Im lam); at the mirrored node it is
    reflection * (a x + b y).  For real lam and reflection +1 the two
    agree, one half carries the whole mean and only Re T is read.  Its
    maximum is then a max(x) for a > 0 and a min(x) for a < 0: rounding a
    product by a fixed a is monotone, so this is max(a x) bit for bit.

    A lam whose products with the nodes overflow may give +inf; the
    caller's ``np.errstate`` keeps numpy from warning of it."""
    a, b = p * lam.real, p * lam.imag
    level = _level(dom, j, n)
    if dom.reflection > 0 and b == 0:
        Lmax = a * (level.re_max if a > 0 else level.re_min)
        halves = (a * level.re,)
    else:
        # Im T before a x: a level's first complex read then builds Im T
        # without a product array held beside its temporaries
        by, ax = b * level.im, a * level.re
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
    return Lmax + math.log(total / (halves[0].size * len(halves)))


def _trend_verdict(logs):
    """The trend rules on the last levels' means.  A log mean beyond the
    floats' range (an overflowing lam gives +inf) makes its increments
    inf or NaN, which no rule certifies; the caller's ``np.errstate``
    keeps such a mean's outcome without a warning."""
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


def hardy_membership(lam, dom: CanonicalDomain, p=2.0) -> MembershipResult:
    """Tri-state membership of e^{lam z} in H^p(dom), by quadrature."""
    lam = _check_query(lam, p)
    if lam == 0:
        return MembershipResult(MEMBER, lam, p, "constant function", [0.0], 1)
    scaled = (p * lam.real, p * lam.imag)
    if not all(map(math.isfinite, scaled)):
        return MembershipResult(
            INCONCLUSIVE, lam, p,
            f"p*lam overflows to {complex(*scaled)}: no level's mean is a finite float", [], 0,
        )
    logs = []
    status = cert = None
    with np.errstate(over="ignore", invalid="ignore"):
        for j, _, n in dom.plan.levels():
            logs.append(_log_mean(dom, lam, p, j, n))
            if len(logs) >= 4:
                tail = logs[-4:]
                if tail[-1] > _LOG_DIV and all(b > a for a, b in zip(tail, tail[1:])):
                    status, cert = NON_MEMBER, "means exceed the divergence threshold"
                    break
                deltas = [abs(b - a) for a, b in zip(logs[-4:-1], logs[-3:])]
                if all(d < _CAUCHY_TOL for d in deltas):
                    status, cert = MEMBER, "relative Cauchy differences below tolerance"
                    break
        if status is None and len(logs) >= 6:
            status, cert = _trend_verdict(logs)
        elif status is None:  # a user-built plan can end before six levels
            status, cert = INCONCLUSIVE, "the plan ended before any certificate"
    return MembershipResult(status, lam, p, cert, logs, len(logs))
