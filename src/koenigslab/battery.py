"""Shipped test battery: named defining functions with known ground truth.

Each entry returns a validated PiecewiseDefiningFunction plus the expected
analysis results (semigroup class, complement component count, whether the
domain equals the interior of its closure, completeness verdicts, and a
raster window/resolution at which the geometry oracle resolves it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
)
from .expr import parse_expression
from .hardy import eta_domain

NEG_INF = float("-inf")
POS_INF = float("inf")


@dataclass
class BatteryEntry:
    name: str
    psi: PiecewiseDefiningFunction
    kind: str  # hyperbolic | parabolic_positive_step | parabolic_zero_step
    int_closure_equals: str  # yes | no
    components: int
    weak_star: str  # yes | no
    window: tuple
    resolution: int
    p_complete: str = ""  # optional pinned p-completeness verdict (p=1)
    notes: str = ""


_GAP_LEVELS = 52


def gap_oscillation_evaluator(carrier: CantorSet):
    """Vectorized evaluator: sin(1/((b-y)(y-a))) on each complementary gap
    (a, b) of the carrier, and the carrier value 1 on the carrier itself.

    Points still unresolved after 52 subdivision steps are within
    3^-52 of the carrier and get the carrier value.
    """

    def ev(y):
        scalar = np.ndim(y) == 0
        y = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.full(y.shape, 1.0)
        clo = np.full(y.shape, carrier.lo)
        chi = np.full(y.shape, carrier.hi)
        active = (y >= carrier.lo) & (y <= carrier.hi)
        f = carrier.keep_fraction
        for _ in range(_GAP_LEVELS):
            if not active.any():
                break
            w = (chi - clo) * f
            glo = clo + w
            ghi = chi - w
            in_gap = active & (y > glo) & (y < ghi)
            if in_gap.any():
                denom = (ghi[in_gap] - y[in_gap]) * (y[in_gap] - glo[in_gap])
                out[in_gap] = np.sin(1.0 / denom)
                active = active & ~in_gap
            go_left = active & (y <= glo)
            chi = np.where(go_left, glo, chi)
            go_right = active & (y >= ghi)
            clo = np.where(go_right, ghi, clo)
        return float(out[0]) if scalar else out

    return ev


def _const_limits(v):
    return LimitData(v, v, exact=True)


def _flat(span, value=0.0, **kw):
    return FiniteAnalytic(
        span=span,
        evaluator=parse_expression(repr(float(value))),
        limits_left=_const_limits(value) if math.isfinite(span[0]) else None,
        limits_right=_const_limits(value) if math.isfinite(span[1]) else None,
        **kw,
    )


def strip_domain():
    """Half-strip: psi = 0 on a bounded interval."""
    w = math.pi / 2
    psi = PiecewiseDefiningFunction(-w, w, (_flat((-w, w)),), name="strip")
    psi.validate()
    return BatteryEntry(
        "strip", psi, "hyperbolic", "yes", 1, "yes", (-4.0, 4.0, -2.4, 2.4), 512
    )


def half_plane_domain():
    """psi = 0 on all of R: the right half-plane."""
    piece = FiniteAnalytic(
        span=(NEG_INF, POS_INF),
        evaluator=parse_expression("0"),
        tail_lower=TailEnvelope(),
        tail_upper=TailEnvelope(),
    )
    psi = PiecewiseDefiningFunction(NEG_INF, POS_INF, (piece,), name="half_plane")
    psi.validate()
    return BatteryEntry(
        "half_plane", psi, "parabolic_zero_step", "yes", 1, "yes",
        (-4.0, 4.0, -4.0, 4.0), 512,
        p_complete="yes",
    )


def upper_half_plane_domain():
    """psi = -inf on I = (0, inf): a horizontal half-plane."""
    psi = PiecewiseDefiningFunction(
        0.0, POS_INF, (MinusInfinity(span=(0.0, POS_INF)),), name="upper_half_plane"
    )
    psi.validate()
    return BatteryEntry(
        "upper_half_plane", psi, "parabolic_positive_step", "yes", 1, "yes",
        (-4.0, 4.0, -2.0, 6.0), 512,
    )


def quadrant_domain():
    """psi = 0 on I = (0, inf): an upper-right quadrant."""
    piece = FiniteAnalytic(
        span=(0.0, POS_INF),
        evaluator=parse_expression("0"),
        limits_left=_const_limits(0.0),
        tail_lower=TailEnvelope(),
        tail_upper=TailEnvelope(),
    )
    psi = PiecewiseDefiningFunction(0.0, POS_INF, (piece,), name="quadrant")
    psi.validate()
    return BatteryEntry(
        "quadrant", psi, "parabolic_positive_step", "yes", 1, "yes",
        (-4.0, 4.0, -2.0, 6.0), 512,
    )


def spike_domain():
    """Isolated exceedance over a flat background (a boundary slit)."""
    piece = PointSpike(span=(-1.0, 1.0), c0=0.0, spike_value=1.0, background=0.0)
    psi = PiecewiseDefiningFunction(-1.0, 1.0, (piece,), name="spike")
    psi.validate()
    return BatteryEntry(
        "spike", psi, "hyperbolic", "no", 1, "no", (-2.0, 3.0, -1.5, 1.5), 1024,
        p_complete="no",
    )


def double_spike_domain():
    """Two isolated exceedances; same obstruction, twice."""
    p1 = PointSpike(span=(-1.0, 0.0), c0=-0.5, spike_value=1.0, background=0.0)
    p2 = PointSpike(span=(0.0, 1.0), c0=0.5, spike_value=1.0, background=0.0)
    psi = PiecewiseDefiningFunction(-1.0, 1.0, (p1, p2), name="double_spike")
    psi.validate()
    return BatteryEntry(
        "double_spike", psi, "hyperbolic", "no", 1, "no",
        (-2.0, 3.0, -1.5, 1.5), 1024, p_complete="no",
    )


def comb_domain():
    """Cantor comb: value 1 on the ternary set, 0 off it."""
    carrier = CantorSet(0.0, 1.0)
    piece = CantorCarrierPiece(
        span=(-0.5, 1.5),
        carrier=carrier,
        on_value=1.0,
        off_evaluator=parse_expression("0"),
        off_limsup_at_carrier=0.0,
        off_liminf_at_carrier=0.0,
    )
    psi = PiecewiseDefiningFunction(-0.5, 1.5, (piece,), name="comb")
    psi.validate()
    return BatteryEntry(
        "comb", psi, "hyperbolic", "no", 1, "no", (-2.0, 3.0, -1.0, 2.0), 2048
    )


def oscillation_cantor_domain():
    """Value 1 on the ternary set; sin(1/((b-y)(y-a))) on each gap.

    The oscillation sweeps [-1, 1] arbitrarily close to every carrier
    point, so the regularized function equals psi and the domain equals
    the interior of its closure despite a Cantor set of discontinuities.
    """
    carrier = CantorSet(0.0, 1.0)
    ev = gap_oscillation_evaluator(carrier)
    piece = CantorCarrierPiece(
        span=(0.0, 1.0),
        carrier=carrier,
        on_value=1.0,
        off_evaluator=ev,
        off_limsup_at_carrier=1.0,
        off_liminf_at_carrier=-1.0,
    )
    psi = PiecewiseDefiningFunction(0.0, 1.0, (piece,), name="oscillation_cantor")
    psi.validate()
    return BatteryEntry(
        "oscillation_cantor", psi, "hyperbolic", "yes", 1, "yes",
        (-3.0, 3.0, -0.5, 1.5), 2048,
    )


def gap_domain():
    """psi = -inf on (0, 1) inside I = (-1, 2): one boundary strip gap."""
    pieces = (
        _flat((-1.0, 0.0)),
        MinusInfinity(span=(0.0, 1.0)),
        _flat((1.0, 2.0)),
    )
    psi = PiecewiseDefiningFunction(-1.0, 2.0, pieces, name="gap")
    psi.validate()
    return BatteryEntry(
        "gap", psi, "hyperbolic", "yes", 2, "yes", (-4.0, 4.0, -1.5, 2.5), 512
    )


def double_gap_domain():
    """psi = -inf on (0,1) and (2,3) inside I = (-1, 4)."""
    pieces = (
        _flat((-1.0, 0.0)),
        MinusInfinity(span=(0.0, 1.0)),
        _flat((1.0, 2.0)),
        MinusInfinity(span=(2.0, 3.0)),
        _flat((3.0, 4.0)),
    )
    psi = PiecewiseDefiningFunction(-1.0, 4.0, pieces, name="double_gap")
    psi.validate()
    return BatteryEntry(
        "double_gap", psi, "hyperbolic", "yes", 3, "no", (-4.0, 4.0, -1.5, 4.5), 1024
    )


def log_demo_domain():
    """psi = -(1/2) log(|y|+1): the alpha-map demonstration domain."""
    src = "-(1/2)*log(abs(y)+1)"
    # lower: psi >= 0.3 - 0.6 log(|y|+3) for |y| >= 1 (minimum at |y| = 9)
    # upper: psi <= -0.4 log(|y|+3) for |y| >= 4
    piece = FiniteAnalytic(
        span=(NEG_INF, POS_INF),
        evaluator=parse_expression(src),
        tail_lower=TailEnvelope(c=0.3, C=0.6, a=1.0, valid_from=1.0),
        tail_upper=TailEnvelope(C=0.4, a=1.0, valid_from=4.0),
    )
    psi = PiecewiseDefiningFunction(NEG_INF, POS_INF, (piece,), name="log_demo")
    psi.validate()
    return BatteryEntry(
        "log_demo", psi, "parabolic_zero_step", "yes", 1, "no",
        (-6.0, 6.0, -20.0, 20.0), 1024,
        notes="slowly unbounded below; no affine minorant",
    )


def log_minorant_domain():
    """psi = 1 - sqrt(log(|y|+3)): continuous, dominated by a logarithmic
    envelope with exponent < 1, hence p-complete for every p."""
    src = "1 - sqrt(log(abs(y)+3))"
    piece = FiniteAnalytic(
        span=(NEG_INF, POS_INF),
        evaluator=parse_expression(src),
        tail_lower=TailEnvelope(c=1.0, C=1.0, a=0.5),
        tail_upper=TailEnvelope(c=1.0, C=1.0, a=0.5),
    )
    psi = PiecewiseDefiningFunction(NEG_INF, POS_INF, (piece,), name="log_minorant")
    psi.validate()
    return BatteryEntry(
        "log_minorant", psi, "parabolic_zero_step", "yes", 1, "no",
        (-6.0, 6.0, -20.0, 20.0), 1024,
        p_complete="yes",
    )


# heights inverted together: the work is elementwise, so chunking changes no
# bit, and it keeps the temporaries of a raster's worth of heights small
# (a whole 65,536-height raster at once raised peak RSS by 13 MB)
_ETA_CHUNK = 4096
_ETA_NEWTON_STEPS = 8
# half-width of the checked root bracket, relative to max(1, |t*|)
_ETA_MARGIN = 1e-12
_DBL_MAX = np.finfo(float).max


def _eta_terms(t, a):
    """w = 3 + i t, L = log w and L^a, for real t: one boundary evaluation."""
    w = 1j * t + 3.0
    L = np.log(w)
    return w, L, np.exp(a * np.log(L))


def _eta_boundary(t, a):
    """The boundary curve eta(i t) = i t - (log(3 + i t))^a."""
    return 1j * t - _eta_terms(t, a)[2]


def _eta_root(y, a):
    """Bracket-checked Newton root t* of Im eta(i t) = y for a 1-D array,
    and the mask of heights whose root passes the check.

    Newton starts at t = y, and each height stops at its own step test,
    |step| <= 1e-3 m with m = 1e-12 max(1, |t|), so t* depends on y alone.
    The check is Im eta(i t) < y at t* - m and > y at t* + m; it trusts the
    evaluations to a few ulps, so it is not a proof.  It fails for NaN or
    infinite y, |y| >= 1e307, a run that misses its step test in 8 steps,
    and every a outside (0, 1].
    """
    t = y.copy()
    active = np.arange(y.size)
    with np.errstate(all="ignore"):
        for _ in range(_ETA_NEWTON_STEPS):
            ta = t[active]
            w, L, La = _eta_terms(ta, a)
            # d/dt Im (log w)^a = Im a (log w)^(a-1) i/w
            slope = 1.0 - np.imag(a * La / L * 1j / w)
            step = (ta - np.imag(La) - y[active]) / slope
            t[active] = ta - step
            active = active[np.abs(step) > 1e-3 * _ETA_MARGIN * np.maximum(1.0, np.abs(t[active]))]
            if not active.size:
                break
        m = _ETA_MARGIN * np.maximum(1.0, np.abs(t))
        checked = (np.imag(_eta_boundary(t - m, a)) < y) & (np.imag(_eta_boundary(t + m, a)) > y)
    checked &= (np.abs(y) < 1e307) & (0.0 < a <= 1.0)
    checked[active] = False
    return t, checked


def _eta_bisect(y, a):
    """80 steps of plain bisection on [y - 3 - 3|y|, y + 3 + 3|y|], clipped
    to the finite floats, evaluating Im eta(i mid) < y at every step.  A
    step that leaves a bracket's bits unchanged is a fixed point, and its
    height stops there."""
    with np.errstate(over="ignore"):
        lo = np.maximum(y - 3.0 - 3.0 * np.abs(y), -_DBL_MAX)
        hi = np.minimum(y + 3.0 + 3.0 * np.abs(y), _DBL_MAX)
    live = np.ones(y.shape, dtype=bool)
    for _ in range(80):
        mid = 0.5 * lo + 0.5 * hi
        too_low = np.imag(_eta_boundary(mid, a)) < y
        live &= np.where(too_low, lo, hi).view(np.int64) != mid.view(np.int64)
        if not live.any():
            break
        lo = np.where(live & too_low, mid, lo)
        hi = np.where(live & ~too_low, mid, hi)
    return np.real(_eta_boundary(0.5 * lo + 0.5 * hi, a))


def _eta_defining_function(a=1.0):
    """Numeric defining function of the image of the right half-plane
    under w - (log(w+3))^a, via monotone inversion of the boundary curve.

    psi(y) = Re eta(i t*) at the root t* of Im eta(i t) = y that
    ``_eta_root`` finds and bracket-checks.  For 0 < a <= 1 the slope of
    Im eta(i t) lies in [1 - a/3, 1 + a/3] (it is 1 - Im a (log w)^(a-1) i/w
    with w = 3 + it, |log w| >= log 3 > 1 and |w| >= 3), so the root is
    unique and Newton from t = y needs about 7 boundary evaluations per
    height, check and value included.  Contract: psi is within 8 ulps of
    its value at a 200-bit root, and a scalar, an array element and a
    permuted array give the same bits.

    psi(+-inf) = -inf, the limit of psi at both ends: psi(y) = -Re L^a with
    L = log(3 + i t*), |t*| >= |y| and |arg L| < atan((pi/2)/log 3) < 1, so
    -psi >= cos(1) (log|3 + i t*|)^a; for a = 1 this is the bound
    psi <= (log 2)/2 - log(|y| + 3) of ``eta_domain_psi``.

    Any other height that fails the check gets ``_eta_bisect``, the plain
    bisection, bit for bit.  Its bracket is clipped to the finite floats and
    its midpoint taken as lo/2 + hi/2: above |y| ~ 4.5e307 the unclipped
    bracket overflows, and above ~3.6e307 so can lo + hi.  Halving is exact
    on the brackets that arise, so lo/2 + hi/2 has the bits of (lo + hi)/2
    wherever that sum is finite.
    """

    def psi_of_y(y):
        scalar = np.ndim(y) == 0
        y = np.atleast_1d(np.asarray(y, dtype=float))
        flat = y.ravel()
        out = np.empty(flat.shape)
        for s in range(0, flat.size, _ETA_CHUNK):
            chunk = flat[s : s + _ETA_CHUNK]
            t, checked = _eta_root(chunk, a)
            with np.errstate(all="ignore"):
                out[s : s + t.size] = np.real(_eta_boundary(t, a))
            out[s + np.flatnonzero(np.isinf(chunk))] = NEG_INF
            failed = s + np.flatnonzero(~checked & ~np.isinf(chunk))
            out[failed] = _eta_bisect(flat[failed], a)
        return float(out[0]) if scalar else out.reshape(y.shape)

    return psi_of_y


def eta_domain_psi(a=1.0, name="eta1"):
    ev = _eta_defining_function(a)
    # |t| >= |y| along the boundary curve and 9 + y^2 >= (|y|+3)^2 / 2,
    # so psi <= -(1/2) log(9+y^2) <= (log 2)/2 - log(|y|+3); and |t| <= 1.5|y|
    # away from 0 gives psi >= -2 log(|y|+3).
    piece = FiniteAnalytic(
        span=(NEG_INF, POS_INF),
        evaluator=ev,
        tail_lower=TailEnvelope(C=2.0, a=1.0, valid_from=1.0),
        tail_upper=TailEnvelope(c=0.35, C=1.0, a=1.0),
    )
    psi = PiecewiseDefiningFunction(
        NEG_INF, POS_INF, (piece,), name=name, canonical=eta_domain(a)
    )
    psi.validate()
    return psi


def eta1_domain():
    psi = eta_domain_psi(1.0, "eta1")
    return BatteryEntry(
        "eta1", psi, "parabolic_zero_step", "yes", 1, "no",
        (-6.0, 6.0, -30.0, 30.0), 1024,
        p_complete="no",
        notes="frequencies for p=1 form the bounded interval (-1, 0]",
    )


def du_oscillation_domain():
    """Oscillation with envelope hitting -inf but limsup 0 at height 0:
    an unbounded discontinuity inside a bounded-interval domain."""
    src = "-(1-cos(1/y))/abs(y)"
    left = OscillatorySample(
        span=(-1.0, 0.0),
        evaluator=parse_expression(src),
        limits_left=LimitData(math.cos(1.0) - 1.0, math.cos(1.0) - 1.0, exact=False),
        limits_right=LimitData(NEG_INF, 0.0, exact=True),
    )
    right = _flat((0.0, 1.0))
    psi = PiecewiseDefiningFunction(
        -1.0, 1.0, (left, right), name="du_oscillation", point_values={0.0: 0.0}
    )
    psi.validate()
    return BatteryEntry(
        "du_oscillation", psi, "hyperbolic", "yes", 2, "yes",
        (-10.0, 4.0, -1.5, 1.5), 1024,
        notes="liminf -inf exactly at height 0; limsup there is 0",
    )


def exceptional_arc_domain():
    """I = (0, inf); psi = -inf above height 2, oscillating below it with
    liminf -inf and limsup psi(2) = 0 from the left."""
    src = "-(1-cos(1/(2-y)))/abs(2-y)"
    osc = OscillatorySample(
        span=(0.0, 2.0),
        evaluator=parse_expression(src),
        limits_left=LimitData(
            -(1 - math.cos(0.5)) / 2.0, -(1 - math.cos(0.5)) / 2.0, exact=False
        ),
        limits_right=LimitData(NEG_INF, 0.0, exact=True),
    )
    top = MinusInfinity(span=(2.0, POS_INF))
    # the junction value equals the left limsup, as Int(closure) = domain needs
    psi = PiecewiseDefiningFunction(
        0.0, POS_INF, (osc, top), name="exceptional_arc", point_values={2.0: 0.0}
    )
    psi.validate()
    return BatteryEntry(
        "exceptional_arc", psi, "parabolic_positive_step", "yes", 1, "yes",
        (-10.0, 4.0, -1.0, 5.0), 1024,
    )


def pos_step_du_domain():
    """I = (0, inf) with an unbounded discontinuity at an interior height:
    connectedness of the complement fails, so completeness fails."""
    src = "-(1-cos(1/(y-1)))/abs(y-1)"
    below = OscillatorySample(
        span=(0.0, 1.0),
        evaluator=parse_expression(src),
        limits_left=LimitData(
            -(1 - math.cos(1.0)), -(1 - math.cos(1.0)), exact=False
        ),
        limits_right=LimitData(NEG_INF, 0.0, exact=True),
    )
    above = OscillatorySample(
        span=(1.0, POS_INF),
        evaluator=parse_expression(src),
        limits_left=LimitData(NEG_INF, 0.0, exact=True),
        limits_right=LimitData(0.0, 0.0, exact=False),
    )
    psi = PiecewiseDefiningFunction(
        0.0, POS_INF, (below, above), name="pos_step_du", point_values={1.0: 0.0}
    )
    psi.validate()
    return BatteryEntry(
        "pos_step_du", psi, "parabolic_positive_step", "yes", 2, "no",
        (-10.0, 4.0, -0.5, 4.0), 1024,
    )


def vee_domain():
    """psi = |y| on R: contained in tilted half-planes, zero-step."""
    piece = FiniteAnalytic(
        span=(NEG_INF, POS_INF),
        evaluator=parse_expression("abs(y)"),
        tail_lower=TailEnvelope(),
        tail_upper=None,
    )
    psi = PiecewiseDefiningFunction(NEG_INF, POS_INF, (piece,), name="vee")
    psi.validate()
    return BatteryEntry(
        "vee", psi, "parabolic_zero_step", "yes", 1, "yes",
        (-4.0, 8.0, -6.0, 6.0), 512,
    )


BATTERY_BUILDERS = (
    strip_domain,
    half_plane_domain,
    upper_half_plane_domain,
    quadrant_domain,
    spike_domain,
    double_spike_domain,
    comb_domain,
    oscillation_cantor_domain,
    gap_domain,
    double_gap_domain,
    log_demo_domain,
    log_minorant_domain,
    eta1_domain,
    du_oscillation_domain,
    exceptional_arc_domain,
    pos_step_du_domain,
    vee_domain,
)


def full_battery():
    return [b() for b in BATTERY_BUILDERS]


def battery_entry(name):
    for b in BATTERY_BUILDERS:
        e = b()
        if e.name == name:
            return e
    raise KeyError(name)
