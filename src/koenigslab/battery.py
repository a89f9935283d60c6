"""Shipped test battery: named defining functions with known ground truth.

Each entry returns a PiecewiseDefiningFunction, which validates itself
when built, plus the expected analysis results (semigroup class,
complement component count, whether the domain equals the interior of its
closure, completeness verdicts, and a raster window/resolution at which
the geometry oracle resolves it).
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
    PiecewiseDefiningFunction,
    TailEnvelope,
    constant_piece,
)
from .expr import Evaluator, parse_expression
from .hardy import eta_domain, log_power

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
# ``row_range`` widens 1/((ghi - y)(y - glo)) by this many units of 2^-52,
# relative, and the sines of its ends by this many ulps
_GAP_ROW_ULPS = 8


def _gap_descent(carrier: CantorSet, y):
    """The float gap (glo, ghi) of the carrier that each height of the 1-D
    array y falls in, and NaN for a height in no gap: on the carrier, off
    its hull, NaN, or still undecided after _GAP_LEVELS levels, that is
    within f^52 (hi - lo) of the carrier for keep fraction f.

    The descent keeps only the heights still undecided: each level splits
    their cells [clo, chi] at glo = clo + w and ghi = chi - w, w = (chi -
    clo) f, and drops the heights that fall in the gap (glo, ghi).  A
    height meets the same float operations whatever else is in the array,
    so its gap depends on it alone.
    """
    gap_lo = np.full(y.shape, np.nan)
    gap_hi = np.full(y.shape, np.nan)
    live = np.flatnonzero((y >= carrier.lo) & (y <= carrier.hi))
    yl = y[live]
    clo = np.full(yl.shape, carrier.lo)
    chi = np.full(yl.shape, carrier.hi)
    f = carrier.keep_fraction
    for _ in range(_GAP_LEVELS):
        if not live.size:
            break
        w = chi - clo
        w *= f
        glo = clo + w
        ghi = np.subtract(chi, w, out=w)
        in_gap = (yl > glo) & (yl < ghi)
        gap_lo[live[in_gap]] = glo[in_gap]
        gap_hi[live[in_gap]] = ghi[in_gap]
        left = yl <= glo
        # in place, and freed before the compaction, so that no level
        # holds more arrays than the descent over the whole array did
        np.copyto(chi, glo, where=left)
        np.copyto(clo, ghi, where=~left)
        del glo, ghi, w
        keep = ~in_gap
        live = live[keep]
        yl = yl[keep]
        clo = clo[keep]
        chi = chi[keep]
    return gap_lo, gap_hi


def _sin_sup(u0, u1):
    """sup of sin on each [u0, u1]: 1 where the range may hold a peak
    pi/2 + 2k pi, else the larger end value, widened by _GAP_ROW_ULPS ulps
    for the rounding of sin here and in the evaluator.

    The peaks in range are the integers k in [(u0 - pi/2)/(2 pi),
    (u1 - pi/2)/(2 pi)].  Each quotient is three roundings and the float
    pi away from its exact value, a relative error below 2^-51, so the test
    widens them by 2^-50 (1 + |quotient|) and errs only towards 1.  Off the
    peaks sin has no interior maximum, so its sup lies at an end.
    """
    with np.errstate(invalid="ignore"):
        k0 = (u0 - np.pi / 2) / (2 * np.pi)
        k1 = (u1 - np.pi / 2) / (2 * np.pi)
        peak = np.floor(k1 + 2.0**-50 * (1 + np.abs(k1))) >= np.ceil(
            k0 - 2.0**-50 * (1 + np.abs(k0))
        )
        ends = np.maximum(np.sin(u0), np.sin(u1))
    ends += _GAP_ROW_ULPS * np.spacing(np.abs(ends))
    return np.where(peak, 1.0, np.minimum(ends, 1.0))


@dataclass(frozen=True)
class _GapOscillation(Evaluator):
    """Vectorized evaluator: sin(1/((b-y)(y-a))) on each complementary gap
    (a, b) of the carrier, and the carrier value 1 on the carrier itself
    (and off its hull).  ``values`` and ``row_range`` read the gaps from
    the one descent, ``_gap_descent``.
    """

    carrier: CantorSet

    def values(self, ys):
        glo, ghi = _gap_descent(self.carrier, ys)
        out = np.full(ys.shape, 1.0)
        g = ~np.isnan(glo)
        yg = ys[g]
        out[g] = np.sin(1.0 / ((ghi[g] - yg) * (yg - glo[g])))
        return out

    def row_range(self, lo, hi):
        """(sup, inf) of the evaluator on each row [lo, hi] of two 1-D
        arrays, from one descent per distinct edge: n + 1 heights for n
        adjacent rows, where 64 sampled heights per row took 64 n.

        A row whose two edges fall in the same float gap (glo, ghi) lies in
        it.  Each level sends a height left (y <= glo), into the gap or
        right (y >= ghi), three intervals of y, so two edges that take the
        same path take every height between them along it.  Edges on
        different paths end in different float gaps: where the paths split,
        the left child's gaps lie at or below that level's glo, the right
        child's at or above its ghi, and glo <= ghi, as 2w <= chi - clo
        holds in floats whenever 2f < 1 - 2^-53 (every float f in (0, 1/2)
        but the last, which the rule excludes).

        On the gap u(y) = 1/((ghi - y)(y - glo)) is convex with its
        minimum at the midpoint c, so over the row u lies between u at the
        clamp of c into the row and the larger of u at the two edges.
        Rounded to nearest, c = glo/2 + ghi/2 is the float nearest the
        exact midpoint, and so the float of the row where u is least.  The
        evaluator's u is four roundings from the exact u, a relative error
        e of about 2^-51, and so are these three values; so every computed
        u of the row lies within the factors (1 -+ e)/(1 +- e), about
        1 -+ 2^-50, of them.  The range is widened by the factors
        1 -+ _GAP_ROW_ULPS 2^-52 = 1 -+ 2^-49, twice that (an infinite u
        stays infinite).  The sup of sin over the widened range comes from
        ``_sin_sup``, and the inf is minus the sup over its negation.

        Any other row meets a cell boundary, and near one the oscillation
        sweeps [-1, 1]; it gets (1, -1), valid because |sin| <= 1 and the
        carrier value is 1.  Like eta's ``row_range`` this trusts sin to a
        few ulps; it is not an interval enclosure.
        """
        n = lo.size
        ys, at = np.unique(np.concatenate((lo, hi)), return_inverse=True)
        glo, ghi = _gap_descent(self.carrier, ys)
        i, j = at[:n], at[n:]
        same = (glo[i] == glo[j]) & (ghi[i] == ghi[j])
        same &= 2.0 * self.carrier.keep_fraction < 1.0 - 2.0**-53
        sup, inf = np.full(n, 1.0), np.full(n, -1.0)
        a, b, l, h = glo[i][same], ghi[i][same], lo[same], hi[same]
        c = np.minimum(np.maximum(0.5 * a + 0.5 * b, l), h)
        with np.errstate(divide="ignore", over="ignore"):
            u_min, u_l, u_h = (1.0 / ((b - y) * (y - a)) for y in (c, l, h))
        u_max = np.maximum(u_l, u_h)
        widen = _GAP_ROW_ULPS * 2.0**-52
        u0, u1 = u_min * (1.0 - widen), u_max * (1.0 + widen)
        sup[same], inf[same] = _sin_sup(u0, u1), -_sin_sup(-u1, -u0)
        return sup, inf


def _const_limits(v):
    return LimitData(v, v, exact=True)


def strip_domain():
    """Half-strip: psi = 0 on a bounded interval."""
    w = math.pi / 2
    psi = PiecewiseDefiningFunction(-w, w, (constant_piece((-w, w), 0.0),), name="strip")
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
    return BatteryEntry(
        "quadrant", psi, "parabolic_positive_step", "yes", 1, "yes",
        (-4.0, 4.0, -2.0, 6.0), 512,
    )


def spike_domain():
    """Isolated exceedance over a flat background (a boundary slit)."""
    pieces = (constant_piece((-1.0, 0.0), 0.0), constant_piece((0.0, 1.0), 0.0))
    psi = PiecewiseDefiningFunction(
        -1.0, 1.0, pieces, name="spike", point_values={0.0: 1.0}
    )
    return BatteryEntry(
        "spike", psi, "hyperbolic", "no", 1, "no", (-2.0, 3.0, -1.5, 1.5), 1024,
        p_complete="no",
    )


def double_spike_domain():
    """Two isolated exceedances; same obstruction, twice."""
    pieces = tuple(constant_piece((a, a + 0.5), 0.0) for a in (-1.0, -0.5, 0.0, 0.5))
    psi = PiecewiseDefiningFunction(
        -1.0, 1.0, pieces, name="double_spike", point_values={-0.5: 1.0, 0.5: 1.0}
    )
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
    ev = _GapOscillation(carrier)
    piece = CantorCarrierPiece(
        span=(0.0, 1.0),
        carrier=carrier,
        on_value=1.0,
        off_evaluator=ev,
        off_limsup_at_carrier=1.0,
        off_liminf_at_carrier=-1.0,
    )
    psi = PiecewiseDefiningFunction(0.0, 1.0, (piece,), name="oscillation_cantor")
    return BatteryEntry(
        "oscillation_cantor", psi, "hyperbolic", "yes", 1, "yes",
        (-3.0, 3.0, -0.5, 1.5), 2048,
    )


def gap_domain():
    """psi = -inf on (0, 1) inside I = (-1, 2): one boundary strip gap."""
    pieces = (
        constant_piece((-1.0, 0.0), 0.0),
        MinusInfinity(span=(0.0, 1.0)),
        constant_piece((1.0, 2.0), 0.0),
    )
    psi = PiecewiseDefiningFunction(-1.0, 2.0, pieces, name="gap")
    return BatteryEntry(
        "gap", psi, "hyperbolic", "yes", 2, "yes", (-4.0, 4.0, -1.5, 2.5), 512
    )


def double_gap_domain():
    """psi = -inf on (0,1) and (2,3) inside I = (-1, 4)."""
    pieces = (
        constant_piece((-1.0, 0.0), 0.0),
        MinusInfinity(span=(0.0, 1.0)),
        constant_piece((1.0, 2.0), 0.0),
        MinusInfinity(span=(2.0, 3.0)),
        constant_piece((3.0, 4.0), 0.0),
    )
    psi = PiecewiseDefiningFunction(-1.0, 4.0, pieces, name="double_gap")
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
    return BatteryEntry(
        "log_minorant", psi, "parabolic_zero_step", "yes", 1, "no",
        (-6.0, 6.0, -20.0, 20.0), 1024,
        p_complete="yes",
    )


_ETA_NEWTON_STEPS = 8
# half-width of the checked root bracket, relative to max(1, |t*|)
_ETA_MARGIN = 1e-12
# ulps by which ``row_range`` widens its two rounded values outward
_ETA_ROW_ULPS = 16


def _eta_im(t, a):
    """Im eta(i t) = t - Im L^a, with L = log(3 + i t) from
    ``hardy.log_power``, and its t-derivative: one boundary evaluation.

    dL/dt = i/(3 + i t) = (t + 3i)/(9 + t^2), so the slope is
    1 - a Im(L^a/L (t + 3i))/(9 + t^2), with L^a/L = L^a conj(L)/|L|^2;
    for a = 1 it is 1 - 3/(9 + t^2), and Im L = atan2(t, 3) needs no log.
    Where 9 + t^2 overflows the slope reads 1, off by less than 1e-154.
    """
    if a == 1.0:
        return t - np.arctan2(t, 3.0), 1.0 - 3.0 / (9.0 + t * t)
    l, phi, p, q = log_power(3.0, t, a)
    v = 1.0 / (9.0 + t * t)
    cross = (q * l - p * phi) * (t * v) + 3.0 * (p * l + q * phi) * v
    return t - q, 1.0 - a * cross / (l * l + phi * phi)


def _eta_re(t, a):
    """Re eta(i t) = -Re L^a: one boundary evaluation."""
    return -log_power(3.0, t, a, "re")[2]


def _eta_root(y, a):
    """Bracket-checked Newton root t* of Im eta(i t) = y for a 1-D array,
    and the mask of heights whose root passes the check.

    Newton starts at t = y, and each height stops at its own step test,
    |step| <= 1e-3 m with m = 1e-12 max(1, |t|), so t* depends on y alone.
    Newton steps and the check evaluate ``_eta_im`` in real arithmetic.
    The check is Im eta(i t) < y at t* - m and > y at t* + m; it trusts the
    evaluations to a few ulps, so it is not a proof.

    An end of the bracket that overflows passes its half of the check.
    If t* + m rounds to +inf, its exact value s lies in [2^1024 - 2^970,
    2^1025), and there Im eta(i s) >= s - |L|^a >= s - (log|3 + i s| +
    pi/2) > s - 713, as |L|^a <= |L| for |L| >= log 3 > 1 and a <= 1.
    That exceeds every float y.  An end at -inf is the mirror image, as
    Im eta(i t) is odd in t.  So the check holds up to +-DBL_MAX.  It
    fails for NaN or infinite y, whose t* is NaN, and for a run that
    misses its step test in 8 steps.
    """
    t = y.copy()
    # the heights still stepping, with their t and y
    active = np.arange(y.size)
    ta, ya = y, y
    with np.errstate(all="ignore"):
        for _ in range(_ETA_NEWTON_STEPS):
            im, slope = _eta_im(ta, a)
            step = (im - ya) / slope
            ta = ta - step
            t[active] = ta
            go = np.abs(step) > 1e-3 * _ETA_MARGIN * np.maximum(1.0, np.abs(ta))
            active, ta, ya = active[go], ta[go], ya[go]
            if not active.size:
                break
        m = _ETA_MARGIN * np.maximum(1.0, np.abs(t))
        below, above = t - m, t + m
        checked = (below == NEG_INF) | (_eta_im(below, a)[0] < y)
        checked &= (above == POS_INF) | (_eta_im(above, a)[0] > y)
    checked[active] = False
    return t, checked


@dataclass(frozen=True)
class _EtaDefiningFunction(Evaluator):
    """Numeric defining function of the image of the right half-plane
    under w - (log(w+3))^a, via monotone inversion of the boundary curve.

    psi(y) = Re eta(i t*) at the root t* of Im eta(i t) = y that
    ``_eta_root`` finds and bracket-checks.  For 0 < a <= 1 the slope of
    Im eta(i t) lies in [1 - a/3, 1 + a/3] (it is 1 - Im a (log w)^(a-1) i/w
    with w = 3 + it, |log w| >= log 3 > 1 and |w| >= 3), so the root is
    unique and Newton from t = y needs about 7 boundary evaluations per
    height, check and value included.  Every one of them is real
    arithmetic (``_eta_im``, ``_eta_re``): for a = 1 a Newton step or a
    check costs one atan2, and the value one log of a hypot.  Contract: psi
    is within 8 ulps of its value at a 200-bit root at every finite height,
    and a scalar, an array element and a permuted array give the same bits.
    An exponent outside (0, 1] is rejected when the evaluator is built.

    psi(+-inf) = -inf, the limit of psi at both ends: psi(y) = -Re L^a with
    L = log(3 + i t*), |t*| >= |y| and |arg L| < atan((pi/2)/log 3) < 1, so
    -psi >= cos(1) (log|3 + i t*|)^a; ``eta_domain_psi`` proves the
    sharper psi <= 0.35 - (log(|y| + 3))^a that it declares.  Checked, a
    call raises there, as at any value that is not finite.  Any other
    height whose root fails the check gets NaN, and a checked call raises
    there too.

    ``row_range`` bounds psi on rows of heights from the roots at the row
    edges alone.
    """

    a: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.a <= 1.0:
            raise ValueError(f"eta: the exponent a must lie in (0, 1], got {self.a!r}")

    def values(self, ys):
        t, checked = _eta_root(ys, self.a)
        out = _eta_re(t, self.a)
        out[~checked] = np.nan
        out[np.isinf(ys)] = NEG_INF
        return out

    def row_range(self, lo, hi):
        """(sup, inf) of psi on each row [lo, hi] of two 1-D arrays, from
        one ``_eta_root`` per distinct edge: n + 1 roots for n adjacent
        rows.  A row with an edge whose root fails the check (a NaN or
        infinite edge, or a Newton run that does not converge) gets NaN,
        and the caller samples it instead.  So does the inf of a row whose
        far end t + m or t - m overflows, as at an edge of +-DBL_MAX: psi
        there is -inf, whose spacing is NaN.

        Each edge root t is widened by its bracket margin m, so the roots
        of the row's heights lie in T = [t(lo) - m(lo), t(hi) + m(hi)]: the
        root t*(y) increases in y, since the slope of Im eta(i t) is at
        least 1 - a/3 > 0.  On T, psi = Re eta(i t) = -Re L^a with
        L = log(3 + i t) decreases strictly in |t| for every a in (0, 1].
        For t > 0, d/dt Re L^a = Re(a L^(a-1) i/(3 + i t)) =
        -a Im(L^(a-1)/(3 + i t)); arg 1/(3 + i t) lies in (-pi/2, 0) and
        arg L^(a-1) = (a - 1) arg L in (-1, 0], as 0 < arg L < 1.  So the
        argument of L^(a-1)/(3 + i t) lies in (-1 - pi/2, 0), its imaginary
        part is negative and the derivative positive.  For t < 0, L(-t) =
        conj L(t) makes Re L^a even in t.  Hence the row sup is ``_eta_re``
        at the point of T nearest 0, and the row inf at the end of T
        farther from 0.  Both are then widened by _ETA_ROW_ULPS ulps, as
        the values of psi are rounded (8 ulps of the 200-bit value, its
        contract) and so are these two.  Like the check, this trusts the
        evaluations to a few ulps; it is not an interval enclosure.
        """
        n = lo.size
        ys, at = np.unique(np.concatenate((lo, hi)), return_inverse=True)
        t, checked = _eta_root(ys, self.a)
        with np.errstate(all="ignore"):
            m = _ETA_MARGIN * np.maximum(1.0, np.abs(t))
            t_lo, t_hi = (t - m)[at[:n]], (t + m)[at[n:]]
            near = np.minimum(np.maximum(t_lo, 0.0), t_hi)
            far = np.where(-t_lo > t_hi, t_lo, t_hi)
            vals = _eta_re(np.concatenate((near, far)), self.a)
            widen = _ETA_ROW_ULPS * np.spacing(np.abs(vals))
            sup, inf = vals[:n] + widen[:n], vals[n:] - widen[n:]
        failed = ~(checked[at[:n]] & checked[at[n:]])
        sup[failed] = inf[failed] = np.nan
        return sup, inf


def eta_domain_psi(a=1.0, name="eta1"):
    ev = _EtaDefiningFunction(a)
    # Envelopes for 0 < a <= 1.  psi = -Re L^a with L = log(3 + it) =
    # l + i phi, l = log|3 + it| >= log 3 > 1, |phi| < pi/2 and
    # theta = arg L, |theta| < 1.  Im L^a has the sign of t and slope at
    # most a/3, so y = t - Im L^a gives (2/3)|t| <= |y| <= |t|.
    # Upper: l >= (1/2) log(9 + y^2) >= log(|y| + 3) - k, k = (log 2)/2,
    # as 9 + y^2 >= (|y| + 3)^2 / 2.  log cos is concave, so
    # cos(a theta) >= cos(theta)^a and Re L^a = l^a cos(a theta) /
    # cos(theta)^a >= l^a.  x -> x^a has slope <= a <= 1 beyond l > 1, so
    # (log(|y| + 3))^a - l^a <= k: psi <= 0.35 - (log(|y| + 3))^a.
    # Lower: -psi <= |L|^a <= |L| <= l + |phi| <= log 1.5 + log(|y| + 3)
    # + atan(|y|/2) <= 2 log(|y| + 3) for |y| >= 1.
    piece = FiniteAnalytic(
        span=(NEG_INF, POS_INF),
        evaluator=ev,
        tail_lower=TailEnvelope(C=2.0, a=1.0, valid_from=1.0),
        tail_upper=TailEnvelope(c=0.35, C=1.0, a=a),
    )
    psi = PiecewiseDefiningFunction(
        NEG_INF, POS_INF, (piece,), name=name, canonical=eta_domain(a)
    )
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
    left = FiniteAnalytic(
        span=(-1.0, 0.0),
        evaluator=parse_expression(src),
        limits_left=LimitData(math.cos(1.0) - 1.0, math.cos(1.0) - 1.0, exact=False),
        limits_right=LimitData(NEG_INF, 0.0, exact=True),
    )
    right = constant_piece((0.0, 1.0), 0.0)
    psi = PiecewiseDefiningFunction(
        -1.0, 1.0, (left, right), name="du_oscillation", point_values={0.0: 0.0}
    )
    return BatteryEntry(
        "du_oscillation", psi, "hyperbolic", "yes", 2, "yes",
        (-10.0, 4.0, -1.5, 1.5), 1024,
        notes="liminf -inf exactly at height 0; limsup there is 0",
    )


def exceptional_arc_domain():
    """I = (0, inf); psi = -inf above height 2, oscillating below it with
    liminf -inf and limsup psi(2) = 0 from the left."""
    src = "-(1-cos(1/(2-y)))/abs(2-y)"
    osc = FiniteAnalytic(
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
    return BatteryEntry(
        "exceptional_arc", psi, "parabolic_positive_step", "yes", 1, "yes",
        (-10.0, 4.0, -1.0, 5.0), 1024,
    )


def pos_step_du_domain():
    """I = (0, inf) with an unbounded discontinuity at an interior height:
    connectedness of the complement fails, so completeness fails."""
    src = "-(1-cos(1/(y-1)))/abs(y-1)"
    below = FiniteAnalytic(
        span=(0.0, 1.0),
        evaluator=parse_expression(src),
        limits_left=LimitData(
            -(1 - math.cos(1.0)), -(1 - math.cos(1.0)), exact=False
        ),
        limits_right=LimitData(NEG_INF, 0.0, exact=True),
    )
    above = FiniteAnalytic(
        span=(1.0, POS_INF),
        evaluator=parse_expression(src),
        limits_left=LimitData(NEG_INF, 0.0, exact=True),
        limits_right=LimitData(0.0, 0.0, exact=False),
    )
    psi = PiecewiseDefiningFunction(
        0.0, POS_INF, (below, above), name="pos_step_du", point_values={1.0: 0.0}
    )
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
    """The entry called ``name``, built alone: each builder is the entry's
    name followed by ``_domain``."""
    for b in BATTERY_BUILDERS:
        if b.__name__ == f"{name}_domain":
            return b()
    known = ", ".join(b.__name__.removesuffix("_domain") for b in BATTERY_BUILDERS)
    raise ValueError(f"unknown battery entry {name!r}; known entries: {known}")
