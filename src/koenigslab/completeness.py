"""Completeness verdicts for the span of admissible exponentials.

Two independent routes produce the weak-star verdict:

* ``decide_weak_star`` evaluates the defining-function criteria.  In
  every class of non-elliptic semigroup the span is weak-star dense
  exactly when psi equals its regularization psi~ and one more condition
  holds.  For a bounded interval I (hyperbolic) the set E where the
  liminf of psi is -inf is empty or a single closed interval; for a
  half-line I (positive step) E lies in the closure of the -inf gap that
  reaches the infinite end of I; for I = R (zero step) the domain lies in
  a half-plane.

* ``decide_topological`` asks the raster oracle for interior-of-closure
  equality and the complement component count and applies the same
  dispatch at the level of plane topology.

On every domain where both produce definite answers they must agree;
disagreement means a bug in exactly one of them.  ``p_completeness_report``
adds the p < infinity routes: inheritance from the weak-star verdict,
the isolated-exceedance obstruction, the bounded-frequency-interval
obstruction, and the logarithmic-envelope domination sufficient condition.

Every route answers with one ``Verdict``; ``decide`` alone turns verdicts
into JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .classify import (  # noqa: F401 (HYPERBOLIC et al. re-exported)
    HYPERBOLIC,
    PARABOLIC_POSITIVE,
    PARABOLIC_ZERO,
    affine_minorant,
    classify,
    line_floor,
)
from .domain import PiecewiseDefiningFunction
from .features import analyze, detect_contact_spikes, unbounded_gap
from .hardy import check_p, frequency_floor
from .raster import (
    complement_components,
    int_closure_equals_domain,
    rasterize,
)
from .tri import TriState


@dataclass(frozen=True)
class Verdict:
    """A route's answer, the route that gave it and the witnesses it rests on."""

    state: TriState
    route: str
    witnesses: tuple = ()


# route prefix of each class, and its YES route
_PREFIX = {
    HYPERBOLIC: "bounded-interval",
    PARABOLIC_POSITIVE: "half-line interval",
    PARABOLIC_ZERO: "whole-line interval",
}
_COMPLETE = {
    HYPERBOLIC: "psi regularized and a single -inf gap interval",
    PARABOLIC_POSITIVE: "psi regularized, -inf confined to the unbounded gap",
    PARABOLIC_ZERO: "contained in a half-plane and psi regularized",
}


def _misplaced_minus_inf(psi, kind, E):
    """The components of E that break the shape rule of a bounded or
    half-line I, with the route text of the breach."""
    if kind == HYPERBOLIC:
        return (E if len(E) > 1 else []), "the liminf -inf set is not a single interval"
    gap = unbounded_gap(psi)
    bad = [(lo, hi) for lo, hi in E if gap is None or not gap[0] <= lo <= hi <= gap[1]]
    return bad, "liminf -inf outside the unbounded gap"


def decide_weak_star(psi: PiecewiseDefiningFunction) -> Verdict:
    """The defining-function criteria as one ladder for the three classes:

    1. I = R only: no containing half-plane gives NO, an undecided one
       UNKNOWN;
    2. psi != psi~ gives NO;
    3. bounded or half-line I only: an uncertified -inf set E gives
       UNKNOWN, and E of the wrong shape gives NO;
    4. an inconclusive psi = psi~ test gives UNKNOWN;
    5. otherwise YES.
    """
    kind = classify(psi).kind

    def verdict(state, text, witnesses=()):
        return Verdict(state, f"{_PREFIX[kind]}: {text}", tuple(witnesses))

    if kind == PARABOLIC_ZERO:
        am = affine_minorant(psi)
        if am.status is TriState.NO:
            return verdict(
                TriState.NO,
                "no containing half-plane, so bounded exponentials reduce to constants",
                [am.reason],
            )
        if am.status is TriState.UNKNOWN:
            return verdict(TriState.UNKNOWN, "half-plane containment undecided")
    eq, eq_wit = psi.equals_regularized()
    if eq is TriState.NO:
        return verdict(TriState.NO, "psi differs from its regularization", eq_wit)
    E, e_exact = psi.liminf_neg_inf_set()
    if kind != PARABOLIC_ZERO:
        if not e_exact:
            return verdict(TriState.UNKNOWN, "-inf set not certified")
        bad, breach = _misplaced_minus_inf(psi, kind, E)
        if bad:
            return verdict(TriState.NO, breach, bad)
    if eq is TriState.UNKNOWN:
        return verdict(TriState.UNKNOWN, "regularization test inconclusive")
    if kind == HYPERBOLIC and not E:
        return verdict(TriState.YES, "psi regularized and liminf finite everywhere")
    return verdict(TriState.YES, _COMPLETE[kind])


def decide_topological(psi: PiecewiseDefiningFunction, window, resolution):
    """Raster route: interior-of-closure equality plus component count,
    assembled per the class dispatch.  Returns (verdict, the
    interior-of-closure TriState, the component count or None)."""
    kind = classify(psi).kind
    grid = rasterize(psi, window, resolution)
    ic, _ = int_closure_equals_domain(grid)
    count, count_status = complement_components(psi, grid)

    def verdict(state, route):
        return Verdict(state, route), ic, count

    if kind == PARABOLIC_ZERO:
        am = affine_minorant(psi)
        if am.status is TriState.NO:
            return verdict(TriState.NO, "whole-line interval: no containing half-plane")
        if am.status is TriState.UNKNOWN:
            return verdict(TriState.UNKNOWN, "whole-line interval: containment undecided")
        return verdict(ic, "whole-line interval: interior-of-closure test on the raster")
    if ic is TriState.UNKNOWN or count_status is not TriState.YES:
        return verdict(TriState.UNKNOWN, "raster inconclusive")
    limit = 2 if kind == HYPERBOLIC else 1
    return verdict(
        TriState.from_bool(ic is TriState.YES and count <= limit),
        f"raster: interior-of-closure {ic.value}, {count} complement "
        f"component(s) against a limit of {limit}",
    )


def predicted_components(psi: PiecewiseDefiningFunction):
    """Component count of the complement of the closure, from the
    defining-function side (exact when the -inf data is declared): one,
    plus one per bounded component of E.  Components of E that reach an
    infinite end of I separate nothing."""
    E, e_exact = psi.liminf_neg_inf_set()
    if not e_exact:
        return None
    return 1 + sum(1 for lo, hi in E if math.isfinite(lo) and math.isfinite(hi))


def p_completeness_report(psi: PiecewiseDefiningFunction, p=1.0) -> Verdict:
    """Verdict for density of the exponential span in H^p, p < infinity."""
    check_p(p)
    return _p_report(psi, p, decide_weak_star(psi))


def _p_report(psi, p, ws: Verdict) -> Verdict:
    """``p_completeness_report`` given the weak-star verdict ``ws`` of psi."""
    if ws.state is TriState.YES:
        return Verdict(
            TriState.YES, "inherited: weak-star completeness implies density in every H^p"
        )
    spikes = detect_contact_spikes(psi)
    if spikes:
        return Verdict(
            TriState.NO, "isolated exceedance: two boundary arcs share a final point, "
            "separating evaluations that exponentials cannot", tuple(spikes),
        )
    if classify(psi).kind == PARABOLIC_ZERO:
        for route in (_bounded_interval_obstruction, _log_envelope_domination):
            verdict = route(psi, p)
            if verdict is not None:
                return verdict
    return Verdict(
        TriState.UNKNOWN, "no applicable route (necessity of the topological "
        "conditions for p < infinity is open)",
    )


def _bounded_above(env, tail):
    """The envelope g is bounded above on ``tail``: -g admits slope 0 there."""
    lo, hi = replace(env, m=-env.m, c=-env.c, C=-env.C).slopes(tail)
    return lo <= 0.0 <= hi


def _bounded_interval_obstruction(psi, p):
    """I = R, frequencies confined to a bounded real interval while the
    domain contains a right half-plane: density fails.

    Lambda_p is read off the ends of the canonical domain.  psi is usc, so
    bounded above on every compact set; it is bounded above, and the domain
    contains a right half-plane, when each tail's upper envelope is."""
    dom = psi.canonical
    lo = None if dom is None else frequency_floor(dom, p)
    if lo is None or psi.facts.usc is not TriState.YES:
        return None
    for tail in ("upper", "lower"):
        upper = psi.tail_envelopes(tail)[1]
        if upper is None or not _bounded_above(upper, tail):
            return None
    return Verdict(
        TriState.NO, "bounded frequency interval: admissible frequencies are confined to "
        "a bounded real interval while the domain contains a right half-plane",
        (f"Lambda_p in ({lo}, 0] by the ends {dom.ends}",),
    )


def _log_envelope_domination(psi, p):
    """Sufficient condition for I = R: psi continuous (regularized), the
    complement connected, and psi bounded below by K - C (log(|y|+3))^a
    with a < 1; then density in H^p holds.  ``line_floor`` certifies K
    on all of R."""
    E, e_exact = psi.liminf_neg_inf_set()
    if psi.equals_regularized()[0] is not TriState.YES or not e_exact or E:
        return None
    envs = (psi.tail_envelopes("upper")[0], psi.tail_envelopes("lower")[0])
    if None in envs or any(env.m != 0 or (env.drifts and env.a >= 1.0) for env in envs):
        return None
    drifting = [env for env in envs if env.drifts]
    a = max((env.a for env in drifting), default=0.5)
    coef = max([1.0] + [env.C for env in drifting])
    k, _ = line_floor(psi, 0.0, coef, a)
    if k is None:
        return None
    scale = "" if coef == 1.0 else f"{coef:.4g}*"
    return Verdict(
        TriState.YES, "logarithmic envelope domination: the domain sits inside a "
        "log-perturbed half-plane whose exponentials are dense",
        (f"psi >= {k:.4g} - {scale}(log(|y|+3))^{a}",),
    )


def decide(psi, p=None, cross_check=False, window=None, resolution=1024):
    """Orchestrated verdict dictionary (library face of the CLI): the one
    place that turns verdicts into JSON."""
    if p is not None:
        check_p(p)
    ws = decide_weak_star(psi)
    out = {
        "weak_star_complete": ws.state.value,
        "route": ws.route,
        "witnesses": [repr(w) for w in ws.witnesses],
        "features": analyze(psi).to_json(),
    }
    if p is not None:
        rep = _p_report(psi, p, ws)
        out["p"] = p
        out["p_complete"] = rep.state.value
        out["p_route"] = rep.route
        if rep.witnesses:
            out["p_witnesses"] = [repr(w) for w in rep.witnesses]
    if cross_check:
        if window is None:
            raise ValueError("cross-check needs a window")
        topo, ic, count = decide_topological(psi, window, resolution)
        out["topological"] = {
            "verdict": topo.state.value, "route": topo.route,
            "int_closure_ok": ic.value, "complement_components": count,
        }
        both = ws.state.definite and topo.state.definite
        agree = "yes" if ws.state is topo.state else "no"
        out["routes_agree"] = agree if both else "indeterminate"
    return out
