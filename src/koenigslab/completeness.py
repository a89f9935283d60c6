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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .classify import (  # noqa: F401 (HYPERBOLIC et al. re-exported)
    HYPERBOLIC,
    PARABOLIC_POSITIVE,
    PARABOLIC_ZERO,
    affine_minorant,
    classify,
)
from .domain import POS_INF, PiecewiseDefiningFunction
from .features import analyze, detect_contact_spikes, unbounded_gap
from .hardy import NON_MEMBER, check_p, exact_membership
from .raster import (
    complement_components,
    int_closure_equals_domain,
    rasterize,
)
from .tri import TriState


@dataclass
class CompletenessVerdict:
    weak_star_complete: TriState
    route: str
    witnesses: list = field(default_factory=list)


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


def decide_weak_star(psi: PiecewiseDefiningFunction) -> CompletenessVerdict:
    """The defining-function criteria as one ladder for the three classes:

    1. I = R only: no containing half-plane gives NO, an undecided one
       UNKNOWN;
    2. psi != psi~ gives NO;
    3. bounded or half-line I only: an uncertified -inf set E gives
       UNKNOWN, and E of the wrong shape gives NO;
    4. an inconclusive psi = psi~ test gives UNKNOWN;
    5. otherwise YES.
    """
    psi.require_validated()
    kind = classify(psi).kind

    def verdict(state, text, witnesses=()):
        return CompletenessVerdict(state, f"{_PREFIX[kind]}: {text}", list(witnesses))

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
    assembled per the class dispatch."""
    psi.require_validated()
    cls = classify(psi)
    grid = rasterize(psi, window, resolution)
    ic, _ = int_closure_equals_domain(grid)
    count, count_status = complement_components(psi, grid)
    result = {"int_closure_ok": ic.value, "complement_components": count}
    if cls.kind == PARABOLIC_ZERO:
        am = affine_minorant(psi)
        if am.status is TriState.NO:
            result["verdict"] = TriState.NO
            result["route"] = "whole-line interval: no containing half-plane"
            return result
        if am.status is TriState.UNKNOWN:
            result["verdict"] = TriState.UNKNOWN
            result["route"] = "whole-line interval: containment undecided"
            return result
        result["verdict"] = ic
        result["route"] = "whole-line interval: interior-of-closure test on the raster"
        return result
    if ic is TriState.UNKNOWN or count_status is not TriState.YES:
        result["verdict"] = TriState.UNKNOWN
        result["route"] = "raster inconclusive"
        return result
    limit = 2 if cls.kind == HYPERBOLIC else 1
    ok = (ic is TriState.YES) and count <= limit
    result["verdict"] = TriState.from_bool(ok)
    result["route"] = (
        f"raster: interior-of-closure {ic.value}, {count} complement "
        f"component(s) against a limit of {limit}"
    )
    return result


def predicted_components(psi: PiecewiseDefiningFunction):
    """Component count of the complement of the closure, from the
    defining-function side (exact when the -inf data is declared): one,
    plus one per bounded component of E.  Components of E that reach an
    infinite end of I separate nothing."""
    E, e_exact = psi.liminf_neg_inf_set()
    if not e_exact:
        return None
    return 1 + sum(1 for lo, hi in E if math.isfinite(lo) and math.isfinite(hi))


def p_completeness_report(psi: PiecewiseDefiningFunction, p=1.0):
    """Verdict for density of the exponential span in H^p, p < infinity."""
    check_p(p)
    psi.require_validated()
    return _p_report(psi, p, decide_weak_star(psi))


def _p_report(psi, p, ws: CompletenessVerdict):
    """``p_completeness_report`` given the weak-star verdict ``ws`` of psi."""
    if ws.weak_star_complete is TriState.YES:
        return {
            "p_complete": TriState.YES,
            "route": "inherited: weak-star completeness implies density in "
            "every H^p",
        }
    spikes = detect_contact_spikes(psi)
    if spikes:
        return {
            "p_complete": TriState.NO,
            "route": "isolated exceedance: two boundary arcs share a final "
            "point, separating evaluations that exponentials cannot",
            "witnesses": spikes,
        }
    if classify(psi).kind == PARABOLIC_ZERO:
        for route in (_bounded_interval_obstruction, _log_envelope_domination):
            verdict = route(psi, p)
            if verdict is not None:
                return verdict
    return {
        "p_complete": TriState.UNKNOWN,
        "route": "no applicable route (necessity of the topological "
        "conditions for p < infinity is open)",
    }


def _bounded_interval_obstruction(psi, p):
    """I = R, frequencies confined to a bounded real interval while the
    domain contains a right half-plane: density fails."""
    # the domain must contain a translated right half-plane: psi bounded above
    _, upper = psi.tail_envelopes("upper")
    _, upper_dn = psi.tail_envelopes("lower")
    if upper is None or upper_dn is None:
        return None
    sup_mid, _ = psi.sup_inf(-64.0, 64.0)
    if not math.isfinite(sup_mid):
        return None

    # bounded frequency interval: exact non-members on the negative real
    # axis and off it, decided from the ends of the canonical domain
    dom = psi.canonical
    if dom is None:
        return None
    off_axis = [complex(-0.3, 0.35), complex(-0.3, -0.35), complex(0.0, 0.25), complex(0.0, -0.25)]
    for lam in off_axis:
        if exact_membership(lam, dom, p).status != NON_MEMBER:
            return None
    # bracket the real-axis cutoff
    m_cut = None
    for u in (-1.25, -1.5, -2.0, -3.0):
        if exact_membership(complex(u, 0.0), dom, p).status == NON_MEMBER:
            m_cut = u
            break
    if m_cut is None:
        return None
    return {
        "p_complete": TriState.NO,
        "route": "bounded frequency interval: admissible frequencies are "
        "confined to a bounded real interval while the domain contains a "
        "right half-plane",
        "witnesses": [f"non-member at {m_cut} and off-axis samples {off_axis}"],
    }


def _log_envelope_domination(psi, p):
    """Sufficient condition for I = R: psi continuous (regularized), the
    complement connected, and psi bounded below by C1 - (log(|y|+3))^a
    with a < 1; then density in H^p holds."""
    eq, _ = psi.equals_regularized()
    if eq is not TriState.YES:
        return None
    E, e_exact = psi.liminf_neg_inf_set()
    if not e_exact or E:
        return None
    lower, _ = psi.tail_envelopes("upper")
    lower_dn, _ = psi.tail_envelopes("lower")
    if lower is None or lower_dn is None:
        return None
    envs = (lower, lower_dn)
    if any(env.m != 0 or (env.drifts and env.a >= 1.0) for env in envs):
        return None
    # middle certification: C1 = inf over a grid of psi + (log(|y|+3))^a
    a = max((env.a for env in envs if env.drifts), default=0.5)
    ys = np.linspace(-64.0, 64.0, 257)
    c1 = POS_INF
    for lo, hi in zip(ys[:-1], ys[1:]):
        _, v = psi.sup_inf(lo, hi)
        if v == POS_INF:  # no finite sample of psi on this cell
            return None
        c1 = min(c1, v + math.log(min(abs(lo), abs(hi)) + 3.0) ** a)
    if not math.isfinite(c1):
        return None
    return {
        "p_complete": TriState.YES,
        "route": "logarithmic envelope domination: the domain sits inside a "
        "log-perturbed half-plane whose exponentials are dense",
        "witnesses": [f"psi >= {c1:.4g} - (log(|y|+3))^{a}"],
    }


def decide(psi, p=None, cross_check=False, window=None, resolution=1024):
    """Orchestrated verdict dictionary (library face of the CLI)."""
    if p is not None:
        check_p(p)
    ws = decide_weak_star(psi)
    out = {
        "weak_star_complete": ws.weak_star_complete.value,
        "route": ws.route,
        "witnesses": [repr(w) for w in ws.witnesses],
        "features": analyze(psi).to_json(),
    }
    if p is not None:
        rep = _p_report(psi, p, ws)
        out["p"] = p
        out["p_complete"] = rep["p_complete"].value
        out["p_route"] = rep["route"]
        if "witnesses" in rep:
            out["p_witnesses"] = [repr(w) for w in rep["witnesses"]]
    if cross_check:
        if window is None:
            raise ValueError("cross-check needs a window")
        topo = decide_topological(psi, window, resolution)
        out["topological"] = {
            "verdict": topo["verdict"].value,
            "route": topo["route"],
            "int_closure_ok": topo["int_closure_ok"],
            "complement_components": topo["complement_components"],
        }
        ws_v = ws.weak_star_complete
        tp_v = topo["verdict"]
        out["routes_agree"] = (
            "yes"
            if (ws_v.definite and tp_v.definite and ws_v is tp_v)
            else ("indeterminate" if not (ws_v.definite and tp_v.definite) else "no")
        )
    return out
