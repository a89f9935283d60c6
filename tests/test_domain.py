import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from koenigslab import (
    Evaluator,
    FiniteAnalytic,
    LimitData,
    MinusInfinity,
    PiecewiseDefiningFunction,
    TailEnvelope,
    TriState,
    ValidationError,
    parse_expression,
)
from koenigslab.battery import (
    battery_entry,
    comb_domain,
    du_oscillation_domain,
    gap_domain,
    oscillation_cantor_domain,
    spike_domain,
    strip_domain,
)

NEG_INF = float("-inf")
POS_INF = float("inf")


def flat(span, v=0.0):
    src = repr(float(v))
    lim = LimitData(v, v)
    return FiniteAnalytic(
        span=span,
        evaluator=parse_expression(src),
        limits_left=lim if math.isfinite(span[0]) else None,
        limits_right=lim if math.isfinite(span[1]) else None,
    )


# -- membership ----------------------------------------------------------


def test_contains_half_plane_sides():
    psi = PiecewiseDefiningFunction(NEG_INF, POS_INF, (flat((NEG_INF, POS_INF)),))
    assert psi.contains(1 + 0j)
    assert not psi.contains(-1 + 0j)
    assert psi.contains(0.001 + 100j)
    assert not psi.contains(0.0 + 0j)  # boundary is excluded


def test_contains_respects_height_interval():
    psi = strip_domain().psi
    assert psi.contains(1 + 0j)
    assert not psi.contains(1 + 2j)  # above the interval


def test_comb_membership_uses_exact_carrier():
    # 1/4 has ternary digits 0202..., so it lies in the carrier where psi = 1
    psi = comb_domain().psi
    assert not psi.contains(0.5 + 0.25j)
    assert psi.contains(0.5 + 0.2j)  # 0.2 is off the carrier, psi = 0 there
    assert psi.contains(1.5 + 0.25j)


@given(st.floats(min_value=0, max_value=10, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_contains_monotone_under_right_translation(t):
    psi = spike_domain().psi
    zs = [0.5 + 0.3j, 0.2 + 0.0j, 1.5 + 0.0j, 0.5 - 0.9j]
    for z in zs:
        if psi.contains(z):
            assert psi.contains(z + t)


# -- one-sided limits ------------------------------------------------------


def test_trivial_limits_flat():
    psi = strip_domain().psi
    lims = psi.one_sided_limits(0.0)
    assert lims.left.liminf == lims.right.limsup == 0.0
    assert not lims.inconclusive


def test_declared_oscillation_limits():
    # sin(1/((b-y)(y-a))) on (0, 1): every one-sided envelope at b is [-1, 1]
    src = "sin(1/((1-y)*(y-0)))"
    piece = FiniteAnalytic(
        span=(0.0, 1.0),
        evaluator=parse_expression(src),
        limits_left=LimitData(-1.0, 1.0),
        limits_right=LimitData(-1.0, 1.0),
    )
    psi = PiecewiseDefiningFunction(
        0.0, 2.0, (piece, flat((1.0, 2.0), 1.0)), point_values={1.0: 1.0}
    )
    lims = psi.one_sided_limits(1.0)
    assert lims.left.liminf == -1.0 and lims.left.limsup == 1.0


def test_monotone_divergence_detected():
    # -log|y| to the right of 0 has one-sided limit +inf
    src = "-log(abs(y))"
    piece = FiniteAnalytic(span=(0.0, 1.0), evaluator=parse_expression(src))
    psi = PiecewiseDefiningFunction(0.0, 1.0, (piece,))
    lims = psi.one_sided_limits(0.0)
    assert lims.right.liminf == POS_INF and lims.right.limsup == POS_INF


def test_interior_limit_matches_evaluator():
    src = "y^2 - 1"
    piece = FiniteAnalytic(span=(-2.0, 2.0), evaluator=parse_expression(src))
    psi = PiecewiseDefiningFunction(-2.0, 2.0, (piece,))
    lims = psi.one_sided_limits(0.5)
    assert lims.left.liminf == pytest.approx(-0.75)
    assert lims.right.limsup == pytest.approx(-0.75)


# -- semicontinuity ----------------------------------------------------------


def test_usc_accepts_comb_and_oscillation():
    assert comb_domain().psi.facts.usc is TriState.YES
    assert oscillation_cantor_domain().psi.facts.usc is TriState.YES


def test_usc_rejects_low_junction_value():
    # two pieces tending to 1 at 0 but psi(0) = 0: not usc
    p1 = flat((-1.0, 0.0), 1.0)
    p2 = flat((0.0, 1.0), 1.0)
    with pytest.raises(ValidationError):
        PiecewiseDefiningFunction(-1.0, 1.0, (p1, p2), point_values={0.0: 0.0})


def test_whole_plane_rejected():
    with pytest.raises(ValidationError):
        PiecewiseDefiningFunction(NEG_INF, POS_INF, (MinusInfinity(span=(NEG_INF, POS_INF)),))


def test_empty_interval_rejected():
    with pytest.raises(ValidationError):
        PiecewiseDefiningFunction(1.0, 1.0, (flat((1.0, 1.0)),))


def test_empty_piece_rejected():
    # a piece of zero length would own psi at its height and nowhere else
    pieces = (flat((-1.0, 0.0)), flat((0.0, 0.0), 5.0), flat((0.0, 1.0)))
    with pytest.raises(ValidationError):
        PiecewiseDefiningFunction(-1.0, 1.0, pieces)
    # a reversed span is reported as empty, not as a coverage gap
    with pytest.raises(ValidationError, match=r"piece span \(1.0, -1.0\) is empty"):
        PiecewiseDefiningFunction(-1.0, 1.0, (flat((1.0, -1.0)),))


def test_coverage_gaps_rejected():
    with pytest.raises(ValidationError):
        PiecewiseDefiningFunction(0.0, 2.0, (flat((0.0, 0.9)), flat((1.0, 2.0))))


# -- regularizations -----------------------------------------------------------


def test_continuous_psi_is_its_own_regularization():
    psi = strip_domain().psi
    star = psi.psi_star
    tilde = psi.psi_tilde
    for y in np.linspace(-1.5, 1.5, 7):
        assert star(y) == pytest.approx(0.0)
        assert tilde(y) == pytest.approx(0.0)


def test_comb_regularizations_vanish():
    # complementary gaps accumulate at every carrier point, so the liminf
    # envelope is 0 everywhere and so is its usc envelope
    psi = comb_domain().psi
    star = psi.psi_star
    tilde = psi.psi_tilde
    for y in (0.0, 0.25, 0.5, 1.0, 1.2):
        assert star(y) == pytest.approx(0.0)
        assert tilde(y) == pytest.approx(0.0)
    eq, witnesses = psi.equals_regularized()
    assert eq is TriState.NO and witnesses


def test_undeclared_carrier_gap_sup_is_a_sampled_row():
    # undeclared, the sup of the off part is the max over 64 midpoints of
    # the carrier's hull [0, 1], the same rule as a row of row_profiles
    from koenigslab.cantor import CantorSet
    from koenigslab.domain import CantorCarrierPiece

    def piece(off):
        return CantorCarrierPiece(
            span=(-0.5, 1.5), carrier=CantorSet(0.0, 1.0), on_value=2.0,
            off_evaluator=parse_expression(off),
        )

    assert piece("y").carrier_gap_sup() == (127.0 / 128.0, False)
    # an off part that never evaluates has no sampled sup
    assert piece("log(-1-y*y)").carrier_gap_sup() == (NEG_INF, False)


def test_oscillation_regularization_recovers_psi():
    # the oscillation sweeps [-1, 1] beside every carrier point: the liminf
    # envelope dips to -1 there but its usc envelope climbs back to 1 = psi
    psi = oscillation_cantor_domain().psi
    star = psi.psi_star
    tilde = psi.psi_tilde
    assert star(0.25) == pytest.approx(-1.0)
    assert tilde(0.25) == pytest.approx(1.0)
    assert psi.equals_regularized()[0] is TriState.YES


def test_spike_witness():
    eq, wit = spike_domain().psi.equals_regularized()
    assert eq is TriState.NO and wit == [0.0]


def test_pointwise_order_star_tilde_psi():
    for name in ("strip", "comb", "oscillation_cantor", "gap", "du_oscillation"):
        psi = battery_entry(name).psi
        star, tilde = psi.psi_star, psi.psi_tilde
        lo = psi.interval_lo if math.isfinite(psi.interval_lo) else -3.0
        hi = psi.interval_hi if math.isfinite(psi.interval_hi) else 3.0
        for y in np.linspace(lo + 1e-3, hi - 1e-3, 9):
            s, t = star(float(y)), tilde(float(y))
            if math.isnan(s) or math.isnan(t):
                continue
            v = psi.value(float(y))
            assert s <= t + 1e-9
            assert t <= v + 1e-9


def _numeric_liminf(f, y, eps_list=(1e-2, 1e-3, 1e-4, 1e-5)):
    best = POS_INF
    for eps in eps_list:
        ts = np.concatenate(
            [np.linspace(y - eps, y - eps / 64, 48), np.linspace(y + eps / 64, y + eps, 48)]
        )
        vals = [f(float(t)) for t in ts]
        best = min(np.nanmin(vals), best)
    return best


def test_psi_star_idempotent_numerically():
    # applying a sampled liminf to psi_* should approximately return psi_*
    psi = gap_domain().psi
    star = psi.psi_star
    for y in (-0.5, 0.25, 1.5):
        approx = _numeric_liminf(lambda t: star(t) if -1 < t < 2 else POS_INF, y)
        target = star(y)
        if math.isinf(target):
            assert math.isinf(approx)
        else:
            assert approx == pytest.approx(target, abs=1e-6)


def _numeric_limsup(f, y, eps_list=(1e-2, 1e-3, 1e-4, 1e-5)):
    best = NEG_INF
    for eps in eps_list:
        ts = np.concatenate(
            [np.linspace(y - eps, y - eps / 64, 48), np.linspace(y + eps / 64, y + eps, 48)]
        )
        vals = [f(float(t)) for t in ts]
        best = max(np.nanmax(vals), best)
    return best


def test_usc_regularization_idempotent_numerically():
    # a sampled limsup applied to psi~ should approximately return psi~
    psi = comb_domain().psi
    tilde = psi.psi_tilde
    for y in (-0.25, 0.25, 0.5, 1.2):
        approx = _numeric_limsup(lambda t: tilde(t) if -0.5 < t < 1.5 else NEG_INF, y)
        assert approx == pytest.approx(tilde(y), abs=1e-6)


# -- minus-infinity structure ---------------------------------------------------


def test_gap_components_and_E_set():
    psi = gap_domain().psi
    assert psi.minus_infinity_components() == [(0.0, 1.0)]
    E, exact = psi.liminf_neg_inf_set()
    assert E == [(0.0, 1.0)] and exact


def test_adjacent_minus_inf_pieces_merge_when_value_is_minus_inf():
    p1 = MinusInfinity(span=(0.0, 1.0))
    p2 = MinusInfinity(span=(1.0, 2.0))
    psi = PiecewiseDefiningFunction(
        -1.0,
        3.0,
        (flat((-1.0, 0.0)), p1, p2, flat((2.0, 3.0))),
        point_values={1.0: NEG_INF},
    )
    assert psi.minus_infinity_components() == [(0.0, 2.0)]


def test_adjacent_minus_inf_pieces_split_at_finite_value():
    p1 = MinusInfinity(span=(0.0, 1.0))
    p2 = MinusInfinity(span=(1.0, 2.0))
    psi = PiecewiseDefiningFunction(
        -1.0,
        3.0,
        (flat((-1.0, 0.0)), p1, p2, flat((2.0, 3.0))),
        point_values={1.0: 0.0},
    )
    assert psi.minus_infinity_components() == [(0.0, 1.0), (1.0, 2.0)]
    # but the liminf set is still one interval: the liminf at 1 is -inf
    E, exact = psi.liminf_neg_inf_set()
    assert E == [(0.0, 2.0)] and exact
    # and psi(1) = 0 > psi~(1) = -inf, so the regularization test fails
    assert psi.equals_regularized()[0] is TriState.NO


# -- translation invariance ------------------------------------------------------


def test_spike_over_minus_inf_background():
    # an isolated finite value over a -inf background: the slit survives in
    # the closure of the slab, so the regularization test fails at c0, the
    # height is not super-repelling (it closes the gap set), and the
    # complement splits above/below the slab
    from koenigslab.completeness import decide_weak_star, predicted_components
    from koenigslab.features import analyze

    pieces = (MinusInfinity(span=(-1.0, 0.0)), MinusInfinity(span=(0.0, 1.0)))
    psi = PiecewiseDefiningFunction(
        -1.0, 1.0, pieces, name="spike_over_gap", point_values={0.0: 2.0}
    )
    assert psi.minus_infinity_components() == [(-1.0, 0.0), (0.0, 1.0)]
    E, exact = psi.liminf_neg_inf_set()
    assert E == [(-1.0, 1.0)] and exact
    eq, wit = psi.equals_regularized()
    assert eq is TriState.NO and wit == [0.0]
    rep = analyze(psi)
    assert rep.super_repelling_heights == []  # 0 closes the gap set
    assert rep.unbounded_discontinuities == []
    v = decide_weak_star(psi)
    assert v.state is TriState.NO
    assert predicted_components(psi) == 2


def test_translation_shifts_values():
    psi = du_oscillation_domain().psi
    moved = psi.translated(2.0, -1.0)
    assert moved.value(-1.0) == psi.value(0.0) + 2.0
    assert moved.contains(complex(2.5, -0.5)) == psi.contains(complex(0.5, 0.5))
    E0, _ = psi.liminf_neg_inf_set()
    E1, _ = moved.liminf_neg_inf_set()
    assert [(lo - 1.0, hi - 1.0) for lo, hi in E0] == pytest.approx(E1)


def test_a_translated_expression_piece_samples_like_the_untranslated_one():
    # the translated piece once fell off the batch path: every sample was
    # evaluated alone, and a non-finite one turned into a failed sample
    from koenigslab.expr import Evaluator, EvaluatorError
    from koenigslab.specio import psi_to_dict

    class Counting(Evaluator):
        """The parsed formula, recording the shape of each batch call."""

        def __init__(self, source, calls):
            self.parsed, self.calls = parse_expression(source), calls

        def values(self, ys):
            self.calls.append(np.shape(ys))
            return self.parsed.values(ys)

    def one_piece(source, calls):
        piece = FiniteAnalytic(span=(-1.0, 1.0), evaluator=Counting(source, calls))
        return PiecewiseDefiningFunction(-1.0, 1.0, (piece,))

    calls = []
    psi = one_piece("log(abs(y))", calls)
    moved = psi.translated(0.0, 0.0)
    row = np.array([-31.5 / 64, 32.5 / 64])  # its middle sample is y = 0
    for edges in (row, np.linspace(-1.0, 1.0, 1025)):
        a, b = psi.row_profiles(edges), moved.row_profiles(edges)
        for f in dataclasses.fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name
    assert moved.row_profiles(row).m[0] == NEG_INF
    with pytest.raises(EvaluatorError):
        moved.pieces[0].value(0.0)
    with pytest.raises(ValidationError, match="without expression source"):
        psi_to_dict(moved)

    # one batch call per piece, not one call per sample
    calls = []
    moved = one_piece("sqrt(y)", calls).translated(0.0, 0.0)
    del calls[:]
    moved.row_profiles(np.linspace(-1.0, 1.0, 1025))
    assert calls == [(65536,)]



def test_a_checked_translated_call_checks_the_translated_value():
    # the check once ran before adding dx, so a finite value that overflowed
    # under translation came back as inf
    from koenigslab.domain import _Translated
    from koenigslab.expr import EvaluatorError

    moved = _Translated(parse_expression("y"), 1e308, 0.0)
    with pytest.raises(EvaluatorError):
        moved(1e308)
    assert moved(1e308, check=False) == POS_INF


@pytest.mark.parametrize("name", ["oscillation_cantor", "double_gap"])
def test_each_one_sided_limit_is_computed_once(name, monkeypatch):
    # building psi builds the structural facts; no consumer recomputes them
    from collections import Counter

    from koenigslab import CantorCarrierPiece
    from koenigslab.classify import classify, lambda_infty
    from koenigslab.completeness import decide
    from koenigslab.features import analyze
    from koenigslab.raster import complement_components, rasterize

    entry = battery_entry(name)
    calls = Counter()
    for cls in (FiniteAnalytic, MinusInfinity, CantorCarrierPiece):
        def counted(self, y0, side, _orig=cls.side_limits):
            calls[(y0, side)] += 1
            return _orig(self, y0, side)

        monkeypatch.setattr(cls, "side_limits", counted)
    psi = dataclasses.replace(entry.psi)  # built, and so validated, once
    decide(psi, p=1.0)
    analyze(psi)
    lambda_infty(psi)
    classify(psi)
    grid = rasterize(psi, entry.window, 256)
    complement_components(psi, grid)
    assert calls and max(calls.values()) == 1, calls


# -- immutability ------------------------------------------------------------------


def test_built_psi_cannot_be_edited_behind_its_facts():
    # the facts are computed when psi is built, so an edit afterwards
    # would leave them stale: a built psi is read-only
    psi = battery_entry("du_oscillation").psi
    assert psi.facts.usc is TriState.YES
    with pytest.raises(TypeError):
        psi.point_values[0.0] = -5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        psi.name = "renamed"
    with pytest.raises(dataclasses.FrozenInstanceError):
        psi.facts = None
    assert psi.point_values == {0.0: 0.0}


def test_replace_rebuilds_and_revalidates():
    psi = battery_entry("du_oscillation").psi
    with pytest.raises(ValidationError, match=r"limsup 0.0 exceeds psi\(0.0\) = -5.0"):
        dataclasses.replace(psi, point_values={0.0: -5.0})
    moved = dataclasses.replace(psi, point_values={0.0: 1.0})
    assert moved.value(0.0) == 1.0 and moved.facts is not psi.facts


def test_point_values_are_copied_at_build():
    values = {0.0: 0.0}
    psi = battery_entry("du_oscillation").psi
    psi = dataclasses.replace(psi, point_values=values)
    values[0.0] = -5.0
    assert psi.value(0.0) == 0.0


@pytest.mark.parametrize("build", [
    lambda: LimitData(math.nan, 0.0),
    lambda: LimitData(0.0, math.nan),
    lambda: LimitData(math.nan, math.nan, exact=False, inconclusive=True),
])
def test_limit_data_rejects_nan_at_build(build):
    with pytest.raises(ValidationError, match="must be a number, got nan"):
        build()


@pytest.mark.parametrize("field", ["m", "c", "C", "a", "valid_from"])
def test_tail_envelope_rejects_nan_at_build(field):
    with pytest.raises(ValidationError, match=f"^{field} must be a number, got nan"):
        TailEnvelope(**{field: math.nan})


@pytest.mark.parametrize("field", ["off_limsup_at_carrier", "off_liminf_at_carrier"])
def test_comb_rejects_nan_declarations_at_build(field):
    # carrier_gap_sup reads off_limsup_at_carrier when it is declared, so
    # it cannot report a NaN either
    piece = comb_domain().psi.pieces[0]
    with pytest.raises(ValidationError, match=f"^{field} must be a number, got nan"):
        dataclasses.replace(piece, **{field: math.nan})
    assert not math.isnan(dataclasses.replace(piece, **{field: 0.0}).carrier_gap_sup()[0])


# -- batched evaluation ----------------------------------------------------------


def test_validating_the_comb_reads_each_ladder_in_one_call(monkeypatch):
    # its two dyadic ladders were 80 scalar calls of the off formula "0"
    from koenigslab.expr import Expression

    calls = []
    original = Expression.__call__

    def counted(self, y, check=True):
        calls.append(np.shape(y))
        return original(self, y, check)

    monkeypatch.setattr(Expression, "__call__", counted)
    comb_domain()
    assert 0 < len(calls) <= 4 and set(calls) == {(40,)}, calls


def _constant_pieces(source):
    from koenigslab import CantorCarrierPiece, CantorSet

    ev = parse_expression(source)
    plain = FiniteAnalytic(span=(-1.0, 2.0), evaluator=ev)
    return {
        "plain": plain,
        "translated": plain.translate(0.25, -0.5),
        "cantor": CantorCarrierPiece(
            span=(-1.0, 2.0), carrier=CantorSet(0.0, 1.0), on_value=1.0, off_evaluator=ev
        ),
    }


ROW_EDGES = np.linspace(-1.0, 2.0, 97)
CONSTANTS = {"0": 0.0, "-2.5": -2.5, "log(0)": NEG_INF, "0/0": math.nan}


@pytest.mark.parametrize("source", ["0", "-2.5", "log(0)"])
def test_a_constant_expression_piece_is_never_sampled(source, monkeypatch):
    from koenigslab import domain

    def refuse(*args):
        raise AssertionError("a constant piece reached _row_samples")

    monkeypatch.setattr(domain, "_row_samples", refuse)
    c = CONSTANTS[source]
    pieces = _constant_pieces(source)
    for name, shift in (("plain", 0.0), ("translated", 0.25), ("cantor", 0.0)):
        _, m, _, _ = pieces[name].row_bounds(ROW_EDGES[:-1], ROW_EDGES[1:])
        assert (m == c + shift).all(), name
    assert pieces["cantor"].carrier_gap_sup() == (c, False)


@pytest.mark.parametrize("source", list(CONSTANTS))
def test_constant_rows_have_the_bits_of_sampled_rows(source, monkeypatch):
    from koenigslab.expr import Expression

    pieces = _constant_pieces(source)
    closed = {k: p.row_bounds(ROW_EDGES[:-1], ROW_EDGES[1:])[:3] for k, p in pieces.items()}
    monkeypatch.delattr(Expression, "row_range")  # every row sampled, as before
    for name, piece in pieces.items():
        sampled = piece.row_bounds(ROW_EDGES[:-1], ROW_EDGES[1:])[:3]
        for field, a, b in zip(("M", "m", "Mstar"), closed[name], sampled):
            a, b = np.asarray(a), np.asarray(b)
            assert np.array_equal(np.isnan(a), np.isnan(b)), (name, field)
            ok = ~np.isnan(a)
            assert a[ok].tobytes() == b[ok].tobytes(), (name, field)


# -- the evaluator protocol --------------------------------------------------------


@pytest.mark.parametrize("kind, field", [
    ("finite_analytic", "evaluator"), ("cantor", "off_evaluator"),
])
def test_a_plain_callable_is_rejected_at_build(kind, field):
    from koenigslab import CantorCarrierPiece, CantorSet

    build = {
        "finite_analytic": lambda ev: FiniteAnalytic(span=(-1.0, 1.0), evaluator=ev),
        "cantor": lambda ev: CantorCarrierPiece(
            span=(-1.0, 1.0), carrier=CantorSet(-0.5, 0.5), off_evaluator=ev
        ),
    }[kind]
    with pytest.raises(ValidationError, match=f"^{field} must be an Evaluator, got function"):
        build(lambda y: 0.0 * y)
    build(parse_expression("0"))


class _Broken(Evaluator):
    def __call__(self, y, check=True):
        raise TypeError("a broken evaluator")


def test_an_evaluator_bug_propagates_instead_of_failing_samples():
    # its rows were read as failed samples, and both routes answered yes
    from koenigslab.completeness import decide

    zero = LimitData(0.0, 0.0)
    piece = FiniteAnalytic(
        span=(-1.0, 1.0), evaluator=_Broken(), limits_left=zero, limits_right=zero
    )
    psi = PiecewiseDefiningFunction(-1.0, 1.0, (piece,))
    with pytest.raises(TypeError, match="broken"):
        psi.row_profiles(np.linspace(-1.5, 1.5, 65))
    with pytest.raises(TypeError, match="broken"):
        decide(psi, p=1, cross_check=True, window=(-3.0, 3.0, -1.5, 1.5), resolution=256)
