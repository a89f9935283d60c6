import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from koenigslab import battery, domain, hardy, raster
from koenigslab.battery import battery_entry
from koenigslab.cantor import CantorSet
from koenigslab.expr import EvaluatorError


def bisection_reference(y, a):
    """The plain 80-step bisection, evaluating the boundary at every step."""

    def boundary(t):
        t = np.asarray(t, dtype=float)
        w = 1j * t + 3.0
        val = 1j * t - np.exp(a * np.log(np.log(w)))
        return val

    y = np.atleast_1d(np.asarray(y, dtype=float))
    lo = y - 3.0 - 3.0 * np.abs(y)
    hi = y + 3.0 + 3.0 * np.abs(y)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        too_low = np.imag(boundary(mid)) < y
        lo = np.where(too_low, mid, lo)
        hi = np.where(too_low, hi, mid)
    return np.real(boundary(0.5 * (lo + hi)))


def row_heights(name, n):
    """The 64 midpoint heights of each raster row on a battery entry's
    window at resolution n, the heights a sampled row profile reads."""
    _, _, y0, y1 = battery_entry(name).window
    y_edges = np.linspace(y0, y1, n + 1)
    lo, hi = y_edges[:-1], y_edges[1:]
    frac = (np.arange(64) + 0.5) / 64
    return lo[:, None] + (hi - lo)[:, None] * frac[None, :]


def random_heights(count=60_000, seed=0):
    rng = np.random.default_rng(seed)
    k = count // 3
    signs = rng.choice([-1.0, 1.0], k)
    return np.concatenate([
        rng.normal(0.0, 30.0, k),
        rng.uniform(-1.0, 1.0, k),
        signs * np.exp(rng.uniform(-700.0, 700.0, k)),
    ])


SPECIAL_HEIGHTS = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-300,
    1e307, -1e307, np.nan, np.inf, -np.inf,
])

# heights where the plain bisection overflows: its bracket above ~4.5e307,
# and at some heights above ~3.6e307 the sum lo + hi; it returns NaN there
OVERFLOW_HEIGHTS = np.array([
    3.62e307, -3.62e307, 4.6e307, -4.6e307, 5e307, -5e307, 1e308, -1e308,
    1.7976931348623157e308, -1.7976931348623157e308,
])


def same_bits(x, y):
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return x.shape == y.shape and np.array_equal(x.view(np.int64), y.view(np.int64))


def ulps(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return np.abs(got - want) / np.spacing(np.abs(want))


def mpmath_psi(y, a):
    """psi(y) from a 200-bit Newton root of t - Im (log(3 + i t))^a = y."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(200):
        y, a, t = mpmath.mpf(y), mpmath.mpf(a), mpmath.mpf(y)
        for _ in range(12):
            w = 3 + 1j * t
            L = mpmath.log(w)
            La = L**a
            t -= (t - La.imag - y) / (1 - (a * La / L * 1j / w).imag)
        return float(-(mpmath.log(3 + 1j * t) ** a).real)


@pytest.mark.parametrize("a", [1.0, 0.5, 0.25])
def test_eta_psi_is_within_8_ulps_of_a_200_bit_root(a):
    rng = np.random.default_rng(7)
    ev = battery._EtaDefiningFunction(a)
    for ys in (row_heights("eta1", 1024), row_heights("eta1", 512), random_heights()):
        ys = rng.choice(ys.ravel(), 200, replace=False)
        want = np.array([mpmath_psi(y, a) for y in ys])
        assert ulps(ev(ys), want).max() <= 8


@pytest.mark.parametrize("a", [1.0, 0.5, 0.25])
def test_eta_psi_is_within_8_ulps_of_the_bisection_on_every_raster_height(a):
    ev = battery._EtaDefiningFunction(a)
    for ys in (row_heights("eta1", 1024), row_heights("eta1", 512)):
        assert ulps(ev(ys), bisection_reference(ys, a).reshape(ys.shape)).max() <= 8


@pytest.mark.parametrize("a", [1.0, 0.5, 0.25])
def test_eta_heights_that_fail_the_bracket_check_are_nan(a):
    ev = battery._EtaDefiningFunction(a)
    _, checked = battery._eta_root(SPECIAL_HEIGHTS, a)
    # only NaN and +-inf fail; +-inf get their limit -inf instead (see the
    # test below), and NaN is NaN unchecked and raises checked
    assert list(checked) == [True] * 8 + [False] * 3
    assert np.isnan(ev(SPECIAL_HEIGHTS, check=False)[~checked & ~np.isinf(SPECIAL_HEIGHTS)]).all()
    got = ev(np.nan, check=False)
    assert isinstance(got, float) and np.isnan(got)
    with pytest.raises(EvaluatorError, match="non-finite at y=nan"):
        ev(np.nan)


@pytest.mark.parametrize("a", [0.0, -1.0, 1.5, np.nan])
def test_eta_evaluator_rejects_an_exponent_outside_0_1_when_built(a):
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        battery._EtaDefiningFunction(a)


@pytest.mark.parametrize(
    "name", ["_eta_bisect", "_eta_boundary", "_DBL_MAX", "_ETA_CHUNK", "gap_oscillation_evaluator"]
)
def test_deleted_battery_names_stay_deleted(name):
    assert not hasattr(battery, name)


def test_each_entry_is_named_after_its_builder():
    names = [b.__name__.removesuffix("_domain") for b in battery.BATTERY_BUILDERS]
    assert len(names) == 17
    assert [b().name for b in battery.BATTERY_BUILDERS] == names
    assert [battery_entry(name).name for name in names] == names


def test_battery_entry_builds_only_the_named_entry(monkeypatch):
    built = []

    def logged(builder):
        @functools.wraps(builder)
        def build():
            built.append(builder.__name__)
            return builder()

        return build

    monkeypatch.setattr(battery, "BATTERY_BUILDERS", tuple(map(logged, battery.BATTERY_BUILDERS)))
    assert battery_entry("vee").name == "vee"
    assert built == ["vee_domain"]


def test_an_unknown_battery_entry_is_a_value_error():
    with pytest.raises(ValueError, match="unknown battery entry 'nosuch'; known entries: strip, half_plane"):
        battery_entry("nosuch")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [1.0, 0.5, 0.25])
def test_eta_psi_is_minus_inf_at_infinite_heights(a):
    # an unchecked call gives that limit; a checked one rejects it
    ev = battery._EtaDefiningFunction(a)
    assert ev(np.inf, check=False) == ev(-np.inf, check=False) == -np.inf
    got = ev(np.array([np.inf, 0.0, -np.inf]), check=False)
    assert got[0] == got[2] == -np.inf and np.isfinite(got[1])
    with pytest.raises(EvaluatorError, match="non-finite at y=inf"):
        ev(np.inf)


def test_eta_heights_whose_newton_run_does_not_converge_are_nan(monkeypatch):
    monkeypatch.setattr(battery, "_ETA_NEWTON_STEPS", 1)
    ys = row_heights("eta1", 512)[::16].ravel()
    assert not battery._eta_root(ys, 1.0)[1].any()
    ev = battery._EtaDefiningFunction(1.0)
    assert np.isnan(ev(ys, check=False)).all()
    with pytest.raises(EvaluatorError, match="non-finite"):
        ev(ys)


def test_eta_psi_of_a_height_does_not_depend_on_the_array():
    ev = battery._EtaDefiningFunction(1.0)
    ys = np.concatenate([row_heights("eta1", 512).ravel(), random_heights(6_000)])
    perm = np.random.default_rng(3).permutation(ys.size)
    got = ev(ys)
    assert same_bits(ev(ys[perm]), got[perm])
    picks = np.random.default_rng(4).choice(ys.size, 2_000, replace=False)
    assert same_bits(np.array([ev(float(ys[i])) for i in picks]), got[picks])


@pytest.mark.parametrize("a", [1.0, 0.5, 0.25])
def test_eta_root_passes_its_check_up_to_the_largest_float(a):
    # log-uniform over +-[1e-300, DBL_MAX], with +-DBL_MAX and the float
    # below it, where an end of the root bracket overflows
    rng = np.random.default_rng(23)
    top = np.finfo(float).max
    mags = np.exp(rng.uniform(np.log(1e-300), np.log(top), 100))
    mags = np.concatenate([mags, [1e-300, 1e307, np.nextafter(top, 0.0), top]])
    ys = np.concatenate([mags, -mags])
    assert battery._eta_root(ys, a)[1].all()
    want = np.array([mpmath_psi(y, a) for y in ys])
    assert ulps(battery._EtaDefiningFunction(a)(ys), want).max() <= 8


def test_eta_psi_is_finite_where_the_plain_bisection_overflows():
    # for a = 1, psi(y) = -log|3 + i t| with t within a few units of y
    ev = battery._EtaDefiningFunction(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ev(OVERFLOW_HEIGHTS)
        scalars = np.array([ev(float(y)) for y in OVERFLOW_HEIGHTS])
    np.testing.assert_allclose(got, -np.log(np.abs(OVERFLOW_HEIGHTS)), rtol=1e-12)
    assert same_bits(got, scalars)


def test_eta_inversion_evaluates_the_boundary_at_most_10_times_per_height(monkeypatch):
    # the plain bisection evaluates the boundary 81 times per height
    count = 0

    def counted(kernel):
        def run(t, a):
            nonlocal count
            count += np.size(t)
            return kernel(t, a)

        return run

    monkeypatch.setattr(battery, "_eta_im", counted(battery._eta_im))
    monkeypatch.setattr(battery, "_eta_re", counted(battery._eta_re))
    psi = battery_entry("eta1").psi
    _, _, y0, y1 = battery_entry("eta1").window
    psi.row_profiles(np.linspace(y0, y1, 1025))
    assert 0 < count <= 10 * 65_536, count / 65_536


# boundary parameters beyond 1.3e154, where t^2 overflows, up to 1e308
HUGE_T = np.exp(np.random.default_rng(5).uniform(np.log(1.3e154), np.log(1e308), 2_000))


@pytest.mark.parametrize("a", [1.0, 0.5, 0.25])
def test_eta_real_kernels_agree_with_the_complex_boundary(a):
    ts = np.concatenate([
        random_heights(), row_heights("eta1", 1024).ravel(), HUGE_T, -HUGE_T, [0.0, 1.3e154, 1e308],
    ])
    with np.errstate(all="ignore"):
        # the boundary curve eta(i t) = i t - (log(3 + i t))^a, in complex arithmetic
        want = 1j * ts - np.exp(a * np.log(np.log(1j * ts + 3.0)))
        im, slope = battery._eta_im(ts, a)
        # d/dt Im eta(i t) = 1 - Im a L^(a-1) i/w, w = 3 + i t, L = log w
        w = 1j * ts + 3.0
        L = np.log(w)
        want_slope = 1.0 - np.imag(a * np.exp((a - 1.0) * np.log(L)) * 1j / w)
    assert np.isfinite(want).all()
    assert ulps(battery._eta_re(ts, a), want.real).max() <= 8
    assert ulps(im, want.imag).max() <= 8
    assert np.abs(slope - want_slope).max() <= 1e-15
    # the slope of Im eta(i t) lies in [1 - a/3, 1 + a/3]
    assert np.all((slope >= 1.0 - a / 3.0) & (slope <= 1.0 + a / 3.0))


@pytest.mark.parametrize("a", [0.0, -1.0, 1.5, 2.0, np.nan, np.inf])
def test_eta_domain_psi_rejects_an_exponent_outside_0_1(a):
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        battery.eta_domain_psi(a)


@pytest.mark.parametrize("a", [1.0, 0.5, 0.25])
def test_eta_declared_envelopes_bound_psi(a):
    piece = battery.eta_domain_psi(a).pieces[0]
    ev = battery._EtaDefiningFunction(a)
    ys = np.concatenate([row_heights("eta1", 1024).ravel(), random_heights(), [1e300, -1e300]])
    psi = ev(ys)
    assert np.all(psi <= piece.tail_upper.value(ys))
    far = np.abs(ys) >= piece.tail_lower.valid_from
    assert np.all(psi[far] >= piece.tail_lower.value(ys[far]))


def full_array_gap_descent(carrier):
    """The gap evaluator as a descent over the whole array at every level:
    the reference for the one that keeps only the undecided heights."""

    def ev(y):
        scalar = np.ndim(y) == 0
        y = np.atleast_1d(np.asarray(y, dtype=float))
        out = np.full(y.shape, 1.0)
        clo = np.full(y.shape, carrier.lo)
        chi = np.full(y.shape, carrier.hi)
        active = (y >= carrier.lo) & (y <= carrier.hi)
        f = carrier.keep_fraction
        for _ in range(battery._GAP_LEVELS):
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


def gap_test_heights(carrier):
    edges = np.array(sorted({e for gap in carrier.gaps(12) for e in gap}))
    points = np.array(carrier.sample_points(8))
    near = np.concatenate([
        np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        np.nextafter(points, -np.inf), np.nextafter(points, np.inf),
    ])
    outside = np.array([
        -np.inf, -1e300, -1.0, -5e-324, np.nextafter(carrier.hi, np.inf), 2.0, np.inf, np.nan,
    ])
    rng = np.random.default_rng(11)
    return np.concatenate([
        edges, points, near, outside,
        rng.uniform(carrier.lo, carrier.hi, 100_000), rng.uniform(-1.0, 2.0, 10_000),
    ])


def test_gap_evaluator_matches_the_full_array_descent_bit_for_bit():
    carrier = battery_entry("oscillation_cantor").psi.pieces[0].carrier
    ev = battery._GapOscillation(carrier)
    ref = full_array_gap_descent(carrier)
    for name in ("comb", "oscillation_cantor"):
        n = battery_entry(name).resolution
        for ys in (row_heights(name, n), row_heights(name, n // 2)):
            assert same_bits(ev(ys), ref(ys))
    ys = gap_test_heights(carrier)
    got = ev(ys)
    assert same_bits(got, ref(ys))
    # a height's value does not depend on the rest of the array
    perm = np.random.default_rng(12).permutation(ys.size)
    assert same_bits(ev(ys[perm]), got[perm])
    picks = np.concatenate([np.arange(200), np.random.default_rng(13).choice(ys.size, 500)])
    scalars = [ev(float(ys[i])) for i in picks]
    assert all(isinstance(v, float) for v in scalars)
    assert same_bits(np.array(scalars), got[picks])
    assert same_bits(np.array([ref(float(ys[i])) for i in picks]), got[picks])


def written_out_log_power(s, t, a, part=None):
    """log(s + i t) and its principal a-th power, one ufunc call at a time,
    with a fresh array for every step; ``part`` is ignored, and every part
    is computed."""
    l = np.log(np.hypot(s, t))
    phi = np.arctan2(t, s)
    if a == 1.0:
        return l, phi, l, phi
    r = np.hypot(l, phi)
    a_theta = a * np.arctan2(phi, l)
    ra = r**a
    return l, phi, ra * np.cos(a_theta), ra * np.sin(a_theta)


@pytest.mark.parametrize("a", [1.0, 0.75, 0.5, 0.25])
def test_eta_psi_keeps_its_bits_through_the_shared_log_power(a, monkeypatch):
    # battery evaluates eta's boundary with hardy's kernel, not a copy of it
    assert not hasattr(battery, "_eta_power")
    ys = np.concatenate([row_heights("eta1", 512).ravel(), random_heights(6_000), SPECIAL_HEIGHTS])
    shared = battery._EtaDefiningFunction(a)(ys, check=False)
    monkeypatch.setattr(battery, "log_power", written_out_log_power)
    assert same_bits(battery._EtaDefiningFunction(a)(ys, check=False), shared)
    with np.errstate(all="ignore"):
        ts = np.concatenate([random_heights(6_000), HUGE_T, -HUGE_T])
        got, want = hardy.log_power(3.0, ts, a), written_out_log_power(3.0, ts, a)
    assert all(same_bits(g, w) for g, w in zip(got, want))


# -- row bounds from the edge roots ------------------------------------------

SAMPLE_FRACTIONS = (np.arange(64) + 0.5) / 64  # the 64 midpoints of a sampled row


def row_strategy():
    """(lo, hi) rows: ordinary, straddling 0, tiny, and at |y| ~ 1e6; at
    most 0.25 high, where 64 samples find the sup to within 1e-3."""
    ordinary = st.tuples(st.floats(-40.0, 40.0), st.floats(1e-6, 0.25))
    straddling = st.tuples(st.floats(-0.25, 0.0), st.floats(1e-9, 0.25))
    tiny = st.tuples(st.floats(-0.1, 0.1) | st.floats(-2.0, 2.0), st.floats(1e-15, 1e-9))
    far = st.tuples(
        st.floats(1e5, 1e7) | st.floats(-1e7, -1e5), st.floats(1e-9, 0.25)
    )
    return st.one_of(ordinary, straddling, tiny, far).map(lambda r: (r[0], r[0] + r[1]))


def assert_row_range_holds_the_samples(ev, lo, hi):
    """Check that the evaluator's row_range bounds all 64 midpoint values
    of each row; return its sup and the sampled max."""
    sup, inf = ev.row_range(lo, hi)
    assert not np.isnan(sup).any() and not np.isnan(inf).any()
    vals = ev(lo[:, None] + (hi - lo)[:, None] * SAMPLE_FRACTIONS[None, :])
    assert np.all(vals.max(axis=1) <= sup)
    assert np.all(vals.min(axis=1) >= inf)
    return sup, vals.max(axis=1)


@given(
    st.floats(0.0, 1.0, exclude_min=True),
    st.lists(row_strategy(), min_size=1, max_size=8),
)
@settings(max_examples=300, deadline=None)
def test_eta_row_range_bounds_every_sampled_height(a, rows):
    lo, hi = (np.array(v) for v in zip(*rows))
    sup, row_max = assert_row_range_holds_the_samples(battery._EtaDefiningFunction(a), lo, hi)
    assert np.all(sup - row_max <= 1e-3)


@pytest.mark.parametrize("a", [0.999, 0.5, 0.25])
def test_eta_row_range_allows_for_rounding_on_flat_rows(a):
    # on rows this short near y = 0, psi varies by less than an ulp, and its
    # rounding is not monotone in |t|: about 2 rows in 1,000 have a sample
    # 1 or 2 ulps beyond the unwidened value at an end of the root bracket
    rng = np.random.default_rng(17)
    lo = rng.uniform(-0.1, 0.1, 10_000)
    hi = lo + np.exp(rng.uniform(np.log(1e-15), np.log(1e-9), lo.size))
    assert_row_range_holds_the_samples(battery._EtaDefiningFunction(a), lo, hi)


def test_eta_raster_rows_invert_only_their_edges(monkeypatch):
    heights, sampled = [], []

    def counted_root(y, a):
        heights.append(y.size)
        return root(y, a)

    def counted_samples(evaluator, lo, hi):
        sampled.append(lo.size)
        return samples(evaluator, lo, hi)

    root, samples = battery._eta_root, domain._row_samples
    monkeypatch.setattr(battery, "_eta_root", counted_root)
    monkeypatch.setattr(domain, "_row_samples", counted_samples)
    e = battery_entry("eta1")
    grid = raster.rasterize(e.psi, e.window, e.resolution)
    assert (grid.n, grid.coarse.n) == (1024, 512)
    assert sum(heights) <= 1025 + 513
    assert sampled == []


def test_eta_rows_with_a_failed_edge_are_sampled(monkeypatch):
    # an edge whose root fails the bracket check leaves both rows touching
    # it to sampling, and the others keep their edge-root bounds
    def root(y, a):
        t, checked = eta_root(y, a)
        return t, checked & (y != 2e307)

    eta_root = battery._eta_root
    monkeypatch.setattr(battery, "_eta_root", root)
    psi = battery.eta_domain_psi(1.0)
    ev = psi.pieces[0].evaluator
    edges = np.array([-1.0, 1e306, 2e307, 4e307])
    lo, hi = edges[:-1], edges[1:]
    sup, inf = ev.row_range(lo, hi)
    assert np.isfinite(sup[0]) and np.isfinite(inf[0])
    assert np.isnan(sup[1:]).all() and np.isnan(inf[1:]).all()
    prof = psi.row_profiles(edges)
    want_M, want_m = domain._row_samples(ev, lo[1:], hi[1:])
    assert same_bits(prof.M, np.concatenate(([sup[0]], want_M)))
    assert same_bits(prof.m, np.concatenate(([inf[0]], want_m)))


@pytest.mark.parametrize("a", [1.0, 0.5])
def test_eta_rows_whose_far_end_overflows_are_sampled(a):
    # an edge at +-DBL_MAX passes its check, but t + m overflows, so the
    # row's inf is NaN and the row is sampled, without a warning
    big = np.finfo(float).max
    psi = battery.eta_domain_psi(a)
    ev = psi.pieces[0].evaluator
    lo, hi = np.array([-big, 1e307, 1e308]), np.array([-1e308, 1e308, big])
    t, checked = battery._eta_root(np.array([-big, big]), a)
    assert checked.all()
    sup, inf = ev.row_range(lo, hi)
    assert np.isfinite(sup).all() and np.isfinite(inf[1])
    assert np.isnan(inf[[0, 2]]).all()
    edges = np.array([1e307, 1e308, big])
    prof = psi.row_profiles(edges)
    want_M, want_m = domain._row_samples(ev, edges[1:-1], edges[2:])
    assert same_bits(prof.M, np.concatenate(([sup[1]], want_M)))
    assert same_bits(prof.m, np.concatenate(([inf[1]], want_m)))


def test_translated_eta_keeps_its_edge_root_bounds(monkeypatch):
    # dyadic edges and shifts, so that (y + dy) - dy is y exactly
    psi = battery.eta_domain_psi(0.5)
    dx, dy = 0.5, 2.0
    moved = psi.translated(dx, dy)
    edges = np.linspace(-30.0, 30.0, 257)
    sampled = []
    samples = domain._row_samples
    monkeypatch.setattr(
        domain, "_row_samples", lambda ev, lo, hi: sampled.append(lo.size) or samples(ev, lo, hi)
    )
    here, there = psi.row_profiles(edges), moved.row_profiles(edges + dy)
    assert sampled == []
    for key in ("M", "m", "Mstar"):
        assert same_bits(getattr(there, key), getattr(here, key) + dx), key


# -- Cantor gap-oscillation rows from their edges ---------------------------

CANTOR = battery_entry("oscillation_cantor").psi.pieces[0]


@st.composite
def cantor_rows(draw):
    """(lo, hi) rows of the oscillation_cantor carrier: inside one float gap
    (straddling its midpoint, or from nextafter of its edges), tiny, across
    cells, and touching the carrier's ends.  ``CantorSet.gaps`` splits its
    cells with the float operations of the evaluator's descent, so its gaps
    are the evaluator's."""
    carrier = CANTOR.carrier
    glo, ghi = draw(st.sampled_from(carrier.gaps(draw(st.integers(1, 10)))))
    mid, half = 0.5 * glo + 0.5 * ghi, 0.5 * (ghi - glo)
    kind = draw(st.sampled_from(["straddle", "nextafter", "tiny", "across", "ends"]))
    if kind == "straddle":
        lo = mid - half * draw(st.floats(0.0, 1.0, exclude_max=True))
        hi = mid + half * draw(st.floats(0.0, 1.0, exclude_max=True))
    elif kind == "nextafter":
        lo = np.nextafter(glo, np.inf)
        hi = draw(st.sampled_from([np.nextafter(ghi, -np.inf), mid, np.nextafter(lo, np.inf)]))
    elif kind == "tiny":
        lo = draw(st.floats(carrier.lo, carrier.hi))
        hi = lo + draw(st.floats(1e-15, 1e-9))
    elif kind == "across":
        lo = draw(st.floats(carrier.lo, glo))
        hi = draw(st.floats(ghi, carrier.hi))
    else:
        lo, hi = draw(st.sampled_from([
            (carrier.lo, ghi), (carrier.lo, mid), (glo, carrier.hi), (mid, carrier.hi),
            (carrier.lo, carrier.hi),
        ]))
    return lo, min(hi, carrier.hi)


@given(st.lists(cantor_rows(), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_gap_row_range_bounds_every_sampled_height(rows):
    lo, hi = (np.array(v, dtype=float) for v in zip(*rows))
    sup, _ = assert_row_range_holds_the_samples(CANTOR.off_evaluator, lo, hi)
    assert np.all(sup <= 1.0)


def test_gap_row_range_allows_for_rounding_on_flat_rows():
    # on a carrier across 0, ghi - y and y - glo round, so on rows a few
    # ulps high u's rounding is not monotone: without the widening 169 of
    # these 20,000 rows have a sample beyond the bounds
    ev = battery._GapOscillation(CantorSet(-1.0, 1.0, 0.25))
    rng = np.random.default_rng(29)
    gaps = np.array(ev.carrier.gaps(4))[rng.integers(0, 15, 20_000)]
    lo = gaps[:, 0] + (gaps[:, 1] - gaps[:, 0]) * rng.uniform(0.0, 1.0, 20_000)
    hi = np.minimum(lo + np.spacing(np.abs(lo)) * rng.integers(1, 50, lo.size),
                    np.nextafter(gaps[:, 1], -np.inf))
    sup, _ = assert_row_range_holds_the_samples(ev, lo, hi)
    assert (sup < 1.0).mean() > 0.9


def test_gap_row_range_is_tight_below_one():
    # within one gap the bound comes from the row's ends and midpoint; a
    # dense sample that holds both ends finds it to within 1e-6
    rng = np.random.default_rng(19)
    gaps = np.array(CANTOR.carrier.gaps(8))[rng.integers(0, 255, 400)]
    width = gaps[:, 1] - gaps[:, 0]
    lo = gaps[:, 0] + width * rng.uniform(0.0, 1.0, 400)
    hi = np.minimum(lo + width * np.exp(rng.uniform(np.log(1e-9), np.log(0.5), 400)),
                    np.nextafter(gaps[:, 1], -np.inf))
    ev = CANTOR.off_evaluator
    sup, inf = ev.row_range(lo, hi)
    vals = ev(lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, 4096)[None, :])
    below, above = sup < 1.0, inf > -1.0
    assert below.sum() > 40 and above.sum() > 40
    assert np.all(sup[below] - vals.max(axis=1)[below] <= 1e-6)
    assert np.all(vals.min(axis=1)[above] - inf[above] <= 1e-6)


def test_cantor_raster_rows_descend_only_their_edges(monkeypatch):
    heights, sampled = [], []

    def counted_descent(carrier, y):
        heights.append(y.size)
        return descent(carrier, y)

    def counted_samples(evaluator, lo, hi):
        sampled.append(lo.size)
        return samples(evaluator, lo, hi)

    descent, samples = battery._gap_descent, domain._row_samples
    monkeypatch.setattr(battery, "_gap_descent", counted_descent)
    monkeypatch.setattr(domain, "_row_samples", counted_samples)
    e = battery_entry("oscillation_cantor")
    grid = raster.rasterize(e.psi, e.window, e.resolution)
    assert (grid.n, grid.coarse.n) == (2048, 1024)
    assert sum(heights) <= 2049 + 1025
    assert sampled == []


def test_translated_cantor_piece_keeps_its_edge_bounds(monkeypatch):
    # dyadic edges and shifts, so that (y + dy) - dy is y exactly
    psi = battery_entry("oscillation_cantor").psi
    dx, dy = 0.5, 2.0
    moved = psi.translated(dx, dy)
    edges = np.linspace(-0.5, 1.5, 513)
    sampled = []
    samples = domain._row_samples
    monkeypatch.setattr(
        domain, "_row_samples", lambda ev, lo, hi: sampled.append(lo.size) or samples(ev, lo, hi)
    )
    here, there = psi.row_profiles(edges), moved.row_profiles(edges + dy)
    assert sampled == []
    assert (here.m > -1.0).any()
    for key in ("M", "m", "Mstar"):
        assert same_bits(getattr(there, key), getattr(here, key) + dx), key
