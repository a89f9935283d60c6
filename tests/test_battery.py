import warnings

import numpy as np
import pytest

from koenigslab import battery
from koenigslab.battery import battery_entry


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


def raster_heights(n):
    """The heights row_profiles samples on eta1's window at resolution n."""
    _, _, y0, y1 = battery_entry("eta1").window
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
    ev = battery._eta_defining_function(a)
    for ys in (raster_heights(1024), raster_heights(512), random_heights()):
        ys = rng.choice(ys.ravel(), 200, replace=False)
        want = np.array([mpmath_psi(y, a) for y in ys])
        assert ulps(ev(ys), want).max() <= 8


@pytest.mark.parametrize("a", [1.0, 0.5, 0.25])
def test_eta_psi_is_within_8_ulps_of_the_bisection_on_every_raster_height(a):
    ev = battery._eta_defining_function(a)
    for ys in (raster_heights(1024), raster_heights(512)):
        assert ulps(ev(ys), bisection_reference(ys, a).reshape(ys.shape)).max() <= 8


@pytest.mark.parametrize("a", [1.0, 0.5, 0.25, 1.5])
def test_eta_heights_that_fail_the_bracket_check_keep_the_bisection_bits(a):
    ev = battery._eta_defining_function(a)
    with np.errstate(all="ignore"):
        _, checked = battery._eta_root(SPECIAL_HEIGHTS, a)
        # NaN, +-inf and |y| >= 1e307 fail for every a; every height fails for a > 1
        assert list(checked) == [a <= 1.0] * 6 + [False] * 5
        # +-inf get their limit -inf instead (see the test below)
        failed = SPECIAL_HEIGHTS[~checked & ~np.isinf(SPECIAL_HEIGHTS)]
        assert same_bits(ev(failed), bisection_reference(failed, a))
        for y in failed:
            got = ev(y)
            assert isinstance(got, float)
            assert same_bits(got, bisection_reference(y, a)[0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a", [1.0, 0.5, 0.25])
def test_eta_psi_is_minus_inf_at_infinite_heights(a):
    # the bisection bracket y -+ (3 + 3|y|) is NaN there, with a RuntimeWarning
    ev = battery._eta_defining_function(a)
    assert ev(np.inf) == ev(-np.inf) == -np.inf
    got = ev(np.array([np.inf, 0.0, -np.inf]))
    assert got[0] == got[2] == -np.inf and np.isfinite(got[1])


def test_eta_heights_whose_newton_run_does_not_converge_keep_the_bisection_bits(monkeypatch):
    monkeypatch.setattr(battery, "_ETA_NEWTON_STEPS", 1)
    ys = raster_heights(512)[::16].ravel()
    assert not battery._eta_root(ys, 1.0)[1].any()
    assert same_bits(battery._eta_defining_function(1.0)(ys), bisection_reference(ys, 1.0))


def test_eta_psi_of_a_height_does_not_depend_on_the_array():
    ev = battery._eta_defining_function(1.0)
    ys = np.concatenate([raster_heights(512).ravel(), random_heights(6_000)])
    perm = np.random.default_rng(3).permutation(ys.size)
    got = ev(ys)
    assert same_bits(ev(ys[perm]), got[perm])
    picks = np.random.default_rng(4).choice(ys.size, 2_000, replace=False)
    assert same_bits(np.array([ev(float(ys[i])) for i in picks]), got[picks])


def test_eta_psi_is_finite_where_the_plain_bisection_overflows():
    # for a = 1, psi(y) = -log|3 + i t| with t within a few units of y
    ev = battery._eta_defining_function(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = ev(OVERFLOW_HEIGHTS)
        scalars = np.array([ev(float(y)) for y in OVERFLOW_HEIGHTS])
    np.testing.assert_allclose(got, -np.log(np.abs(OVERFLOW_HEIGHTS)), rtol=1e-12)
    assert same_bits(got, scalars)


def test_eta_inversion_evaluates_the_boundary_at_most_10_times_per_height(monkeypatch):
    # the plain bisection evaluates the boundary 81 times per height
    count = 0
    terms = battery._eta_terms

    def counted(t, a):
        nonlocal count
        count += np.size(t)
        return terms(t, a)

    monkeypatch.setattr(battery, "_eta_terms", counted)
    psi = battery_entry("eta1").psi
    _, _, y0, y1 = battery_entry("eta1").window
    psi.row_profiles(np.linspace(y0, y1, 1025))
    assert 0 < count <= 10 * 65_536, count / 65_536


@pytest.mark.parametrize("a", [1.0, 0.5, 0.25])
def test_eta_declared_envelopes_bound_psi(a):
    piece = battery.eta_domain_psi(a).pieces[0]
    ev = battery._eta_defining_function(a)
    ys = np.concatenate([raster_heights(1024).ravel(), random_heights(), [1e300, -1e300]])
    psi = ev(ys)
    assert np.all(psi <= piece.tail_upper.value(ys))
    far = np.abs(ys) >= piece.tail_lower.valid_from
    assert np.all(psi[far] >= piece.tail_lower.value(ys[far]))
