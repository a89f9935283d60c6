import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from koenigslab import approx, hardy
from koenigslab.approx import (
    AtomicMeasure,
    ExpSum,
    LogDomainSpec,
    alpha_map,
    alpha_quadrature,
    choose_b,
    discretize_measure,
    least_squares_fit,
    log_domain_boundary,
    phi_beta,
    phi_beta_R,
    poly_alpha_exp_sum,
    strip_sample_grid,
    univalence_winding_check,
)
from koenigslab.expr import parse_expression
from koenigslab.hardy import eta_domain, half_plane_right


# -- closed forms ------------------------------------------------------------


def test_phi_beta_values():
    assert phi_beta(2.0, 0.0) == pytest.approx(0.5)
    assert phi_beta(2.0, 1j * math.pi / 2) == pytest.approx(1.0 / (math.pi / 2 + 2.0))
    # modulus bound on the real axis: 1/|-ix + 2| <= 1/2
    xs = np.linspace(-20, 20, 41)
    assert np.all(np.abs(phi_beta(2.0, xs)) <= 0.5 + 1e-12)


def test_phi_beta_requires_convergent_parameter():
    with pytest.raises(ValueError):
        phi_beta(1.0, 0.0)


def test_phi_beta_R_values():
    assert phi_beta_R(2.0, 1.0, 0.0) == pytest.approx((1 - math.exp(-2)) / 2)
    assert phi_beta_R(2.0, 0.0, 1.3 + 0.2j) == 0
    # truncation error: |Phi^R(0) - 1/2| = e^{-2R}/2
    assert abs(phi_beta_R(2.0, 10.0, 0.0) - 0.5) == pytest.approx(
        math.exp(-20) / 2, rel=1e-3
    )
    assert abs(phi_beta_R(2.0, 10.0, 0.0) - 0.5) < 1e-8
    # removable point iz = beta, i.e. z = -i beta
    assert phi_beta_R(2.0, 3.0, -2j) == pytest.approx(3.0)


# -- measures -----------------------------------------------------------------


def test_discretize_uniform_density():
    mu = discretize_measure(lambda s: np.ones_like(np.asarray(s, float)), 1.0, 2)
    assert [(t, w.real) for t, w in mu.atoms] == [(0.5, pytest.approx(0.5)), (1.0, pytest.approx(0.5))]


def test_discretize_exponential_cells():
    mu = discretize_measure(lambda s: np.exp(-2.0 * np.asarray(s)), 1.0, 4)
    expected_total = (1 - math.exp(-2)) / 2
    assert mu.total_variation == pytest.approx(expected_total)
    for j, (t, w) in enumerate(mu.atoms, start=1):
        cell = (math.exp(-2 * (j - 1) / 4) - math.exp(-2 * j / 4)) / 2
        assert w.real == pytest.approx(cell)


def test_exp_sum_from_measure_converges_first_order():
    beta, R = 2.0, 1.0
    z0 = 0.3j
    errs = []
    for n in (8, 16, 32, 64):
        mu = discretize_measure(lambda s: np.exp(-beta * np.asarray(s)), R, n)
        P = mu.exp_sum("oscillatory")
        errs.append(abs(P(z0) - phi_beta_R(beta, R, z0)))
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(1.5 < r < 3.0 for r in ratios)


def _cell_by_cell(density, R, n):
    """Reference: one Gauss rule per cell, with the 12/24/48-point check."""

    def gauss(lo, hi, k):
        x, w = np.polynomial.legendre.leggauss(k)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return half * np.sum(w * np.asarray(density(mid + half * x), dtype=complex))

    atoms, redone = [], 0
    for j in range(1, n + 1):
        lo, hi = (j - 1) * R / n, j * R / n
        w, w_check = gauss(lo, hi, 24), gauss(lo, hi, 12)
        if abs(w - w_check) > 1e-9 * (1.0 + abs(w)):
            w = gauss(lo, hi, 48)
            redone += 1
        atoms.append((j * R / n, complex(w)))
    return atoms, redone


@pytest.mark.parametrize(
    "density",
    [
        lambda s: np.ones_like(np.asarray(s, float)),
        lambda s: np.exp(-2.0 * np.asarray(s)),
        lambda s: (1.0 - np.asarray(s)) ** 2 * np.exp(-3.0 * np.asarray(s)),
        lambda s: np.exp(1j * 3.0 * np.asarray(s)) / (1.0 + np.asarray(s)),
        lambda s: np.sqrt(np.asarray(s)),
        lambda s: 2.0 - 0.5j,  # a constant, not one value per point
    ],
)
@pytest.mark.parametrize("R, n", [(1.0, 1), (1.0, 4), (5.0, 64), (1.0, 256), (2.5, 7), (3, 5), (0.1, 3)])
def test_discretize_matches_cell_by_cell_reference_bitwise(density, R, n):
    atoms, _ = _cell_by_cell(density, R, n)
    mu = discretize_measure(density, R, n)
    assert [t for t, _ in mu.atoms] == [t for t, _ in atoms]
    assert np.array_equal([w for _, w in mu.atoms], [w for _, w in atoms])


def test_discretize_refines_failing_cells_bitwise():
    density = lambda s: np.exp(-2.0 * np.asarray(s)) * np.cos(40.0 * np.asarray(s))
    atoms, redone = _cell_by_cell(density, 1.0, 2)
    assert redone > 0  # the 48-point branch runs
    mu = discretize_measure(density, 1.0, 2)
    assert np.array_equal([w for _, w in mu.atoms], [w for _, w in atoms])


@functools.lru_cache(maxsize=1)
def _log_demo_sums():
    """The log-domain demo's samples shifted back by b, its target there,
    the demo's three sums and two more on the same grid."""
    spec = LogDomainSpec(psi=parse_expression("-(1/2)*log(abs(y)+1)"), lip_bound=0.5, log_exponent=0.6)
    b = choose_b(spec)
    t = np.linspace(-300.0, 300.0, 2048)
    zb = np.asarray(spec.psi(t), dtype=float) + b + 1j * t
    zs = np.concatenate([zb, (zb + np.linspace(0.5, 8.0, 7)[:, None]).ravel()])
    z, f, w = zs - b, 1.0 / (zs + 5.0), alpha_map(zs)
    sums = []
    for deg in (2, 4, 8):
        coef, *_ = np.linalg.lstsq(np.vander(w, deg + 1, increasing=True), f, rcond=1e-7)
        sums.append(poly_alpha_exp_sum(list(coef), b, n_per_unit=256)[1])
    for coef in ([0.3, -1.0 + 0.5j, 2.0], [0.1, 1.0, -0.5, 0.25, 0.125j]):
        sums.append(poly_alpha_exp_sum(coef, b, n_per_unit=256)[1])
    return z, f, sums


def _term_loop_sup(s, z, f):
    return float(np.max(np.abs(s(z) - f)))


@pytest.fixture
def evaluated_points(monkeypatch):
    """Point counts of every ExpSum.__call__ during the test."""
    counts = []
    call = ExpSum.__call__

    def counting(self, z):
        counts.append(int(np.size(z)))
        return call(self, z)

    monkeypatch.setattr(ExpSum, "__call__", counting)
    return counts


def test_sup_error_screen_is_bitwise_the_term_loop(evaluated_points):
    z, f, sums = _log_demo_sums()
    for s in sums:
        assert s._grid() is not None
        evaluated_points.clear()
        got = s.sup_error(z, f)
        assert evaluated_points and sum(evaluated_points) < z.size // 100  # screened
        assert got == _term_loop_sup(s, z, f)
        assert s.sup_error(z[:279], f[:279]) == _term_loop_sup(s, z[:279], f[:279])


def test_sup_error_reevaluates_every_point_within_the_bound(evaluated_points):
    z, _, sums = _log_demo_sums()
    phase = np.exp(2j * math.pi * np.random.default_rng(0).random(z.size))
    for s in sums[::3]:
        v = s(z)
        for shift in (1e-3, 1e-3 * phase):
            f = v + shift
            evaluated_points.clear()
            got = s.sup_error(z, f)
            assert evaluated_points == [z.size]
            assert got == _term_loop_sup(s, z, f)


def test_sup_error_falls_back_off_a_grid(evaluated_points):
    z, f, _ = _log_demo_sums()
    for s in (
        ExpSum(((2.0, -1.0 + 0j), (1j, 0.5j))),
        ExpSum(((1.0, -1.0 + 0j), (0.5, -math.sqrt(2.0) + 0j))),
        ExpSum(((1.0, -0.5 + 0j), (0.5, -0.5 + 0j))),  # one power twice
        ExpSum(((1.0, 0j),)),
    ):
        assert s._grid() is None
        evaluated_points.clear()
        got = s.sup_error(z, f)
        assert evaluated_points == [z.size]
        assert got == _term_loop_sup(s, z, f)


def test_sup_error_edge_cases_match_the_term_loop():
    z, f, sums = _log_demo_sums()
    assert ExpSum(()).sup_error(z, f) == float(np.max(np.abs(f)))
    s = sums[0]
    assert s.sup_error(z[7], f[7]) == _term_loop_sup(s, z[7], f[7])
    assert s.sup_error(z, f[7]) == _term_loop_sup(s, z, f[7])
    f_nan = f.copy()
    f_nan[3] = np.nan
    assert math.isnan(s.sup_error(z, f_nan))
    with pytest.raises(ValueError):
        s.sup_error(z[:0], f[:0])


@st.composite
def grid_sums_and_points(draw):
    """A sum of N terms c_k e^{i_k d z}, 0 <= i_k <= 4N with i = 1 among
    them (so d is the grid step), |c_k| from 1e-300 to 1e3, and points
    whose |q| = |e^{dz}| lies on both sides of 1, some near the screen's
    guard M |Re dz| = 700 and at times one beyond it."""
    n = draw(st.integers(1, 48))
    idx = [1] + draw(
        st.lists(st.integers(0, 4 * n).filter(lambda i: i != 1), min_size=n - 1, max_size=n - 1, unique=True)
    )
    d = cmath.rect(draw(st.floats(1e-3, 2.0)), draw(st.floats(-math.pi, math.pi)))
    terms = tuple(
        (cmath.rect(10.0 ** draw(st.floats(-300.0, 3.0)), draw(st.floats(0.0, 2 * math.pi))),
         complex(i * d.real, i * d.imag))
        for i in idx
    )
    M = max(idx)
    size = draw(st.integers(2, 200))
    re_mdz = st.one_of(st.floats(-699.0, 699.0), st.floats(690.0, 699.0), st.floats(-699.0, -690.0))
    pts = draw(st.lists(st.tuples(re_mdz, st.floats(-40.0, 40.0)), min_size=size, max_size=size))
    if draw(st.integers(0, 4)) == 4:
        pts[0] = (draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(701.0, 710.0)), pts[0][1])
    z = np.array([complex(t / M, y) / d for t, y in pts])
    return ExpSum(terms), z


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sz=grid_sums_and_points(), kind=st.sampled_from(["zero", "shifted", "random"]),
       scale=st.floats(-17.0, 2.0), seed=st.integers(0, 2**32 - 1))
def test_blocked_screen_is_bitwise_the_term_loop(evaluated_points, monkeypatch, sz, kind, scale, seed):
    monkeypatch.setattr(approx, "_SCREEN_CHUNK", 64)  # several chunks, the last one short
    s, z = sz
    assert s._grid() is not None
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        v = s(z)
        top = float(np.max(np.abs(v[np.isfinite(v)]), initial=1.0))
        phase = np.exp(2j * math.pi * rng.random(z.size))
        # "shifted": |s - f| is one value at every point, up to rounding
        f = {
            "zero": np.zeros(z.size, dtype=complex),
            "shifted": v + top * 10.0**scale * phase,
            "random": top * 10.0**scale * rng.random(z.size) * phase,
        }[kind]
        want = _term_loop_sup(s, z, f)
        evaluated_points.clear()
        got = s.sup_error(z, f)
    assert got == want or (math.isnan(got) and math.isnan(want))
    assert sum(evaluated_points) <= z.size


def test_empty_sum_evaluates_to_zero():
    assert ExpSum(())(1.23 + 4j) == 0


def test_p64_close_to_truncated_transform_at_origin():
    beta, R = 2.0, 5.0
    mu = discretize_measure(lambda s: np.exp(-beta * np.asarray(s)), R, 64)
    P = mu.exp_sum("oscillatory")
    assert abs(P(0.0) - phi_beta_R(beta, R, 0.0)) < 0.05


def test_uniform_bound_on_strip():
    beta, R = 2.0, 5.0
    cap = math.exp(math.pi * R / (2 * 64)) * (1 - math.exp(-(beta - math.pi / 2) * R)) / (
        beta - math.pi / 2
    )
    pts = strip_sample_grid()
    for n in (64, 128, 256):
        mu = discretize_measure(lambda s: np.exp(-beta * np.asarray(s)), R, n)
        P = mu.exp_sum("oscillatory")
        bound = P.strip_sup_bound()
        assert float(np.max(np.abs(P(pts)))) <= bound + 1e-9
        assert bound <= cap + 1e-9


def test_laplace_transform_multiplicative_under_convolution():
    mu = AtomicMeasure(((0.0, 1.0), (0.5, -0.25j), (1.0, 0.5)), 1.0)
    nu = AtomicMeasure(((0.25, 2.0), (0.75, 1.0 + 1.0j)), 0.75)
    conv = mu.convolve(nu)
    zs = np.array([0.2, 1.0 + 0.3j, -0.4 + 1j, 2.0])
    assert np.allclose(
        conv.exp_sum("laplace")(zs), mu.exp_sum("laplace")(zs) * nu.exp_sum("laplace")(zs)
    )


def test_atoms_outside_support_rejected():
    with pytest.raises(ValueError):
        AtomicMeasure(((2.0, 1.0),), 1.0)


# -- least squares ------------------------------------------------------------


def test_exact_representation_recovers_target():
    hp = half_plane_right()
    [fit] = least_squares_fit(
        lambda z: np.exp(-z), hp, [[-1.0, -2.0, -3.0]], n_nodes=2**12
    )
    assert fit.error < 1e-10
    coefs = dict((l, c) for c, l in fit.exp_sum.terms)
    assert abs(coefs[-1.0] - 1.0) < 1e-6


def test_error_nonincreasing_in_budget():
    hp = half_plane_right()
    target = lambda z: 1.0 / (z + 1.0) ** 2
    fits = least_squares_fit(
        target, hp, [[-k / 8 for k in range(1, m + 1)] for m in (16, 32, 64)], n_nodes=2**12
    )
    errs = [fit.error for fit in fits]
    assert errs[1] <= errs[0] * (1 + 1e-9)
    assert errs[2] <= errs[1] * (1 + 1e-9)


@pytest.fixture
def levels(monkeypatch):
    """The level j of every ``circle_nodes`` call the fit makes."""
    calls = []

    def counting(dom, j, n):
        calls.append(j)
        return hardy.circle_nodes(dom, j, n)

    monkeypatch.setattr(approx, "circle_nodes", counting)
    return calls


def _full_circle(dom, j, n):
    """The fit's n nodes at level j: the upper half, then its mirror."""
    x, y = hardy.circle_nodes(dom, j, n)
    up = x + 1j * y
    return np.concatenate((up, dom.reflection * np.conj(up[::-1])))


def test_refinement_delta_is_computed_when_read(levels):
    hp = half_plane_right()
    target = lambda z: 1.0 / (z + 1.0) ** 2
    freqs = [-k / 8 for k in range(1, 9)]
    [fit] = least_squares_fit(target, hp, [freqs], n_nodes=2**10)
    assert levels == [approx._FIT_LEVEL]
    delta = fit.rho_refinement_delta
    assert len(levels) == 2 and fit.rho_refinement_delta == delta
    # the same arithmetic as the fit's own error, at radius (1 + rho)/2
    z = _full_circle(hp, approx._FIT_LEVEL + 1, 2**10)
    A = np.exp(np.multiply.outer(z, np.asarray([complex(l) for l in freqs])))
    coef = np.array([c for c, _ in fit.exp_sum.terms])
    err2 = float(np.sqrt(np.mean(np.abs(A @ coef - target(z)) ** 2)))
    assert delta == abs(err2 - fit.error)


def _budget_lists(demo):
    """The frequency lists of the halfplane demo (prefixes of the longest)
    and of the eta demo (the shorter one is every other entry)."""
    if demo == "halfplane":
        dom, target = half_plane_right(), lambda z: 1.0 / (z + 1.0) ** 2
        return dom, target, [[-k / 8 for k in range(1, m + 1)] for m in (6, 12, 24)]
    dom, target = eta_domain(1.0), lambda z: 1.0 / (z + 5.0)
    return dom, target, [[-0.45 * k / m for k in range(1, m + 1)] for m in (7, 14)]


@pytest.mark.parametrize("demo", ["halfplane", "eta"])
def test_list_form_equals_separate_fits_bit_for_bit(demo):
    dom, target, lists = _budget_lists(demo)
    together = least_squares_fit(target, dom, lists, n_nodes=2**10)
    for freqs, fit in zip(lists, together):
        [alone] = least_squares_fit(target, dom, [freqs], n_nodes=2**10)
        assert fit.error == alone.error
        assert fit.exp_sum.terms == alone.exp_sum.terms
        assert fit.rho_refinement_delta == alone.rho_refinement_delta


def test_list_form_transplants_once_per_radius(levels):
    dom, target, lists = _budget_lists("halfplane")
    fits = least_squares_fit(target, dom, lists, n_nodes=2**10)
    assert levels == [approx._FIT_LEVEL]
    assert math.isfinite(fits[-1].rho_refinement_delta)
    assert levels == [approx._FIT_LEVEL, approx._FIT_LEVEL + 1]
    # the refinement radius is read once for every fit of the call
    assert math.isfinite(fits[0].rho_refinement_delta)
    assert len(levels) == 2


@pytest.mark.parametrize(
    "dom", [half_plane_right(), eta_domain(1.0), eta_domain(0.5)], ids=lambda d: d.key
)
def test_mirrored_design_has_the_bits_of_the_full_exp(dom):
    # real frequencies on a domain with reflection +1: the lower half is
    # the conjugate mirror of the upper half, bit for bit, but for the sign
    # of the zero imaginary part at lam = 0 (the last column)
    z = _full_circle(dom, approx._FIT_LEVEL, 2**10)
    freqs = [complex(l) for l in [-0.45 * k / 14 for k in range(1, 15)] + [-3.0, 0.25, 0.0]]
    want = np.exp(np.multiply.outer(z, np.asarray(freqs)))
    got = approx._design(z, freqs, True)
    assert np.array_equal(got[:, :-1].view(np.int64), want[:, :-1].view(np.int64))
    assert np.array_equal(got[:, -1], want[:, -1])


@pytest.mark.parametrize("n_nodes", [0, -2, 3, 2**10 + 1])
def test_fit_rejects_an_odd_or_non_positive_node_count(n_nodes):
    with pytest.raises(ValueError, match=f"n_nodes must be positive and even, got {n_nodes}"):
        least_squares_fit(np.exp, half_plane_right(), [[-1.0]], n_nodes=n_nodes)


@pytest.mark.parametrize("dom", [half_plane_right(), eta_domain(1.0)], ids=lambda d: d.key)
def test_fit_nodes_are_within_8_ulps_of_a_200_bit_map(dom):
    # the upper half holds T at the float angles theta_k, the lower half T
    # at their conjugates -theta_k, both at radius rho and at the refinement radius
    pytest.importorskip("mpmath")
    from test_hardy_nodes import assert_within_8_ulps, half_circle_picks

    seen = []

    def target(z):
        seen.append(z)
        return np.zeros_like(z)

    n = 2**14
    [fit] = least_squares_fit(target, dom, [[-1.0]], n_nodes=n)
    fit.rho_refinement_delta  # reads the nodes at the refinement radius
    assert len(seen) == 2
    theta = (np.arange(n // 2) + 0.5) * (2.0 * math.pi / n)
    picks = half_circle_picks(n // 2)
    for j, z in zip((approx._FIT_LEVEL, approx._FIT_LEVEL + 1), seen):
        r = 1.0 - 2.0**-j
        assert_within_8_ulps(dom, r, theta[picks], z[picks])
        assert_within_8_ulps(dom, r, -theta[picks], z[n - 1 - picks])


@pytest.mark.parametrize("lists, bad", [
    ([[-1.0, -2.0, -3.0], [-1.0, -2.5]], 1),
    ([[-1.0, -2.0], [-1.0, -2.0, -3.0], [-3.0, -2.0, -4.0]], 2),
])
def test_list_outside_the_longest_is_rejected(lists, bad):
    target = lambda z: 1.0 / (z + 1.0) ** 2
    with pytest.raises(ValueError, match=f"frequency list {bad} is not a sub-list"):
        least_squares_fit(target, half_plane_right(), lists, n_nodes=2**6)


# -- the rational map ----------------------------------------------------------


def test_alpha_at_zero_by_series():
    assert abs(alpha_map(0.0) - 1.0 / 3.0) < 1e-12


def test_alpha_series_and_closed_form_agree_at_crossover():
    zs = 0.249 * np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
    closed = (-2.0 * np.exp(-zs) - 2.0 * zs + zs**2 + 2.0) / zs**3
    assert np.max(np.abs(alpha_map(zs) - closed)) < 1e-12


def test_alpha_matches_quadrature_at_random_points():
    rng = np.random.default_rng(42)
    zs = rng.normal(0, 2, 100) + 1j * rng.normal(0, 2, 100)
    assert np.max(np.abs(alpha_map(zs) - alpha_quadrature(zs))) < 1e-10


def test_alpha_quadrature_keeps_the_input_shape():
    a0 = alpha_quadrature(0.0)
    assert isinstance(a0, complex) and abs(a0 - 1.0 / 3.0) < 1e-14
    zs = np.array([[0.5, 1.0 - 2.0j, -3.0], [2.0j, 4.0, -1.0 + 1.0j]])
    grid = alpha_quadrature(zs)
    assert grid.shape == zs.shape
    assert np.max(np.abs(grid - alpha_map(zs))) < 1e-13


def test_alpha_quadrature_raises_past_its_node_cap(monkeypatch):
    from koenigslab import approx

    # e^{200 i lam} oscillates ~30 times on [-1, 0]: 64 nodes cannot settle it
    monkeypatch.setattr(approx, "_ALPHA_QUAD_MAX_NODES", 64)
    with pytest.raises(ArithmeticError):
        alpha_quadrature(np.array([0.5, 200j]))
    assert abs(alpha_quadrature(0.5) - alpha_map(0.5)) < 1e-14


@pytest.mark.parametrize("n", [256, 1024])
def test_newton_rule_matches_leggauss(n):
    assert n > approx._LEGGAUSS_MAX_N
    x, w = approx._gauss_legendre(n)
    ref_x, ref_w = np.polynomial.legendre.leggauss(n)
    # leggauss's own weights are off by up to ~1e-9 near the ends at n = 1024
    assert np.max(np.abs(x - ref_x)) <= math.ulp(1.0)
    assert np.max(np.abs(w - ref_w) / ref_w) < 1e-8
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    # exact for x^(2j), 2j < 2n
    moments = [np.sum(w * x ** (2 * j)) - 2.0 / (2 * j + 1) for j in range(40)]
    assert max(map(abs, moments)) < 1e-14


def test_small_rules_are_leggauss_bit_for_bit():
    # the rules every CLI demo and the benchmark's alpha check read
    for n in (12, 24, 48, 32, 64, 128):
        got, want = approx._gauss_legendre(n), np.polynomial.legendre.leggauss(n)
        assert all(np.array_equal(g, v) for g, v in zip(got, want))


def test_odd_newton_rule_has_the_node_zero():
    x, w = approx._newton_legendre(257)
    assert x[128] == 0.0 and np.all(np.diff(x) > 0)
    assert abs(np.sum(w) - 2.0) < 1e-14


def test_alpha_quadrature_rejects_a_start_above_half_the_cap():
    from koenigslab import approx

    cap = approx._ALPHA_QUAD_MAX_NODES
    for n in (0, cap // 2 + 1, 4000):
        with pytest.raises(ValueError, match=str(cap // 2)):
            alpha_quadrature(0.5, n=n)
    # the largest start still compares once (rounding grows with 4096 nodes)
    assert abs(alpha_quadrature(0.5, n=cap // 2) - alpha_map(0.5)) < 1e-12


def test_alpha_far_field_decay():
    assert abs(alpha_map(100.0) - 0.01) <= 0.05 * 0.01


def test_choose_b_and_univalence_for_log_demo():
    spec = LogDomainSpec(
        psi=parse_expression("-(1/2)*log(abs(y)+1)"),
        lip_bound=0.5,
        log_exponent=0.6,
        name="log_demo",
    )
    b = choose_b(spec)
    assert isinstance(b, int) and 1 <= b <= 64
    param = log_domain_boundary(spec, b)
    interior = [
        alpha_map(complex(float(spec.psi(t)) + b + 2.0, t)) for t in (-3.0, 0.0, 4.0)
    ]
    ok, details = univalence_winding_check(alpha_map, param, 2**14, interior)
    assert ok, details
    assert details["windings"] == [1, 1, 1] or details["windings"] == [-1, -1, -1]


def test_eta_derivative_bound_half_exponent():
    # |eta' - 1| < a on the right half-plane for the exponent-a family
    a = 0.5
    rng = np.random.default_rng(11)
    w = rng.uniform(0, 50, 10_000) + 1j * rng.uniform(-50, 50, 10_000)
    d = a * np.exp((a - 1.0) * np.log(np.log(w + 3.0))) / (w + 3.0)
    assert np.max(np.abs(d)) < a


def test_eta_boundary_curve_increasing():
    dom = eta_domain(1.0)
    t = np.linspace(-1000.0, 1000.0, 20001)
    w = 1j * t
    curve = w + 3.0
    beta_curve = np.imag(1j * t - np.log(curve))
    assert np.all(np.diff(beta_curve) > 0)


def test_poly_alpha_pipeline_matches_direct_evaluation():
    # expanding a polynomial in alpha(z + b) into an atomic transform must
    # reproduce the direct evaluation up to discretization error
    b = 3.0
    coeffs = [0.2, 1.0, -0.5, 0.25]  # degree 3
    mu, s = poly_alpha_exp_sum(coeffs, b, n_per_unit=128)
    zs = np.array([0.5, 1.0 + 1j, 2.0 - 0.5j, 4.0])
    direct = sum(c * alpha_map(zs + b) ** k for k, c in enumerate(coeffs))
    assert np.max(np.abs(s(zs) - direct)) < 5e-3


def test_pipeline_depth_capped():
    with pytest.raises(ValueError):
        poly_alpha_exp_sum([0.0] * 15, 2.0)


def test_log_domain_pipeline_demo_converges():
    from koenigslab.approx import log_domain_pipeline_demo

    spec = LogDomainSpec(
        psi=parse_expression("-(1/2)*log(abs(y)+1)"),
        lip_bound=0.5,
        log_exponent=0.6,
    )
    b, rows = log_domain_pipeline_demo(
        spec, lambda z: 1.0 / (z + 5.0), degrees=(2, 4, 8), n_boundary=1024
    )
    errs = [err for _, err, _ in rows]
    assert errs[1] < errs[0]
    assert errs[2] < 5e-3
    # the expanded measures stay compactly supported with the degree
    assert rows[-1][2].support_bound <= 8.0 + 1e-9


def test_pipeline_window_guard():
    from koenigslab.approx import log_domain_pipeline_demo

    spec = LogDomainSpec(
        psi=parse_expression("-(1/2)*log(abs(y)+1)"),
        lip_bound=0.5,
        log_exponent=0.6,
    )
    with pytest.raises(ValueError):
        log_domain_pipeline_demo(
            spec, lambda z: 1.0 / (z + 5.0), t_window=1e4, n_per_unit=64
        )
