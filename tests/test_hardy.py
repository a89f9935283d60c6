import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from koenigslab import TriState, hardy
from koenigslab.battery import battery_entry, eta_domain_psi
from koenigslab.hardy import (
    INCONCLUSIVE,
    MEMBER,
    NON_MEMBER,
    betsakos_band,
    eta_domain,
    exact_membership,
    half_plane_right,
    hardy_membership,
    horizontal_half_plane,
    lambda_infty,
    scaling_law_check,
    strip_width_pi,
)


@pytest.fixture(scope="module")
def domains():
    return {
        "hp": half_plane_right(),
        "strip": strip_width_pi(),
        "eta": eta_domain(1.0),
        "eta_half": eta_domain(0.5),
        "upper": horizontal_half_plane(0.0, "upper"),
    }


# -- membership oracle ---------------------------------------------------


def test_zero_is_member_everywhere(domains):
    for dom in domains.values():
        assert hardy_membership(0.0, dom, 1.0).status == MEMBER
        assert hardy_membership(0.0, dom, 2.0).status == MEMBER


def test_half_plane_negative_ray(domains):
    hp = domains["hp"]
    for lam in (-0.25, -1.0, -5.0):
        assert hardy_membership(lam, hp, 2.0).status == MEMBER
    for lam in (0.5, 1.0):
        assert hardy_membership(lam, hp, 2.0).status == NON_MEMBER
    # off the real axis the boundary modulus grows exponentially
    assert hardy_membership(-1 + 0.5j, hp, 2.0).status == NON_MEMBER
    assert hardy_membership(0.5j, hp, 2.0).status == NON_MEMBER


def test_strip_band(domains):
    st = domains["strip"]
    # |Re lam| < 1/p inside, beyond it outside
    assert hardy_membership(0.3, st, 2.0).status == MEMBER
    assert hardy_membership(-0.45, st, 2.0).status == MEMBER
    assert hardy_membership(0.7, st, 2.0).status == NON_MEMBER
    assert hardy_membership(0.9, st, 1.0).status == MEMBER
    assert hardy_membership(1.2, st, 1.0).status == NON_MEMBER
    # the imaginary axis is always admissible
    for v in (0.5, -1.0, 5.0):
        assert hardy_membership(complex(0, v), st, 2.0).status == MEMBER
    assert hardy_membership(0.3 + 2j, st, 2.0).status == MEMBER


def test_upper_half_plane_vertical_ray(domains):
    uh = domains["upper"]
    assert hardy_membership(1j, uh, 2.0).status == MEMBER
    assert hardy_membership(3j, uh, 1.0).status == MEMBER
    assert hardy_membership(-1j, uh, 2.0).status == NON_MEMBER
    assert hardy_membership(-0.5, uh, 2.0).status == NON_MEMBER


def test_eta_bounded_interval(domains):
    # admissible frequencies for p = 1 fill (-1, 0]; -1 itself may stay
    # undecided (the boundary integral diverges only logarithmically)
    eta = domains["eta"]
    for lam in (-0.25, -0.5, -0.75):
        assert hardy_membership(lam, eta, 1.0).status == MEMBER
    for lam in (-1.25, -1.5):
        assert hardy_membership(lam, eta, 1.0).status == NON_MEMBER
    assert hardy_membership(-1.0, eta, 1.0).status in (INCONCLUSIVE, NON_MEMBER)
    assert hardy_membership(-0.3j, eta, 1.0).status == NON_MEMBER


def test_monotonicity_in_p(domains):
    # membership at a larger p implies membership at a smaller p
    st = domains["strip"]
    for lam in (0.3, 0.45, 5j):
        if hardy_membership(lam, st, 2.0).status == MEMBER:
            assert hardy_membership(lam, st, 1.0).status == MEMBER
    eta = domains["eta"]
    if hardy_membership(-0.25, eta, 2.0).status == MEMBER:
        assert hardy_membership(-0.25, eta, 1.0).status == MEMBER


def test_sampled_convexity_strip(domains):
    st = domains["strip"]
    pairs = [(-0.4, 0.4), (-0.4 + 1j, 0.4 - 1j), (0.0, 0.45)]
    for a, b in pairs:
        sa = hardy_membership(a, st, 2.0).status
        sb = hardy_membership(b, st, 2.0).status
        sm = hardy_membership(0.5 * (complex(a) + complex(b)), st, 2.0).status
        if sa == MEMBER and sb == MEMBER and sm != INCONCLUSIVE:
            assert sm == MEMBER


def test_scaling_law(domains):
    rep = scaling_law_check(domains["hp"], 1.0, 2.0, [-2.0, -1.0, -0.5, 0.0])
    assert not rep["mismatch"]
    rep2 = scaling_law_check(
        domains["eta"], 1.0, 2.0, [-1.5, -1.25, -0.75, -0.5, -0.25, 0.0]
    )
    assert not rep2["mismatch"]


def test_domain_monotonicity_eta_family(domains):
    # the exponent-1 domain contains the exponent-1/2 domain, so its
    # admissible set is the smaller one
    psi_half = eta_domain_psi(0.5, "etah")
    psi_one = eta_domain_psi(1.0, "eta1")
    ys = np.linspace(-30, 30, 61)
    v_half = np.array([psi_half.value(float(y)) for y in ys])
    v_one = np.array([psi_one.value(float(y)) for y in ys])
    assert np.all(v_one <= v_half + 1e-9)
    for lam in (-0.5, -0.75):
        if hardy_membership(lam, domains["eta"], 1.0).status == MEMBER:
            assert hardy_membership(lam, domains["eta_half"], 1.0).status == MEMBER
    # the smaller domain keeps frequencies the bigger one rejects
    assert hardy_membership(-1.5, domains["eta"], 1.0).status == NON_MEMBER
    assert hardy_membership(-1.5, domains["eta_half"], 1.0).status == MEMBER


def test_eta_exponent_validation():
    with pytest.raises(ValueError):
        eta_domain(1.5)


def test_compute_budget_bounds_work():
    res = hardy_membership(-0.75, eta_domain(1.0), 1.0, budget=2**10)
    assert res.status == INCONCLUSIVE
    assert "budget" in res.certificate


def test_budgeted_result_is_not_served_to_unbudgeted_call():
    capped = hardy_membership(-0.5, half_plane_right(), 2, budget=100)
    assert capped.status == INCONCLUSIVE
    assert hardy_membership(-0.5, half_plane_right(), 2).status == MEMBER


# -- betsakos band --------------------------------------------------------


def test_band_brackets_scale_with_p(domains):
    b1 = betsakos_band(domains["strip"], 1.0)
    b2 = betsakos_band(domains["strip"], 2.0)
    for key in ("c1_bracket", "c2_bracket"):
        lo1, hi1 = b1[key]
        lo2, hi2 = b2[key]
        # the band constants (scaled by p) must overlap between p = 1, 2
        assert max(lo1, lo2) <= min(hi1, hi2)
    # symmetry of the centered strip: c1 and c2 agree within 10%
    mid1 = 0.5 * (b1["c1_bracket"][0] + b1["c1_bracket"][1])
    mid2 = 0.5 * (b1["c2_bracket"][0] + b1["c2_bracket"][1])
    assert abs(mid1 - mid2) <= 0.1 * max(mid1, mid2)
    assert all(s == MEMBER for s in b1["imaginary_axis"].values())


# -- exact region -----------------------------------------------------------


def test_region_full_strip_is_vertical_axis():
    # the full strip has psi = -inf on a bounded interval: only vertical
    # directions remain
    from koenigslab import MinusInfinity, PiecewiseDefiningFunction

    psi = PiecewiseDefiningFunction(
        -np.pi / 2, np.pi / 2, (MinusInfinity(span=(-np.pi / 2, np.pi / 2)),)
    )
    reg = lambda_infty(psi)
    assert reg.contains(1j) is TriState.YES
    assert reg.contains(-3j) is TriState.YES
    assert reg.contains(-1.0) is TriState.NO
    assert reg.contains(0.0) is TriState.YES
    assert reg.exact


def test_region_half_plane_is_negative_ray():
    reg = lambda_infty(battery_entry("half_plane").psi)
    assert reg.contains(-2.0) is TriState.YES
    assert reg.contains(-2.0 + 0.1j) is TriState.NO
    assert reg.contains(1j) is TriState.NO
    assert reg.contains(0.5) is TriState.NO
    assert reg.exact


def test_region_upper_half_plane_is_up_ray():
    reg = lambda_infty(battery_entry("upper_half_plane").psi)
    assert reg.contains(2j) is TriState.YES
    assert reg.contains(-2j) is TriState.NO
    assert reg.contains(-1.0) is TriState.NO


def test_region_rays_closed_under_positive_scaling():
    for name in ("half_plane", "upper_half_plane", "strip"):
        reg = lambda_infty(battery_entry(name).psi)
        for lam in (-1.0, 1j, -1j, -2 + 1j):
            if reg.contains(lam) is TriState.YES:
                for t in (0.5, 2.0, 7.0):
                    assert reg.contains(t * lam) is TriState.YES


def test_log_pow_lower_envelope_gives_open_slope_interval():
    # psi = -y below 0 and -log(y+1) above: the log_pow lower envelope on
    # the upper tail admits exactly the slopes m < 0, the affine one on the
    # lower tail the slopes m >= -1, so left directions exist
    from koenigslab.specio import psi_from_dict

    psi = psi_from_dict({
        "interval": ["-inf", "inf"],
        "pieces": [
            {"kind": "finite_analytic", "span": ["-inf", 0.0], "expr": "-y",
             "limits": {"right": {"liminf": 0.0, "limsup": 0.0}},
             "tail_lower": {"kind": "affine", "m": -1.0, "c": 0.0}},
            {"kind": "finite_analytic", "span": [0.0, "inf"], "expr": "-log(y+1)",
             "limits": {"left": {"liminf": 0.0, "limsup": 0.0}},
             "tail_lower": {"kind": "log_pow", "C": 1.0, "a": 1.0, "D": 0.0}},
        ],
    })
    reg = lambda_infty(psi)
    assert reg.left_directions is TriState.YES
    assert reg.slopes_feasible == (-1.0, -5e-324)
    # lam = u + iv with u < 0 has slope v / u
    assert reg.contains(-1.0 + 0.5j) is TriState.YES  # m = -0.5
    assert reg.contains(-1.0 + 1.0j) is TriState.YES  # m = -1
    assert reg.contains(-1.0 + 2.0j) is TriState.UNKNOWN  # m = -2
    assert reg.contains(-1.0) is TriState.UNKNOWN  # m = 0, excluded from feasible



NAN, INF = float("nan"), float("inf")
ROUTES = (hardy_membership, exact_membership)


@pytest.mark.parametrize("lam, p", [(NAN, 2.0), (complex(-1.0, INF), 2.0), (-1.0, NAN), (-1.0, INF)])
def test_non_finite_input_is_rejected(domains, lam, p):
    for route in ROUTES:
        with pytest.raises(ValueError, match="finite"):
            route(lam, domains["strip"], p)


@pytest.mark.parametrize("p", [0.5, 0.0, -1.0])
def test_p_below_one_is_rejected(domains, p):
    for route in ROUTES:
        with pytest.raises(ValueError, match="p must be at least 1"):
            route(-1.0, domains["strip"], p)


def test_both_routes_share_one_input_check(domains, monkeypatch):
    class Refused(Exception):
        pass

    def refuse(lam, p):
        raise Refused

    monkeypatch.setattr(hardy, "_check_query", refuse)
    for route in ROUTES:
        with pytest.raises(Refused):
            route(-0.5, domains["strip"], 2.0)


# -- the exact route ----------------------------------------------------------

CANONICAL = {
    d.key: d
    for d in (
        half_plane_right(),
        horizontal_half_plane(0.0, "upper"),
        strip_width_pi(),
        eta_domain(1.0),
        eta_domain(0.5),
    )
}
REAL_LATTICE = tuple(complex(-2.0 + (k + 0.5) / 32.0, 0.0) for k in range(80))
BOX_LATTICE = tuple(
    complex(-2.0 + (i + 0.5) / 16.0, -1.0 + (j + 0.5) / 16.0) for i in range(40) for j in range(32)
)
STATUS = {MEMBER: "M", NON_MEMBER: "n"}


def closed_form(key, lam, p):
    """The H^p frequencies of each canonical domain, written out."""
    if key == "half_plane_right":
        return lam.imag == 0.0 and lam.real <= 0.0
    if key == "horizontal_half_plane:0.0:upper":
        return lam.real == 0.0 and lam.imag >= 0.0
    if key == "strip_width_pi":
        return abs(lam.real) < 1.0 / p
    if key == "eta_domain:1.0":
        return lam.imag == 0.0 and -1.0 / p < lam.real <= 0.0
    assert key == "eta_domain:0.5"
    return lam.imag == 0.0 and lam.real <= 0.0


def test_exact_route_agrees_with_every_definite_quadrature_status():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "freq_lattice_golden.json")
    with open(path, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert len(golden) == 2 * len(CANONICAL)
    for row, codes in golden.items():
        key, p = row.rsplit("|", 1)
        for lam, code in zip(REAL_LATTICE, codes):
            if code != "?":
                assert STATUS[exact_membership(lam, CANONICAL[key], float(p)).status] == code, (row, lam)


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("key", sorted(CANONICAL))
def test_exact_route_matches_the_closed_forms(key, p):
    for lam in (0.0,) + REAL_LATTICE + BOX_LATTICE:
        want = MEMBER if closed_form(key, lam, p) else NON_MEMBER
        assert exact_membership(lam, CANONICAL[key], p).status == want, lam


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_exact_route_decides_the_boundary_points(domains, p):
    # the boundary integral diverges logarithmically on eta_1 and the strip
    assert exact_membership(-1.0 / p, domains["eta"], p).status == NON_MEMBER
    assert exact_membership(-1.0 / p + 1e-9, domains["eta"], p).status == MEMBER
    for lam in (1.0 / p, -1.0 / p, complex(1.0 / p, 2.0), complex(-1.0 / p, -3.0)):
        assert exact_membership(lam, domains["strip"], p).status == NON_MEMBER
    # Re eta_half(it) ~ -(log|t|)^(1/2): every real lam <= 0 is admissible
    assert exact_membership(-1.5, domains["eta_half"], p).status == MEMBER


def test_lower_half_plane_is_the_mirrored_ray():
    for edge in (0.0, 2.0):
        lower = horizontal_half_plane(edge, "lower")
        for s in (0.25, 1.0, 3.0):
            assert exact_membership(complex(0.0, -s), lower, 2.0).status == MEMBER
            for lam in (complex(0.0, s), -s, s, complex(-s, -s)):
                assert exact_membership(lam, lower, 2.0).status == NON_MEMBER
    assert hardy_membership(-1j, horizontal_half_plane(0.0, "lower"), 2.0).status == MEMBER


def test_exact_route_names_the_end_that_excludes_lam(domains):
    res = exact_membership(-1.25, domains["eta"], 1.0)
    assert res.status == NON_MEMBER and "logarithmic end" in res.certificate
    res = exact_membership(-0.3j, domains["eta"], 1.0)
    assert res.status == NON_MEMBER and "pole end" in res.certificate
    assert exact_membership(-0.5, domains["eta"], 1.0).levels_used == 0


# -- metamorphic checks of the exact route ---------------------------------

# lam on a box, with the real axis and the lattice points drawn often
BOX_COORD = st.one_of(
    st.just(0.0), st.integers(-8, 8).map(lambda k: k / 4.0), st.floats(-4.0, 4.0)
)
LAMS = st.builds(complex, BOX_COORD, BOX_COORD)
ETA_A = st.floats(0.0, 1.0, exclude_min=True)
EDGES = st.floats(-1e3, 1e3)
SIDES = st.sampled_from(["upper", "lower"])
DOMAINS = st.one_of(
    st.just(half_plane_right()),
    st.just(strip_width_pi()),
    st.builds(horizontal_half_plane, EDGES, SIDES),
    st.builds(eta_domain, ETA_A),
)


@st.composite
def exponent_pairs(draw):
    """1 <= p < q <= 4."""
    p = draw(st.floats(1.0, 4.0, exclude_max=True))
    return p, draw(st.floats(p, 4.0, exclude_min=True))


@given(DOMAINS, LAMS, exponent_pairs())
@settings(max_examples=300, deadline=None)
def test_exact_members_in_h_q_are_members_in_h_p(dom, lam, pq):
    p, q = pq
    if exact_membership(lam, dom, q).status == MEMBER:
        assert exact_membership(lam, dom, p).status == MEMBER


@given(EDGES, SIDES, LAMS, st.floats(1.0, 4.0))
@settings(max_examples=300, deadline=None)
def test_horizontal_half_plane_answers_do_not_depend_on_the_edge(edge, side, lam, p):
    moved = exact_membership(lam, horizontal_half_plane(edge, side), p)
    assert moved.status == exact_membership(lam, horizontal_half_plane(0.0, side), p).status


@given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), LAMS, st.floats(1.0, 4.0))
@settings(max_examples=300, deadline=None)
def test_eta_below_one_admits_exactly_the_real_nonpositive_lambdas(a, lam, p):
    member = exact_membership(lam, eta_domain(a), p).status == MEMBER
    assert member == (lam.imag == 0.0 and lam.real <= 0.0)
