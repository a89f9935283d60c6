"""The half-circle node layer of the membership oracle.

Each level builds only the upper half of the midpoint rule, in real
arithmetic from the Cayley point (``hardy.circle_nodes``), and reads the
lower half through ``CanonicalDomain.reflection``.  These tests check the
nodes against a 200-bit reference, the reflection identity of every
canonical map, compare the half-circle log-mean with the full-circle
formula, check that a frequency and its reflection give bit-identical
answers, that the node cache answers each domain from its own nodes,
that the cached nodes cannot be written into, and that Im T is built once
per level, only when a query reads it.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from koenigslab import hardy
from koenigslab.hardy import (
    eta_domain,
    half_plane_right,
    hardy_membership,
    horizontal_half_plane,
    strip_width_pi,
)

DOMAINS = (
    half_plane_right(),
    strip_width_pi(),
    eta_domain(1.0),
    eta_domain(0.5),
    horizontal_half_plane(0.0, "upper"),
    horizontal_half_plane(0.7, "lower"),
)
IDS = [d.key for d in DOMAINS]


def test_reflection_values():
    assert [d.reflection for d in DOMAINS] == [1.0, 1.0, 1.0, 1.0, -1.0, -1.0]
    for edge in (-2.0, 0.0, 3.5):
        for side in ("upper", "lower"):
            assert horizontal_half_plane(edge, side).reflection == -1.0


def cayley_point(r, theta):
    """(Re w, Im w) of w = (1 + u)/(1 - u) at u = r e^{i theta}, from
    |1 - u|^2 = (1 - r)^2 + 4 r sin^2(theta/2)."""
    h = 1.0 - r
    d = h * h + 4.0 * r * np.sin(0.5 * theta) ** 2
    return h * (1.0 + r) / d, 2.0 * r * np.sin(theta) / d


def apply_maps(dom, x, y):
    """(Re T, Im T) at the Cayley point (x, y); each map gets its own
    copies, since a map may overwrite its arguments."""
    return dom.re_map(x.copy(), y.copy()), dom.im_map(x.copy(), y.copy())


@pytest.mark.parametrize("dom", DOMAINS, ids=IDS)
def test_real_map_of_conjugate_is_reflected_conjugate_bit_for_bit(dom):
    _, r, n = list(dom.plan.levels())[-1]
    x, y = cayley_point(r, (np.arange(n // 2) + 0.5) * (2.0 * math.pi / n))
    re, im = apply_maps(dom, x, y)
    got_re, got_im = apply_maps(dom, x, -y)
    assert np.array_equal(got_re, dom.reflection * re)
    assert np.array_equal(got_im, -dom.reflection * im)


def mp_map(dom, w):
    """T at the Cayley point w, in mpmath, for the domains above."""
    import mpmath

    kind, _, params = dom.key.partition(":")
    if kind == "half_plane_right":
        return w
    if kind == "strip_width_pi":
        return mpmath.log(w)
    if kind == "eta_domain":
        return w - mpmath.log(w + 3) ** mpmath.mpf(float(params))
    edge, side = params.split(":")
    return 1j * mpmath.mpf(float(edge)) + (1 if side == "upper" else -1) * 1j * w


def half_circle_picks(m):
    """Both ends of a half circle of m nodes and 48 nodes spread between them."""
    return np.unique(np.r_[
        np.arange(min(m, 48)), np.linspace(0, m - 1, 48).astype(int), np.arange(max(0, m - 48), m)
    ])


def assert_within_8_ulps(dom, r, theta, z):
    """Each z[k] is T at u = r e^{i theta[k]}, within 8 ulps of |T|."""
    import mpmath

    with mpmath.workprec(200):
        for k, (t, zk) in enumerate(zip(theta, z)):
            u = mpmath.mpf(r) * mpmath.expj(mpmath.mpf(float(t)))
            T = mp_map(dom, (1 + u) / (1 - u))
            err = abs(mpmath.mpc(float(zk.real), float(zk.imag)) - T)
            assert err <= 8 * math.ulp(float(abs(T))), (r, float(t), k)


@pytest.mark.parametrize("dom", DOMAINS, ids=IDS)
def test_nodes_are_within_8_ulps_of_a_200_bit_map(dom):
    # the rule's nodes are the float angles theta_k; T is evaluated there
    pytest.importorskip("mpmath")
    hardy._node_cache.clear()
    levels = list(dom.plan.levels())
    for j, r, n in (levels[0], levels[len(levels) // 2], levels[-1]):
        x, y = hardy.circle_nodes(dom, j, n)
        theta = (np.arange(n // 2) + 0.5) * (2.0 * math.pi / n)
        picks = half_circle_picks(n // 2)
        assert_within_8_ulps(dom, r, theta[picks], x[picks] + 1j * y[picks])


def full_circle_log_mean(dom, lam, p, r, n):
    """The log p-th power mean over all n midpoint nodes of |u| = r."""
    theta = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    x, y = apply_maps(dom, *cayley_point(r, theta))
    L = p * (lam.real * x - lam.imag * y)
    Lmax = float(np.max(L))
    return Lmax + math.log(float(np.mean(np.exp(L - Lmax))))


LAMBDAS = (-0.75, 0.3, -1j, 2j, -0.3 + 0.35j)
P_VALUES = (1.0, 2.0, 2.5)


@pytest.mark.parametrize("dom", DOMAINS, ids=IDS)
def test_half_circle_log_mean_matches_full_circle(dom):
    levels = list(dom.plan.levels())
    for j, r, n in (levels[0], levels[-1]):
        for lam in map(complex, LAMBDAS):
            for p in P_VALUES:
                want = full_circle_log_mean(dom, lam, p, r, n)
                got = hardy._log_mean(dom, lam, p, j, n)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12), (j, lam, p)


def test_the_node_cache_keys_on_the_domain_not_its_name():
    eta = eta_domain(1.0)
    plane = half_plane_right()
    twin = dataclasses.replace(eta, re_map=plane.re_map, im_map=plane.im_map)
    assert twin.key == eta.key
    hardy._node_cache.clear()
    eta_means = hardy_membership(-0.5, eta, 1.0).log_means
    twin_means = hardy_membership(-0.5, twin, 1.0).log_means
    hardy._node_cache.clear()
    assert twin_means == hardy_membership(-0.5, twin, 1.0).log_means
    assert twin_means[0] != eta_means[0]


@pytest.mark.parametrize("dom", DOMAINS, ids=IDS)
def test_cached_nodes_are_read_only(dom):
    j, _, n = next(dom.plan.levels())
    for a in hardy.circle_nodes(dom, j, n):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    x, _ = hardy.circle_nodes(dom, j, n)
    assert x is hardy.circle_nodes(dom, j, n)[0]


@pytest.mark.parametrize(
    "dom", [half_plane_right(), strip_width_pi(), eta_domain(1.0)], ids=lambda d: d.key
)
def test_im_t_is_built_once_per_level_and_only_when_read(dom, monkeypatch):
    # a twin whose im_map logs the nodes it maps; being another domain, it
    # has nodes of its own in the cache.  A level's Im T may be mapped on
    # two lanes, so each build is logged by level where ``_mapped`` runs it
    mapped, built = [], []

    def im_map(x, y):
        mapped.append(x.size)
        return dom.im_map(x, y)

    def logged_build(map_, j, n):
        if map_ is im_map:
            built.append((j, n))
        return build(map_, j, n)

    build = hardy._mapped
    monkeypatch.setattr(hardy, "_mapped", logged_build)
    twin = dataclasses.replace(dom, im_map=im_map)
    hardy._node_cache.clear()
    real = [hardy_membership(lam, twin, p) for lam in (-0.75, -0.3, 0.3) for p in (1.0, 2.0)]
    assert built == [] and mapped == []
    assert max(res.levels_used for res in real) == len(list(dom.plan.levels()))
    complex_means = [hardy_membership(-0.3 + 0.35j, twin, p).log_means for p in (2.0, 2.0, 1.0)]
    visited = max(map(len, complex_means))
    levels = [(j, n) for j, _, n in itertools.islice(dom.plan.levels(), visited)]
    assert built == levels
    assert sum(mapped) == sum(n // 2 for _, n in levels)
    # the twin's answers are the domain's own, bit for bit
    hardy._node_cache.clear()
    assert [r.log_means for r in real] == [
        hardy_membership(lam, dom, p).log_means for lam in (-0.75, -0.3, 0.3) for p in (1.0, 2.0)
    ]
    assert complex_means == [hardy_membership(-0.3 + 0.35j, dom, p).log_means for p in (2.0, 2.0, 1.0)]


COORDS = st.sampled_from((-1.5, -0.75, -0.3, -0.0, 0.0, 0.35, 1.0))


@given(st.sampled_from(DOMAINS), COORDS, COORDS, st.sampled_from((1.0, 2.0)))
@settings(max_examples=40, deadline=None)
def test_reflected_frequency_gives_identical_means(dom, re, im, p):
    # the two half circles swap, and a sum of two floats commutes
    lam = complex(re, im)
    mirrored = complex(dom.reflection * re, -dom.reflection * im)
    a = hardy_membership(lam, dom, p)
    b = hardy_membership(mirrored, dom, p)
    assert a.status == b.status
    assert a.log_means == b.log_means


def end_angles(dom):
    """The angle of each declared end, in units of pi: the strip's ends sit
    at theta = 0 and pi, every other end at theta = 0, where the Cayley
    point w = (1 + u)/(1 - u) is infinite."""
    return (0, 1) if dom.key == "strip_width_pi" else (0,) * len(dom.ends)


def pole_remainder_bound(dom, theta):
    """The docstring bound on g = T - c w of each pole end at u = e^{i theta}:
    0 for the right half-plane, |edge| for a horizontal one (g = i edge)
    and, for eta_a, (log(8/|1-u|) + pi/2)^a with |1-u| = 2|sin(theta/2)|."""
    import mpmath

    kind, _, params = dom.key.partition(":")
    if kind == "eta_domain":
        gap = 2 * abs(mpmath.sin(theta / 2))
        return (mpmath.log(8 / gap) + mpmath.pi / 2) ** mpmath.mpf(float(params))
    if kind == "horizontal_half_plane":
        return abs(float(params.split(":")[0]))
    return 0


@pytest.mark.parametrize("dom", DOMAINS, ids=IDS)
def test_declared_ends_hold_far_beyond_float_reach(dom):
    # T on the boundary at arc distance delta from each end, for delta down
    # to 1e-300 (log 1/delta ~ 690, where quadrature reaches ~16): at a
    # LogEnd(k, a), Re T - k (log 1/delta)^a stays bounded; at a
    # PoleEnd(c), |T - c w| obeys its docstring bound.  On |u| = 1,
    # w = i cot(theta/2) exactly.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(2400):
        for end, angle in zip(dom.ends, end_angles(dom)):
            for e in range(20, 301, 40):
                delta = mpmath.mpf(10) ** -e
                for side in (-1, 1):
                    theta = angle * mpmath.pi + side * delta
                    w = 1j * mpmath.cot(theta / 2)
                    T = mp_map(dom, w)
                    if isinstance(end, hardy.LogEnd):
                        drift = T.real - end.k * mpmath.log(1 / delta) ** mpmath.mpf(end.a)
                        assert abs(drift) <= 2, (end, e, side, float(drift))
                    else:
                        g = abs(T - complex(end.c) * w)
                        bound = pole_remainder_bound(dom, theta)
                        assert g <= bound + mpmath.mpf(10) ** -100, (end, e, side)
