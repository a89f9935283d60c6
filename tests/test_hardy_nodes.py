"""The half-circle node layer of the membership oracle.

Each level transplants only the upper half of the midpoint rule and reads
the lower half through ``CanonicalDomain.reflection``.  These tests check
the reflection identity of every canonical transplant, compare the
half-circle log-mean with the full-circle formula, and check that a
frequency and its reflection give bit-identical answers.
"""

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


@pytest.mark.parametrize("dom", DOMAINS, ids=IDS)
def test_transplant_of_conjugate_is_reflected_conjugate(dom):
    u = 0.9 * np.exp(1j * (np.arange(64) + 0.3) * (2.0 * math.pi / 64))
    got = dom.transplant(np.conj(u))
    want = dom.reflection * np.conj(dom.transplant(u))
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def full_circle_log_mean(dom, lam, p, r, n):
    """The log p-th power mean over all n midpoint nodes of |u| = r."""
    theta = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    w = dom.transplant(r * np.exp(1j * theta))
    L = p * (lam.real * w.real - lam.imag * w.imag)
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
                got = hardy._log_mean(dom, lam, p, j, r, n)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12), (j, lam, p)


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
