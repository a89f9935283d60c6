"""Two lanes: ``hardy.two_lanes`` and its callers.

The oracle's level nodes (Re T and Im T), the fit's design matrix, the
fit's conjugate copy and, when BLAS runs one thread, the fit's Gram
matrix are built on two lanes of one preallocated array, the upper lane
on a short-lived thread.  These tests check that every element keeps the
bits one lane gives it, on both sides of ``hardy._LANE_MIN``, that the
Gram takes lanes only under a one-thread BLAS, and that the helper raises
a lane's exception in the caller, keeps the caller's ``np.errstate`` on
its thread, starts no thread below the threshold and gives no lane fewer
than two rows.  They pass under either BLAS thread count.
"""

import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from koenigslab import approx, hardy
from koenigslab.hardy import eta_domain, half_plane_right
from test_hardy_nodes import DOMAINS

LEVEL_DOMAINS = DOMAINS + (eta_domain(0.75),)
# node counts n whose upper half n/2 lies below, at and above the threshold
NODE_COUNTS = (hardy._LANE_MIN, 2 * hardy._LANE_MIN, 8 * hardy._LANE_MIN)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(
        a.view(np.uint8), b.view(np.uint8)
    )


@pytest.mark.parametrize("n", NODE_COUNTS)
@pytest.mark.parametrize("dom", LEVEL_DOMAINS, ids=lambda d: d.key)
def test_level_nodes_on_two_lanes_have_the_bits_of_one_lane(dom, n):
    j = 12
    level = hardy._Level(dom, j, n)
    one_lane = lambda: hardy._cayley_point(j, *hardy._half_circle_sines(n))
    assert same_bits(level.re, dom.re_map(*one_lane()))
    assert same_bits(level.im, dom.im_map(*one_lane()))
    assert (level.re_min, level.re_max) == (level.re.min(), level.re.max())


def fit_nodes(dom, n_nodes):
    """The fit's nodes: the upper half circle, then its mirror."""
    x, y = hardy.circle_nodes(dom, approx._FIT_LEVEL, n_nodes)
    up = x + 1j * y
    return np.concatenate((up, dom.reflection * np.conj(up[::-1])))


def one_lane_design(z, freqs, mirrored):
    A = np.multiply.outer(z, np.asarray(freqs))
    h = len(z) // 2 if mirrored else len(z)
    np.exp(A[:h], out=A[:h])
    if mirrored:
        np.conjugate(A[h - 1 :: -1], out=A[h:])
    return A


@pytest.mark.parametrize("n_nodes", [2**10, 2**13])
@pytest.mark.parametrize("mirrored", [False, True])
def test_design_on_two_lanes_has_the_bits_of_one_lane(mirrored, n_nodes):
    # 2^10 nodes by 17 frequencies is below the threshold, 2^13 above it
    z = fit_nodes(half_plane_right(), n_nodes)
    freqs = [complex(l) for l in [-0.45 * k / 14 for k in range(1, 15)] + [-3.0, 0.25, 0.0]]
    if not mirrored:
        freqs[3] = complex(-0.3, 0.35)
    assert same_bits(approx._design(z, freqs, mirrored), one_lane_design(z, freqs, mirrored))


def fit_design(dom, freqs):
    """The fit's design on its 2^14 nodes, built as ``least_squares_fit``
    builds it for these real frequencies."""
    return approx._design(fit_nodes(dom, 2**14), [complex(l) for l in freqs], dom.reflection > 0)


# the longest list of the halfplane and eta demos' default budgets; a
# Gram of m frequencies reads the first m columns
GRAM_DESIGNS = {
    "halfplane": lambda: fit_design(half_plane_right(), [-k / 8 for k in range(1, 257)]),
    "eta1": lambda: fit_design(eta_domain(1.0), [-0.45 * k / 256 for k in range(1, 257)]),
}


@pytest.mark.parametrize("design", sorted(GRAM_DESIGNS))
def test_gram_on_two_lanes_has_the_bits_of_one_product(monkeypatch, design):
    # a lane of one row would go to gemv, which sums in another order;
    # the Gram takes lanes whatever threads this process's BLAS runs
    monkeypatch.setattr(approx, "_blas_threads", lambda: 1)
    A_full = GRAM_DESIGNS[design]()
    b = A_full[:, 0] + 1.0
    for m in [*range(1, 41), 64, 128, 256]:
        A = np.take(A_full, range(m), axis=1)
        G, rhs = approx._normal_equations(A, b)
        Ah = np.conjugate(A).T
        assert same_bits(G, (Ah @ A) / len(b)), m
        assert same_bits(rhs, (Ah @ b) / len(b)), m


@pytest.mark.parametrize("threads", [1, 2, None])
def test_gram_runs_on_lanes_only_when_blas_runs_one_thread(monkeypatch, threads):
    A = fit_design(half_plane_right(), [-k / 8 for k in range(1, 65)])
    b = A[:, 0] + 1.0
    lanes = []
    run = approx.two_lanes
    monkeypatch.setattr(approx, "two_lanes", lambda fn, n, width=1: (lanes.append(n), run(fn, n, width)))
    monkeypatch.setattr(approx, "_blas_threads", lambda: threads)
    G, _ = approx._normal_equations(A, b)
    # the conjugate copy on its 2^14 rows, then the Gram on its 64
    assert lanes == ([2**14, 64] if threads == 1 else [2**14])
    assert same_bits(G, (np.conjugate(A).T @ A) / len(b))


def numpy_bundles_openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return blas.get("name") == "scipy-openblas"


@pytest.mark.skipif(not numpy_bundles_openblas(), reason="numpy does not bundle scipy-openblas")
def test_blas_threads_reads_a_pinned_openblas():
    # a failed lookup would read None and quietly give up the Gram's lanes
    src = os.path.dirname(os.path.dirname(approx.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", "from koenigslab import approx; print(approx._blas_threads())"],
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert proc.stdout.strip() == "1"
    assert approx._blas_threads() >= 1


def lane_log(n, width=1):
    """The lanes ``two_lanes`` runs on n rows: (slice, on the caller's thread)."""
    ran = []
    caller = threading.get_ident()
    hardy.two_lanes(lambda rows: ran.append((rows, threading.get_ident() == caller)), n, width)
    return sorted(ran, key=lambda lane: lane[0].start)


def test_no_thread_starts_below_the_threshold():
    threads = threading.active_count()
    n, rows = hardy._LANE_MIN, hardy._LANE_MIN // 4
    assert lane_log(n - 1) == [(slice(0, n - 1), True)]
    assert lane_log(rows - 1, 4) == [(slice(0, rows - 1), True)]
    # from the threshold on, the upper half runs on another thread
    assert lane_log(n) == [(slice(0, n // 2), True), (slice(n // 2, n), False)]
    assert lane_log(rows, 4) == [(slice(0, rows // 2), True), (slice(rows // 2, rows), False)]
    # and that thread has ended when the call returns
    assert threading.active_count() == threads


def test_an_exception_on_the_upper_lane_is_raised_in_the_caller():
    def fn(rows):
        if rows.start > 0:
            raise KeyError(f"lane {rows.start}")

    with pytest.raises(KeyError, match=f"lane {hardy._LANE_MIN // 2}"):
        hardy.two_lanes(fn, hardy._LANE_MIN)


def test_the_upper_lane_runs_under_the_callers_errstate():
    # only the upper lane overflows, on its own thread, which starts from
    # numpy's default errstate
    n = hardy._LANE_MIN
    x = np.zeros(n)
    x[n // 2 :] = 1e300

    def square(rows):
        np.multiply(x[rows], x[rows], out=x[rows])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            hardy.two_lanes(square, n)
        assert np.all(x[n // 2 :] == np.inf)
        x[n // 2 :] = 1e300
        with pytest.raises(RuntimeWarning, match="overflow"):
            hardy.two_lanes(square, n)


def test_no_lane_gets_fewer_than_two_rows():
    # 2^15 elements a row: only the row count keeps these on one lane
    wide = 2**15
    for n in (1, 2, 3):
        assert lane_log(n, wide) == [(slice(0, n), True)]
    assert lane_log(4, wide) == [(slice(0, 2), True), (slice(2, 4), False)]
    assert lane_log(5, wide) == [(slice(0, 2), True), (slice(2, 5), False)]
