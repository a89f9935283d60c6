"""Raster cross-check of the topological criteria.

The domain is row-convex (each horizontal line meets it in a right ray),
so the grid is encoded by per-row frontier profiles: M = row sup of psi
(inside frontier), m = row inf (closure frontier before dilation), and
Mstar = row sup of the lower regularization psi_*.  Morphological closure
and interior are one-row dilation/erosion of these profiles.  The
interior-of-closure test compares M against the dilated Mstar.  Complement
components are counted as maximal runs of consecutive unsealed rows.  A
row is sealed when its own profile says so: an inside row whose row inf
m is -inf (undilated) lies in the closure along its whole length and
separates the rows above it from those below, while consecutive unsealed
rows connect through the far left of the plane.  Rows outside I keep
m = +inf and stay complement rows; a row inside I keeps it only when
every sample failed, and then both tests answer unknown.  Only
``complement_components`` reads psi's structural facts: the window check
and the exactness gate read the set E where the liminf of psi is -inf.

Verdicts are tri-state: a definite answer must be stable across the
resolution pair (n, n/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import NEG_INF, POS_INF, PiecewiseDefiningFunction, RowProfile
from .tri import TriState


class WindowError(ValueError):
    """The window cannot resolve the question; message carries guidance."""


@dataclass(frozen=True)
class RasterGrid:
    window: tuple  # (x0, x1, y0, y1)
    n: int  # cells per side
    rows: RowProfile  # the row bounds on psi, on the grid's y-edges
    coarse: "RasterGrid | None" = None

    @property
    def dx(self):
        return (self.window[1] - self.window[0]) / self.n

    @property
    def x_edges(self):
        return np.linspace(self.window[0], self.window[1], self.n + 1)

    # -- frontier masks ----------------------------------------------------

    def inside_mask(self):
        f = self.rows.M.copy()
        f[self.rows.outside | self.rows.edge] = POS_INF
        xc = 0.5 * (self.x_edges[:-1] + self.x_edges[1:])
        return xc[None, :] > f[:, None]

    def closure_mask(self):
        """Cells right of the one-row dilation of the row-inf profile."""
        g = self.rows.m.copy()
        g[self.rows.outside] = POS_INF
        xc = 0.5 * (self.x_edges[:-1] + self.x_edges[1:])
        return xc[None, :] >= _dilate(g, np.minimum)[:, None]

    def to_pgm(self, path):
        """P5 image: complement 0, closure band 128, domain 255; row 0 at top."""
        inside = self.inside_mask()
        closure = self.closure_mask()
        img = np.zeros(inside.shape, dtype=np.uint8)
        img[closure] = 128
        img[inside] = 255
        img = img[::-1]
        with open(path, "wb") as fh:
            fh.write(b"P5\n%d %d\n255\n" % (img.shape[1], img.shape[0]))
            fh.write(img.tobytes())


def rasterize(psi: PiecewiseDefiningFunction, window, n) -> RasterGrid:
    """Classify an n-by-n window, with the n/2 grid of the same window as
    ``coarse``; deterministic for fixed inputs."""
    x0, x1, y0, y1 = window
    if not all(map(math.isfinite, window)):
        raise ValueError(f"non-finite window {tuple(window)!r}")
    if not (x0 < x1 and y0 < y1):
        raise ValueError("empty window")
    if y1 <= psi.interval_lo or y0 >= psi.interval_hi:
        raise WindowError("window is disjoint from the domain's height interval")
    if n < 128:
        raise ValueError(
            "resolution must be at least 128: verdicts are checked against a "
            "coarse grid of n/2, which needs at least 64"
        )

    def grid(k, coarse):
        return RasterGrid(tuple(window), k, psi.row_profiles(np.linspace(y0, y1, k + 1)), coarse)

    return grid(n, grid(n // 2, None))


def _check_window_fits(psi, E, grid):
    x0, x1, y0, y1 = grid.window
    margin_y = 0.05 * (y1 - y0)
    for e in (psi.interval_lo, psi.interval_hi):
        if math.isfinite(e) and not (y0 + margin_y <= e <= y1 - margin_y):
            raise WindowError(
                f"interval endpoint {e} outside the window margin; extend the "
                f"y-range beyond [{y0}, {y1}]"
            )
    for lo, hi in E:
        for e in (lo, hi):
            if math.isfinite(e) and not (y0 <= e <= y1):
                raise WindowError(
                    f"a -inf feature at height {e} lies outside the window; "
                    "extend the y-range"
                )
    # the domain frontier must enter through the right part of the window
    fin = grid.rows.M[~(grid.rows.outside | grid.rows.edge)]
    fin = fin[np.isfinite(fin)]
    if fin.size and float(np.max(fin)) > x1 - 2 * grid.dx:
        raise WindowError(
            f"the frontier reaches x = {float(np.max(fin)):.3g} at the right edge; "
            f"extend the window right of {x1}"
        )


def _dilate(a, op):
    """One-row dilation of a row profile under ``op``; rows beyond the
    ends of the window are absent."""
    out = a.copy()
    op(out[1:], a[:-1], out=out[1:])
    op(out[:-1], a[1:], out=out[:-1])
    return out


def _int_closure_violation(grid: RasterGrid):
    """Max over rows of (row sup of psi) - (dilated row sup of psi_*)."""
    rows = grid.rows
    M = rows.M
    skip = _dilate(rows.outside | rows.edge, np.logical_or)
    with np.errstate(invalid="ignore"):
        viol = M - _dilate(rows.Mstar, np.maximum)
    viol[skip] = NEG_INF
    viol[~np.isfinite(M)] = NEG_INF
    return float(np.max(viol)) if viol.size else NEG_INF


def _failed_rows(grid: RasterGrid):
    """Does either scale hold a row inside I whose every sample failed?"""
    return any((~g.rows.outside & (g.rows.m == POS_INF)).any() for g in (grid, grid.coarse))


def int_closure_equals_domain(grid: RasterGrid):
    """TriState: does the domain equal the interior of its closure?

    Definite only when the violation statistic agrees across the two
    scales: at most tol at both (yes) or clearly above it at both (no),
    and neither scale holds a row whose every sample failed.
    """
    if grid.coarse is None:
        raise ValueError("two-scale grid required")
    results = [(_int_closure_violation(g), 4.0 * g.dx + 1e-9) for g in (grid, grid.coarse)]
    if _failed_rows(grid):
        return TriState.UNKNOWN, results
    if all(v <= tol for v, tol in results):
        return TriState.YES, results
    if all(v > 3.0 * tol for v, tol in results):
        return TriState.NO, results
    return TriState.UNKNOWN, results


def _component_count_single(grid: RasterGrid):
    """Merged complement component count on one grid: each run of
    consecutive unsealed rows is one component (a sealed row, an inside
    row with m = -inf, has the full line in its closure), so count the
    rows that start a run."""
    bearing = grid.rows.outside | (grid.rows.m != NEG_INF)
    return int(bearing[0]) + int(np.count_nonzero(bearing[1:] & ~bearing[:-1]))


def complement_components(psi, grid: RasterGrid):
    """Count of connected components of the complement of the closure.

    Tri-state via two-scale agreement; raises WindowError when the window
    cannot contain the answer.
    """
    if grid.coarse is None:
        raise ValueError("two-scale grid required")
    E, e_exact = psi.liminf_neg_inf_set()
    _check_window_fits(psi, E, grid)
    if not e_exact or _failed_rows(grid):
        return None, TriState.UNKNOWN
    n1, n2 = (_component_count_single(g) for g in (grid, grid.coarse))
    return (n1, TriState.YES) if n1 == n2 else (None, TriState.UNKNOWN)
