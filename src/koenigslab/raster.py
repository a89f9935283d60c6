"""Raster cross-check of the topological criteria.

The domain is row-convex (each horizontal line meets it in a right ray),
so the grid is encoded by per-row frontier profiles: M = row sup of psi
(inside frontier), m = row inf (closure frontier before dilation), and
Mstar = row sup of the lower regularization psi_*.  Morphological closure
and interior are one-row dilation/erosion of these profiles.  The
interior-of-closure test compares M against the dilated Mstar.  Complement
components are counted as maximal runs of consecutive rows outside the
sealed rows: a row meeting the set E where the liminf of psi is -inf lies
in the closure along its whole length and separates the rows above it
from those below, while consecutive unsealed rows connect through the far
left of the plane.

Verdicts are tri-state: a definite answer must be stable across the
resolution pair (n, n/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import NEG_INF, POS_INF, PiecewiseDefiningFunction
from .tri import TriState


class WindowError(ValueError):
    """The window cannot resolve the question; message carries guidance."""


@dataclass
class RasterGrid:
    window: tuple  # (x0, x1, y0, y1)
    n: int  # cells per side
    x_edges: np.ndarray
    y_edges: np.ndarray
    M: np.ndarray
    m: np.ndarray
    Mstar: np.ndarray
    outside: np.ndarray
    edge: np.ndarray
    seal: np.ndarray  # rows meeting the liminf = -inf set
    seal_exact: bool
    coarse: "RasterGrid | None" = None

    @property
    def dx(self):
        return (self.window[1] - self.window[0]) / self.n

    # -- frontier profiles -------------------------------------------------

    def inside_frontier(self):
        f = self.M.copy()
        f[self.outside | self.edge] = POS_INF
        return f

    def closure_frontier(self):
        """One-row dilation of the row-inf profile."""
        g = self.m.copy()
        g[self.outside] = POS_INF
        return _dilate(g, np.minimum)

    def inside_mask(self):
        xc = 0.5 * (self.x_edges[:-1] + self.x_edges[1:])
        return xc[None, :] > self.inside_frontier()[:, None]

    def closure_mask(self):
        xc = 0.5 * (self.x_edges[:-1] + self.x_edges[1:])
        return xc[None, :] >= self.closure_frontier()[:, None]

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
    if not (x0 < x1 and y0 < y1):
        raise ValueError("empty window")
    if y1 <= psi.interval_lo or y0 >= psi.interval_hi:
        raise WindowError("window is disjoint from the domain's height interval")
    if n < 128:
        raise ValueError(
            "resolution must be at least 128: verdicts are checked against a "
            "coarse grid of n/2, which needs at least 64"
        )
    grid = _grid(psi, window, n)
    grid.coarse = _grid(psi, window, n // 2)
    return grid


def _grid(psi, window, n):
    """The n-by-n grid of the window, without a coarse grid."""
    x0, x1, y0, y1 = window
    x_edges = np.linspace(x0, x1, n + 1)
    y_edges = np.linspace(y0, y1, n + 1)
    prof = psi.row_profiles(y_edges)
    E, e_exact = psi.liminf_neg_inf_set()
    lo_r, hi_r = y_edges[:-1], y_edges[1:]
    seal = np.zeros(n, dtype=bool)
    for elo, ehi in E:
        seal |= (hi_r >= elo) & (lo_r <= ehi)
    return RasterGrid(
        window=tuple(window),
        n=n,
        x_edges=x_edges,
        y_edges=y_edges,
        M=prof["M"],
        m=prof["m"],
        Mstar=prof["Mstar"],
        outside=prof["outside"],
        edge=prof["edge"],
        seal=seal,
        seal_exact=e_exact,
    )


def _check_window_fits(psi, grid):
    x0, x1, y0, y1 = grid.window
    margin_y = 0.05 * (y1 - y0)
    for e in (psi.interval_lo, psi.interval_hi):
        if math.isfinite(e) and not (y0 + margin_y <= e <= y1 - margin_y):
            raise WindowError(
                f"interval endpoint {e} outside the window margin; extend the "
                f"y-range beyond [{y0}, {y1}]"
            )
    E, _ = psi.liminf_neg_inf_set()
    for lo, hi in E:
        for e in (lo, hi):
            if math.isfinite(e) and not (y0 <= e <= y1):
                raise WindowError(
                    f"a -inf feature at height {e} lies outside the window; "
                    "extend the y-range"
                )
    # the domain frontier must enter through the right part of the window
    fin = grid.M[~(grid.outside | grid.edge)]
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
    M = grid.M
    skip = _dilate(grid.outside | grid.edge, np.logical_or)
    with np.errstate(invalid="ignore"):
        viol = M - _dilate(grid.Mstar, np.maximum)
    viol[skip] = NEG_INF
    viol[~np.isfinite(M)] = NEG_INF
    return float(np.max(viol)) if viol.size else NEG_INF


def int_closure_equals_domain(grid: RasterGrid):
    """TriState: does the domain equal the interior of its closure?

    Definite only when the violation statistic agrees across the two
    scales: at most tol at both (yes) or clearly above it at both (no).
    """
    if grid.coarse is None:
        raise ValueError("two-scale grid required")
    results = []
    for g in (grid, grid.coarse):
        tol = 4.0 * g.dx + 1e-9
        v = _int_closure_violation(g)
        results.append((v, tol))
    definite_yes = all(v <= tol for v, tol in results)
    definite_no = all(v > 3.0 * tol for v, tol in results)
    if definite_yes:
        return TriState.YES, results
    if definite_no:
        return TriState.NO, results
    return TriState.UNKNOWN, results


def _run_ids(grid: RasterGrid):
    """Per row, the index (1, 2, ...) of its run of consecutive unsealed
    rows; 0 on sealed rows, whose closure contains the full line."""
    bearing = ~grid.seal
    starts = bearing.copy()
    starts[1:] &= ~bearing[:-1]
    return np.where(bearing, np.cumsum(starts), 0)


def _component_count_single(grid: RasterGrid):
    """Merged complement component count on one grid: each run of
    unsealed rows is one component."""
    return int(_run_ids(grid).max(initial=0))


def complement_components(psi, grid: RasterGrid):
    """Count of connected components of the complement of the closure.

    Tri-state via two-scale agreement; raises WindowError when the window
    cannot contain the answer.
    """
    if grid.coarse is None:
        raise ValueError("two-scale grid required")
    _check_window_fits(psi, grid)
    if not grid.seal_exact:
        return None, TriState.UNKNOWN
    n1 = _component_count_single(grid)
    n2 = _component_count_single(grid.coarse)
    if n1 == n2:
        return n1, TriState.YES
    return None, TriState.UNKNOWN


def component_labels(grid: RasterGrid):
    """Cell labels of the in-window complement (coarse visualization aid):
    0 inside closure, k >= 1 the merged component index."""
    xc = 0.5 * (grid.x_edges[:-1] + grid.x_edges[1:])
    c = grid.closure_frontier()
    comp = xc[None, :] < c[:, None]
    return np.where(comp, _run_ids(grid)[:, None], 0).astype(np.int32)
