import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from koenigslab import TriState
from koenigslab.battery import battery_entry, full_battery
from koenigslab.domain import NEG_INF, POS_INF, RowProfile
from koenigslab.raster import (
    WindowError,
    _component_count_single,
    _dilate,
    _int_closure_violation,
    complement_components,
    int_closure_equals_domain,
    rasterize,
)


def cell_centres(grid):
    edges = np.linspace(grid.window[0], grid.window[1], grid.n + 1)
    return 0.5 * (edges[:-1] + edges[1:])


def pixels(grid, tmp_path):
    """The written image as an n-by-n array, row 0 at the bottom."""
    path = tmp_path / "grid.pgm"
    grid.to_pgm(path)
    body = path.read_bytes()[len(b"P5\n%d %d\n255\n" % (grid.n, grid.n)):]
    return np.frombuffer(body, dtype=np.uint8).reshape(grid.n, grid.n)[::-1]


def test_flat_right_cells_inside():
    psi = battery_entry("half_plane").psi
    grid = rasterize(psi, (-1.0, 1.0, -1.0, 1.0), 128).coarse
    _, inside = grid.columns()
    # columns strictly right of 0 are inside, left of 0 outside
    xc = cell_centres(grid)
    assert (xc[inside] > 0).all() and (xc[inside - 1] < 0).all()


def test_comb_teeth_visible_as_slits():
    e = battery_entry("comb")
    grid = rasterize(e.psi, e.window, 1024)
    # rows meeting the carrier have their frontier at the tooth tip (x = 1),
    # rows inside gaps at the background (x = 0)
    rows_in_base = (grid.rows.y_edges[:-1] >= 0.0) & (grid.rows.y_edges[1:] <= 1.0)
    toothed = rows_in_base & (grid.rows.M > 0.5)
    gap_rows = rows_in_base & (grid.rows.M < 0.5)
    assert toothed.sum() > 50
    assert gap_rows.sum() > 50
    # the slit signal: tooth rows sit right of the dilated regularized sup
    assert float(np.max(grid.rows.M[rows_in_base] - grid.rows.Mstar[rows_in_base])) > 0.9


def test_spike_slit_row():
    e = battery_entry("spike")
    grid = rasterize(e.psi, e.window, 1024)
    j = int(np.searchsorted(grid.rows.y_edges, 0.0, side="right")) - 1
    # the slit registers in the row(s) whose span meets the spike height
    assert max(grid.rows.M[j - 1], grid.rows.M[j]) == pytest.approx(1.0)
    assert grid.rows.M[j + 2] == pytest.approx(0.0)
    assert grid.rows.M[j - 2] == pytest.approx(0.0)


def test_int_closure_battery_verdicts():
    for e in full_battery():
        grid = rasterize(e.psi, e.window, e.resolution)
        verdict, _ = int_closure_equals_domain(grid)
        assert verdict.value == e.int_closure_equals, e.name


def test_component_counts_battery():
    for e in full_battery():
        grid = rasterize(e.psi, e.window, e.resolution)
        count, status = complement_components(e.psi, grid)
        assert status is TriState.YES, e.name
        assert count == e.components, e.name


def test_two_scale_stability_definite_at_double_resolution():
    # resolution stability: verdicts at n and 2n match for shipped domains
    for name in ("strip", "comb", "spike", "gap"):
        e = battery_entry(name)
        g1 = rasterize(e.psi, e.window, e.resolution)
        g2 = rasterize(e.psi, e.window, 2 * e.resolution)
        assert int_closure_equals_domain(g1)[0] is int_closure_equals_domain(g2)[0]


def test_window_disjoint_errors():
    psi = battery_entry("strip").psi
    with pytest.raises(WindowError):
        rasterize(psi, (-1.0, 1.0, 5.0, 6.0), 64)


def test_right_edge_window_error():
    e = battery_entry("spike")
    grid = rasterize(e.psi, (-2.0, 0.5, -1.5, 1.5), 256)  # spike tip at x=1 cut off
    with pytest.raises(WindowError):
        complement_components(e.psi, grid)


def test_interval_outside_window_errors():
    e = battery_entry("gap")  # I = (-1, 2)
    grid = rasterize(e.psi, (-4.0, 4.0, -0.5, 1.5), 256)
    with pytest.raises(WindowError):
        complement_components(e.psi, grid)



@pytest.mark.parametrize("window", [(-np.inf, 4.0, -2.4, 2.4), (-4.0, 4.0, -2.4, np.nan)])
def test_a_non_finite_window_is_rejected(window):
    # an infinite end once asked to "extend the window", a NaN one read as empty
    with pytest.raises(ValueError, match="non-finite window") as err:
        rasterize(battery_entry("strip").psi, window, 256)
    assert not isinstance(err.value, WindowError)


def test_minimum_resolution_enforced():
    psi = battery_entry("strip").psi
    with pytest.raises(ValueError):
        rasterize(psi, (-1, 1, -1, 1), 32)
    assert rasterize(psi, (-4, 4, -2.4, 2.4), 128).coarse.n == 64
    # the coarse grid of n = 100 would have 50 rows: rejected before any work
    with pytest.raises(ValueError, match="at least 128"):
        rasterize(psi, (-4, 4, -2.4, 2.4), 100)


def test_pgm_output(tmp_path):
    e = battery_entry("strip")
    grid = rasterize(e.psi, e.window, 128)
    path = tmp_path / "strip.pgm"
    grid.to_pgm(path)
    head = path.read_bytes()[:20]
    assert head.startswith(b"P5\n128 128\n255\n")


def test_right_translation_monotone_rows(tmp_path):
    # within each row, cells right of a domain pixel are domain pixels, and
    # cells right of a closure pixel are closure or domain pixels
    e = battery_entry("oscillation_cantor")
    img = pixels(rasterize(e.psi, e.window, 256), tmp_path)
    assert set(np.unique(img)) <= {0, 128, 255}
    assert (np.diff(img.astype(int), axis=1) >= 0).all()
    assert (img == 255).any() and (img == 0).any()


def test_inside_cells_contain_centers(tmp_path):
    # the raster invariant: every domain pixel's center lies in the domain
    e = battery_entry("du_oscillation")
    grid = rasterize(e.psi, e.window, 256)
    inside = pixels(grid, tmp_path) == 255
    xc = cell_centres(grid)
    yc = 0.5 * (grid.rows.y_edges[:-1] + grid.rows.y_edges[1:])
    rng = np.random.default_rng(3)
    iys = rng.integers(0, 256, 200)
    ixs = rng.integers(0, 256, 200)
    assert inside[iys, ixs].any()
    for iy, ix in zip(iys, ixs):
        if inside[iy, ix]:
            assert e.psi.contains(complex(xc[ix], yc[iy]))


def mask_pgm(grid, path):
    """The image as the two n-by-n masks once wrote it, kept as the
    reference for the row-block writer."""
    xc = cell_centres(grid)
    f = grid.rows.M.copy()
    f[grid.rows.outside | grid.rows.edge] = POS_INF
    g = grid.rows.m.copy()
    g[grid.rows.outside] = POS_INF
    inside = xc[None, :] > f[:, None]
    closure = xc[None, :] >= _dilate(g, np.minimum)[:, None]
    img = np.zeros(inside.shape, dtype=np.uint8)
    img[closure] = 128
    img[inside] = 255
    img = img[::-1]
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (img.shape[1], img.shape[0]))
        fh.write(img.tobytes())


@pytest.mark.parametrize("e", full_battery(), ids=lambda e: e.name)
def test_the_pgm_has_the_bytes_of_the_mask_writer(e, tmp_path):
    # 600 and 300 rows end in a partial block
    for grid in (rasterize(e.psi, e.window, e.resolution), rasterize(e.psi, e.window, 600)):
        for g in (grid, grid.coarse):
            g.to_pgm(tmp_path / "rows.pgm")
            mask_pgm(g, tmp_path / "masks.pgm")
            assert (tmp_path / "rows.pgm").read_bytes() == (tmp_path / "masks.pgm").read_bytes()


_GRID = rasterize(battery_entry("half_plane").psi, (-1.0, 1.0, -1.0, 1.0), 128).coarse
# frontiers on and between cell centres, infinite and NaN
_FRONTIER = st.one_of(
    st.sampled_from(list(cell_centres(_GRID)) + [NEG_INF, POS_INF, np.nan]),
    st.floats(-1.5, 1.5),
)
_ROWS = st.lists(st.tuples(_FRONTIER, _FRONTIER, st.booleans(), st.booleans()), min_size=64, max_size=64)


@given(_ROWS)
def test_the_pgm_keeps_the_mask_writer_bytes_on_ties(tmp_path_factory, rows):
    # a frontier on a cell centre: inside needs the centre strictly right
    # of M, the closure band takes the centre at the dilated m
    M, m, outside, edge = (np.array(c) for c in zip(*rows))
    profile = RowProfile(_GRID.rows.y_edges, M, m, M, outside, edge)
    grid = dataclasses.replace(_GRID, rows=profile)
    path = tmp_path_factory.mktemp("pgm")
    grid.to_pgm(path / "rows.pgm")
    mask_pgm(grid, path / "masks.pgm")
    assert (path / "rows.pgm").read_bytes() == (path / "masks.pgm").read_bytes()


def test_the_pgm_is_written_without_an_n_by_n_array(tmp_path):
    # two n-by-n masks, the image and its byte copy took 64 MiB at n = 4096
    e = battery_entry("eta1")
    grid = rasterize(e.psi, e.window, 4096)
    tracemalloc.start()
    try:
        grid.to_pgm(tmp_path / "eta1.pgm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert (tmp_path / "eta1.pgm").stat().st_size == len(b"P5\n4096 4096\n255\n") + 4096**2


def test_translation_invariance_of_verdicts():
    e = battery_entry("spike")
    psi2 = e.psi.translated(dx=0.5, dy=0.25)
    w = (e.window[0] + 0.5, e.window[1] + 0.5, e.window[2] + 0.25, e.window[3] + 0.25)
    g1 = rasterize(e.psi, e.window, 512)
    g2 = rasterize(psi2, w, 512)
    assert int_closure_equals_domain(g1)[0] is int_closure_equals_domain(g2)[0]
    assert complement_components(e.psi, g1)[0] == complement_components(psi2, g2)[0]


@given(st.lists(st.booleans(), min_size=1, max_size=64))
def test_component_count_is_the_number_of_unsealed_runs(seal):
    # a sealed row is an inside row whose row inf is -inf
    grid = rasterize(battery_entry("half_plane").psi, (-1.0, 1.0, -1.0, 1.0), 128).coarse
    k = len(seal)
    rows = grid.rows
    rows = RowProfile(
        rows.y_edges[: k + 1], rows.M[:k], np.where(seal, NEG_INF, rows.m[:k]),
        rows.Mstar[:k], rows.outside[:k], rows.edge[:k],
    )
    grid = dataclasses.replace(grid, n=k, rows=rows)
    runs, prev = 0, True
    for sealed in seal:
        runs += prev and not sealed
        prev = sealed
    assert _component_count_single(grid) == runs


def test_rows_outside_the_interval_stay_complement_rows():
    # a row below I holds no height of psi: even an m of -inf there seals nothing
    grid = rasterize(battery_entry("quadrant").psi, (-1.0, 1.0, -1.0, 1.0), 128).coarse
    assert grid.rows.outside[10] and not grid.rows.outside[-1]
    m = grid.rows.m.copy()
    m[10] = NEG_INF
    grid = dataclasses.replace(grid, rows=dataclasses.replace(grid.rows, m=m))
    assert _component_count_single(grid) == 1


@pytest.mark.parametrize("name", ["gap", "double_gap", "du_oscillation", "pos_step_du"])
def test_scrambling_the_row_profile_changes_the_count(name):
    # the count is read off the raster: zeroing M, m and Mstar on both
    # scales must not leave it as it was
    e = battery_entry(name)
    grid = rasterize(e.psi, e.window, e.resolution)

    def scrambled(g, coarse):
        zero = np.zeros(g.n)
        rows = dataclasses.replace(g.rows, M=zero, m=zero, Mstar=zero)
        return dataclasses.replace(g, rows=rows, coarse=coarse)

    bad = scrambled(grid, scrambled(grid.coarse, None))
    assert complement_components(e.psi, grid) == (e.components, TriState.YES)
    assert complement_components(e.psi, bad) != (e.components, TriState.YES)


def test_the_raster_grid_is_frozen_with_four_fields():
    grid = rasterize(battery_entry("strip").psi, (-4, 4, -2.4, 2.4), 128)
    assert [f.name for f in dataclasses.fields(grid)] == ["window", "n", "rows", "coarse"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.coarse = None


def test_top_row_counts_when_the_bottom_row_is_outside():
    # row 0 lies below I; the one-row dilation of the skip mask must not
    # wrap around and drop the top row from the violation
    e = battery_entry("quadrant")
    grid = rasterize(e.psi, e.window, 128).coarse
    assert grid.rows.outside[0] and not (grid.rows.outside[-1] or grid.rows.edge[-1])
    M = grid.rows.M.copy()
    M[-1] = 5.0
    grid = dataclasses.replace(grid, rows=dataclasses.replace(grid.rows, M=M))
    assert _int_closure_violation(grid) == 5.0


def test_the_grid_keeps_its_row_profile_read_only():
    e = battery_entry("gap")
    grid = rasterize(e.psi, e.window, 128)
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.rows.M = grid.rows.m
    for f in dataclasses.fields(grid.rows):
        with pytest.raises(ValueError, match="read-only"):
            getattr(grid.rows, f.name)[0] = 0
    # the profile is the one that row_profiles gives on the grid's y-edges
    again = e.psi.row_profiles(grid.rows.y_edges)
    for f in dataclasses.fields(again):
        assert np.array_equal(getattr(again, f.name), getattr(grid.rows, f.name))
