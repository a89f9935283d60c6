import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from koenigslab import TriState
from koenigslab.battery import battery_entry, full_battery
from koenigslab.domain import NEG_INF, RowProfile
from koenigslab.raster import (
    WindowError,
    _component_count_single,
    _int_closure_violation,
    complement_components,
    int_closure_equals_domain,
    rasterize,
)


def test_flat_right_cells_inside():
    psi = battery_entry("half_plane").psi
    grid = rasterize(psi, (-1.0, 1.0, -1.0, 1.0), 128).coarse
    inside = grid.inside_mask()
    # columns strictly right of 0 are inside, left of 0 outside
    xc = 0.5 * (grid.x_edges[:-1] + grid.x_edges[1:])
    assert inside[:, xc > 0.05].all()
    assert not inside[:, xc < -0.05].any()


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


def test_right_translation_monotone_rows():
    # within each row, cells right of an inside cell are inside
    e = battery_entry("oscillation_cantor")
    grid = rasterize(e.psi, e.window, 256)
    inside = grid.inside_mask()
    first_true = np.argmax(inside, axis=1)
    for iy in range(grid.n):
        if inside[iy].any():
            assert inside[iy, first_true[iy]:].all()


def test_inside_cells_contain_centers():
    # the raster invariant: every inside cell's center lies in the domain
    e = battery_entry("du_oscillation")
    grid = rasterize(e.psi, e.window, 256)
    inside = grid.inside_mask()
    xc = 0.5 * (grid.x_edges[:-1] + grid.x_edges[1:])
    yc = 0.5 * (grid.rows.y_edges[:-1] + grid.rows.y_edges[1:])
    rng = np.random.default_rng(3)
    iys = rng.integers(0, 256, 200)
    ixs = rng.integers(0, 256, 200)
    for iy, ix in zip(iys, ixs):
        if inside[iy, ix]:
            assert e.psi.contains(complex(xc[ix], yc[iy]))


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
    assert np.array_equal(grid.x_edges, np.linspace(-4, 4, 129))


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
