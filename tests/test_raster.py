import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from koenigslab import TriState
from koenigslab.battery import battery_entry, full_battery
from koenigslab.raster import (
    WindowError,
    _component_count_single,
    _int_closure_violation,
    complement_components,
    component_labels,
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
    rows_in_base = (grid.y_edges[:-1] >= 0.0) & (grid.y_edges[1:] <= 1.0)
    toothed = rows_in_base & (grid.M > 0.5)
    gap_rows = rows_in_base & (grid.M < 0.5)
    assert toothed.sum() > 50
    assert gap_rows.sum() > 50
    # the slit signal: tooth rows sit right of the dilated regularized sup
    assert float(np.max(grid.M[rows_in_base] - grid.Mstar[rows_in_base])) > 0.9


def test_spike_slit_row():
    e = battery_entry("spike")
    grid = rasterize(e.psi, e.window, 1024)
    j = int(np.searchsorted(grid.y_edges, 0.0, side="right")) - 1
    # the slit registers in the row(s) whose span meets the spike height
    assert max(grid.M[j - 1], grid.M[j]) == pytest.approx(1.0)
    assert grid.M[j + 2] == pytest.approx(0.0)
    assert grid.M[j - 2] == pytest.approx(0.0)


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


def test_minimum_resolution_enforced():
    psi = battery_entry("strip").psi
    with pytest.raises(ValueError):
        rasterize(psi, (-1, 1, -1, 1), 32)
    assert rasterize(psi, (-4, 4, -2.4, 2.4), 128).coarse.n == 64
    # the coarse grid of n = 100 would have 50 rows: rejected before any work
    with pytest.raises(ValueError, match="at least 128"):
        rasterize(psi, (-4, 4, -2.4, 2.4), 100)


def test_labels_match_component_count():
    e = battery_entry("double_gap")
    grid = rasterize(e.psi, e.window, 512)
    labels = component_labels(grid)
    found = sorted(set(labels.ravel()) - {0})
    count, _ = complement_components(e.psi, grid)
    assert len(found) == count


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
    yc = 0.5 * (grid.y_edges[:-1] + grid.y_edges[1:])
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
    grid = rasterize(battery_entry("half_plane").psi, (-1.0, 1.0, -1.0, 1.0), 128).coarse
    grid = dataclasses.replace(grid, seal=np.array(seal))
    runs, prev, ids = 0, True, []
    for sealed in seal:
        runs += prev and not sealed
        prev = sealed
        ids.append(0 if sealed else runs)
    assert _component_count_single(grid) == runs
    # labels carry the same run ids; sealed padding rows fill the grid out
    padded = np.array(seal + [True] * (grid.n - len(seal)))
    labels = component_labels(dataclasses.replace(grid, seal=padded))
    assert labels[: len(seal), 0].tolist() == ids
    assert not labels[len(seal):].any()


def test_top_row_counts_when_the_bottom_row_is_outside():
    # row 0 lies below I; the one-row dilation of the skip mask must not
    # wrap around and drop the top row from the violation
    e = battery_entry("quadrant")
    grid = rasterize(e.psi, e.window, 128).coarse
    assert grid.outside[0] and not (grid.outside[-1] or grid.edge[-1])
    grid.M[-1] = 5.0
    assert _int_closure_violation(grid) == 5.0
