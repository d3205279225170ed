import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from simstack.geometry import LayerGrid, transverse_distances


# Scalar oracles: one atom or one pair at a time, in plain Python.

def atom_index(grid, qx, qy):
    if not (0 <= qx < grid.qx_count and 0 <= qy < grid.qy_count):
        raise IndexError(f"cell ({qx}, {qy}) outside {grid.qx_count}x{grid.qy_count} grid")
    return qx * grid.qy_count + qy


def atom_cell(grid, q):
    """Inverse of atom_index."""
    if not (0 <= q < grid.count):
        raise IndexError(f"atom index {q} out of range for {grid.count} cells")
    return divmod(q, grid.qy_count)


def atom_position(grid, q):
    """Transverse (x, y) of atom q; the grid centroid sits at (0, 0)."""
    qx, qy = atom_cell(grid, q)
    return ((qx - (grid.qx_count - 1) / 2.0) * grid.spacing,
            (qy - (grid.qy_count - 1) / 2.0) * grid.spacing)


def pairwise_distance_array_to_layer(geometry, n, q):
    """Distance from antenna n to atom q of the first layer:
    sqrt((xq - xn)^2 + (yq - yn)^2 + sigma^2) >= sigma."""
    xn, yn = geometry.array_positions[n]
    xq, yq = atom_position(geometry.grid, q)
    sigma = geometry.array_to_first_layer
    return math.sqrt((xq - xn) ** 2 + (yq - yn) ** 2 + sigma ** 2)


def pairwise_distance_layer_to_layer(geometry, q_prev, q):
    """Distance from atom q_prev on one layer to atom q on the next:
    sqrt(dx^2 + dy^2 + s^2) >= s."""
    xa, ya = atom_position(geometry.grid, q_prev)
    xb, yb = atom_position(geometry.grid, q)
    s = geometry.inter_layer_spacing
    return math.sqrt((xb - xa) ** 2 + (yb - ya) ** 2 + s ** 2)


def test_atom_index_row_major():
    grid = LayerGrid(qx_count=3, qy_count=4, spacing=0.5)
    assert grid.count == 12
    assert atom_index(grid, 0, 0) == 0
    assert atom_index(grid, 0, 3) == 3
    assert atom_index(grid, 1, 0) == 4
    assert atom_index(grid, 2, 3) == 11


@given(st.integers(1, 6), st.integers(1, 6))
def test_atom_index_cell_round_trip(qx, qy):
    grid = LayerGrid(qx_count=qx, qy_count=qy, spacing=0.5)
    positions = grid.positions()
    for q in range(grid.count):
        assert atom_index(grid, *atom_cell(grid, q)) == q
        assert tuple(positions[q]) == pytest.approx(atom_position(grid, q), abs=1e-15)


def test_positions_centered_and_spaced():
    grid = LayerGrid(qx_count=4, qy_count=4, spacing=0.25)
    pos = grid.positions()
    assert pos.shape == (16, 2)
    # centered: mean at origin
    assert np.allclose(pos.mean(axis=0), 0.0, atol=1e-15)
    # neighbors along y differ by exactly the spacing
    assert np.isclose(pos[1, 1] - pos[0, 1], 0.25)
    assert np.isclose(pos[4, 0] - pos[0, 0], 0.25)


def test_antenna_array_centered(reference_geometry):
    xy = reference_geometry.antenna_xy()
    assert xy.shape == (4, 2)
    assert np.allclose(xy.mean(axis=0), 0.0, atol=1e-18)
    # 2x2 at half-wavelength pitch
    d = reference_geometry.wavelength / 2
    assert np.isclose(np.abs(xy).max(), d / 2)


def test_scalar_distance_oracle(small_geometry):
    g = small_geometry
    # antenna n=1 to atom q=7 of layer 1, recomputed from scratch
    ax, ay = g.array_positions[1]
    grid = g.grid
    qx, qy = divmod(7, grid.qy_count)
    px = (qx - (grid.qx_count - 1) / 2) * grid.spacing
    py = (qy - (grid.qy_count - 1) / 2) * grid.spacing
    want = math.sqrt((ax - px) ** 2 + (ay - py) ** 2 + g.array_to_first_layer ** 2)
    assert np.isclose(pairwise_distance_array_to_layer(g, 1, 7), want, rtol=1e-15)
    # the vectorized distances the coupling matrices use agree
    d = transverse_distances(g.antenna_xy(), grid.positions(), g.array_to_first_layer)
    assert np.isclose(d[1, 7], want, rtol=1e-15)


def test_layer_to_layer_distance_min_is_separation(small_geometry):
    # facing atoms are exactly one separation apart
    d = pairwise_distance_layer_to_layer(small_geometry, 5, 5)
    assert np.isclose(d, small_geometry.inter_layer_spacing, rtol=1e-15)
    xy = small_geometry.grid.positions()
    dense = transverse_distances(xy, xy, small_geometry.inter_layer_spacing)
    assert np.isclose(dense[5, 5], d, rtol=1e-15)


def test_transverse_distances_matches_scalar(small_geometry, rng):
    src = rng.normal(size=(3, 2))
    dst = rng.normal(size=(5, 2))
    d = transverse_distances(src, dst, 0.7)
    assert d.shape == (3, 5)
    for i in range(3):
        for j in range(5):
            want = math.sqrt((src[i, 0] - dst[j, 0]) ** 2
                             + (src[i, 1] - dst[j, 1]) ** 2 + 0.49)
            assert np.isclose(d[i, j], want, rtol=1e-15)


def test_wavelength(reference_geometry):
    assert np.isclose(reference_geometry.wavelength, 3.0e8 / 28.0e9, rtol=1e-15)
