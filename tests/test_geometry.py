import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import atom_position
from simstack.geometry import C0, SimGeometry, transverse_distances


def _grid(qx, qy, spacing_wl):
    # unit wavelength, so the pitch is spacing_wl meters
    return SimGeometry(n_antennas=1, n_layers=1, layer_cells=(qx, qy),
                       carrier_frequency_hz=C0, cell_spacing_wl=spacing_wl)


# Scalar oracles: one atom or one pair at a time, in plain Python.

def atom_index(geometry, qx, qy):
    qx_count, qy_count = geometry.layer_cells
    if not (0 <= qx < qx_count and 0 <= qy < qy_count):
        raise IndexError(f"cell ({qx}, {qy}) outside {qx_count}x{qy_count} grid")
    return qx * qy_count + qy


def atom_cell(geometry, q):
    """Inverse of atom_index."""
    if not (0 <= q < geometry.n_cells):
        raise IndexError(f"atom index {q} out of range for {geometry.n_cells} cells")
    return divmod(q, geometry.layer_cells[1])


def pairwise_distance_array_to_layer(geometry, n, q):
    """Distance from antenna n to atom q of the first layer:
    sqrt((xq - xn)^2 + (yq - yn)^2 + sigma^2) >= sigma."""
    xn, yn = geometry.antenna_xy()[n]
    xq, yq = atom_position(geometry, q)
    sigma = geometry.array_to_first_layer_wl * geometry.wavelength
    return math.sqrt((xq - xn) ** 2 + (yq - yn) ** 2 + sigma ** 2)


def pairwise_distance_layer_to_layer(geometry, q_prev, q):
    """Distance from atom q_prev on one layer to atom q on the next:
    sqrt(dx^2 + dy^2 + s^2) >= s."""
    xa, ya = atom_position(geometry, q_prev)
    xb, yb = atom_position(geometry, q)
    s = geometry.inter_layer_spacing_wl * geometry.wavelength
    return math.sqrt((xb - xa) ** 2 + (yb - ya) ** 2 + s ** 2)


def test_atom_index_row_major():
    grid = _grid(3, 4, 0.5)
    assert grid.n_cells == 12
    assert atom_index(grid, 0, 0) == 0
    assert atom_index(grid, 0, 3) == 3
    assert atom_index(grid, 1, 0) == 4
    assert atom_index(grid, 2, 3) == 11


@given(st.integers(1, 6), st.integers(1, 6))
def test_atom_index_cell_round_trip(qx, qy):
    grid = _grid(qx, qy, 0.5)
    positions = grid.atom_xy()
    for q in range(grid.n_cells):
        assert atom_index(grid, *atom_cell(grid, q)) == q
        assert tuple(positions[q]) == pytest.approx(atom_position(grid, q), abs=1e-15)


def test_positions_centered_and_spaced():
    grid = _grid(4, 4, 0.25)
    pos = grid.atom_xy()
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
    ax, ay = g.antenna_xy()[1]
    qx_count, qy_count = g.layer_cells
    spacing = g.cell_spacing_wl * g.wavelength
    sigma = g.array_to_first_layer_wl * g.wavelength
    qx, qy = divmod(7, qy_count)
    px = (qx - (qx_count - 1) / 2) * spacing
    py = (qy - (qy_count - 1) / 2) * spacing
    want = math.sqrt((ax - px) ** 2 + (ay - py) ** 2 + sigma ** 2)
    assert np.isclose(pairwise_distance_array_to_layer(g, 1, 7), want, rtol=1e-15)
    # the vectorized distances the coupling matrices use agree
    d = transverse_distances(g.antenna_xy(), g.atom_xy(), sigma)
    assert np.isclose(d[1, 7], want, rtol=1e-15)


def test_layer_to_layer_distance_min_is_separation(small_geometry):
    # facing atoms are exactly one separation apart
    s = small_geometry.inter_layer_spacing_wl * small_geometry.wavelength
    d = pairwise_distance_layer_to_layer(small_geometry, 5, 5)
    assert np.isclose(d, s, rtol=1e-15)
    xy = small_geometry.atom_xy()
    dense = transverse_distances(xy, xy, s)
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


@pytest.mark.parametrize("n, rows, cols", [(1, 1, 1), (2, 1, 2), (4, 2, 2), (6, 2, 3), (7, 1, 7)])
def test_antenna_grid_is_most_square(n, rows, cols):
    g = SimGeometry(n_antennas=n, n_layers=1, layer_cells=(4, 4), carrier_frequency_hz=C0,
                    antenna_spacing_wl=0.5)
    xy = g.antenna_xy()
    assert xy.shape == (n, 2)
    assert len(set(xy[:, 0])) == rows and len(set(xy[:, 1])) == cols
    assert np.allclose(xy.mean(axis=0), 0.0, atol=1e-15)
    if cols > 1:
        assert xy[1, 1] - xy[0, 1] == 0.5


@pytest.mark.parametrize("key, value", [
    ("n_antennas", 0),
    ("n_antennas", -1),
    ("n_layers", 0),
    ("layer_cells", (0, 4)),
    ("layer_cells", (4, -1)),
    ("layer_cells", (4,)),
    ("carrier_frequency_hz", 0.0),
    ("antenna_spacing_wl", 0.0),
    ("array_to_first_layer_wl", -0.5),
    ("inter_layer_spacing_wl", 0.0),
    ("cell_spacing_wl", -0.5),
    ("antenna_area_wl2", 0.0),
    ("meta_atom_area_wl2", -0.25),
])
def test_rejects_out_of_range(key, value):
    kwargs = dict(n_antennas=2, n_layers=2, layer_cells=(4, 4), carrier_frequency_hz=3.0e8)
    kwargs[key] = value
    with pytest.raises(ValueError, match=key):
        SimGeometry(**kwargs)
