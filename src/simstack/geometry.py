"""Transmit-array and metasurface-layer geometry.

A transmitter is a small uniform planar array (UPA) at z = 0 feeding a stack
of L identical programmable metasurface layers. Layer l sits at
z = sigma + (l-1)*s, where sigma is the array-to-first-layer standoff and s
the inter-layer spacing. The meta-atoms of every layer form the same
centered rectangular grid of Q cells; the 2-D cell (q_x, q_y) maps to the
1-D index q = q_x * qy_count + q_y (row-major).

All coordinates and lengths are in meters.
"""

from dataclasses import dataclass
import math

import numpy as np

# propagation speed used to convert carrier frequency to wavelength
C0 = 3.0e8


@dataclass(frozen=True)
class LayerGrid:
    """The atom grid of every layer: qx_count x qy_count cells with pitch
    `spacing`, centered on the stack axis."""

    qx_count: int
    qy_count: int
    spacing: float

    def __post_init__(self):
        if self.qx_count < 1 or self.qy_count < 1:
            raise ValueError("grid counts must be >= 1")
        if self.spacing <= 0:
            raise ValueError("grid spacing must be positive")

    @property
    def count(self):
        return self.qx_count * self.qy_count

    def positions(self):
        """All atom coordinates as a (count, 2) array, in index order."""
        xs = (np.arange(self.qx_count) - (self.qx_count - 1) / 2.0) * self.spacing
        ys = (np.arange(self.qy_count) - (self.qy_count - 1) / 2.0) * self.spacing
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.stack([gx.ravel(), gy.ravel()], axis=1)


def _centered_square_array(n, spacing):
    # most-square factorization: n=4 -> 2x2, n=2 -> 1x2 line
    rows = math.isqrt(n)
    while n % rows:
        rows -= 1
    cols = n // rows
    xs = (np.arange(rows) - (rows - 1) / 2.0) * spacing
    ys = (np.arange(cols) - (cols - 1) / 2.0) * spacing
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return tuple((float(x), float(y)) for x, y in zip(gx.ravel(), gy.ravel()))


@dataclass(frozen=True)
class SimGeometry:
    """Immutable description of the full transmitter geometry.

    array_positions      transverse (x, y) of the N antennas at z = 0
    array_to_first_layer standoff sigma between array and layer 1
    inter_layer_spacing  spacing s between consecutive layers
    grid                 the LayerGrid shared by all layers
    n_layers             L
    carrier_frequency    f0 in Hz; wavelength = C0 / f0
    antenna_effective_area / meta_atom_area
                         radiating areas entering the coupling coefficients
    """

    array_positions: tuple
    array_to_first_layer: float
    inter_layer_spacing: float
    grid: LayerGrid
    n_layers: int
    carrier_frequency: float
    antenna_effective_area: float
    meta_atom_area: float

    def __post_init__(self):
        if self.n_layers < 1:
            raise ValueError("geometry needs at least one layer")
        if self.array_to_first_layer <= 0 or self.inter_layer_spacing <= 0:
            raise ValueError("axial spacings must be positive")
        if self.carrier_frequency <= 0:
            raise ValueError("carrier frequency must be positive")
        if self.antenna_effective_area <= 0 or self.meta_atom_area <= 0:
            raise ValueError("radiating areas must be positive")

    @property
    def n_antennas(self):
        return len(self.array_positions)

    @property
    def wavelength(self):
        return C0 / self.carrier_frequency

    def antenna_xy(self):
        return np.asarray(self.array_positions, dtype=float)


def make_geometry(n_antennas, antenna_spacing, array_to_first_layer,
                  inter_layer_spacing, n_layers, layer_cells, cell_spacing,
                  carrier_frequency, antenna_effective_area, meta_atom_area):
    """Build a SimGeometry from scalar parameters (all lengths in meters);
    every layer is a layer_cells = (qx, qy) grid."""
    qx, qy = layer_cells
    return SimGeometry(
        array_positions=_centered_square_array(n_antennas, antenna_spacing),
        array_to_first_layer=array_to_first_layer,
        inter_layer_spacing=inter_layer_spacing,
        grid=LayerGrid(qx, qy, cell_spacing),
        n_layers=n_layers,
        carrier_frequency=carrier_frequency,
        antenna_effective_area=antenna_effective_area,
        meta_atom_area=meta_atom_area,
    )


def transverse_distances(src_xy, dst_xy, axial):
    """(len(src), len(dst)) matrix of 3-D distances between two parallel
    planes separated by `axial`."""
    dx = dst_xy[None, :, 0] - src_xy[:, None, 0]
    dy = dst_xy[None, :, 1] - src_xy[:, None, 1]
    return np.sqrt(dx * dx + dy * dy + axial * axial)
