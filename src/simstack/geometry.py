"""Transmit-array and metasurface-layer geometry.

A transmitter is a small uniform planar array (UPA) at z = 0 feeding a stack
of L identical programmable metasurface layers. Layer l sits at
z = sigma + (l-1)*s, where sigma is the array-to-first-layer standoff and s
the inter-layer spacing. The meta-atoms of every layer form the same
centered rectangular grid of Q cells; the 2-D cell (q_x, q_y) maps to the
1-D index q = q_x * qy_count + q_y (row-major).

`SimGeometry` states every length in carrier wavelengths (suffix _wl, areas
_wl2) with the carrier frequency given separately, so a geometry is
frequency-portable; it is also the `geometry` section of an experiment
config. Positions (`antenna_xy`, `atom_xy`) come out in meters, and the
coupling matrices convert the axial spacings and areas themselves.
"""

from dataclasses import dataclass, field, fields
import math

import numpy as np

# propagation speed used to convert carrier frequency to wavelength
C0 = 3.0e8


# Shared config checks; a ValueError names the key, config parsing adds the section.

class SchemaError(ValueError):
    """A config value of the wrong type or shape; the message names the key."""


def _typed(value, key, *types):
    """`value` if isinstance(value, types), where a bool counts only when bool is asked for."""
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise SchemaError(f"{key}: expected {'/'.join(t.__name__ for t in types)}, "
                          f"got {type(value).__name__} ({value!r})")
    return value


def _float(value, key):
    """An int or a float, as a float; an int too large for a float is a SchemaError."""
    try:
        return float(_typed(value, key, int, float))
    except OverflowError:
        raise SchemaError(f"{key}: integer too large for a float") from None


def _names(choices, what):
    """Reader of a nonempty list of names, each one of `choices`."""
    def read(value, where):
        if not value or any(v not in choices for v in value):
            raise SchemaError(f"{where}: expected {what} from {list(choices)}, got {list(value)}")
        return tuple(value)
    return read


def _check_fields(section):
    """Check and store each field of the dataclass `section` by its annotation:
    float takes an int or a float and stores a float; int, str and bool take
    exactly their type; tuple takes a list or a tuple, parsed by the field's
    metadata["read"] reader. Every config section's __post_init__ calls this."""
    for f in fields(section):
        key, value = f.name, getattr(section, f.name)
        if f.type is tuple:
            value = f.metadata["read"](_typed(value, key, list, tuple), key)
        else:
            value = _float(value, key) if f.type is float else _typed(value, key, f.type)
        object.__setattr__(section, key, value)


def _positive(section, *keys):
    for key in keys:
        value = getattr(section, key)
        if not 0 < value < math.inf:
            raise ValueError(f"{key} must be positive and finite, got {value}")


def _at_least(section, low, *keys):
    for key in keys:
        value = getattr(section, key)
        if not value >= low:
            raise ValueError(f"{key} must be at least {low}, got {value}")


def _int_pair(value, where):
    if len(value) != 2 or not all(type(v) is int and v > 0 for v in value):
        raise SchemaError(f"{where}: expected a pair of positive integers")
    return tuple(value)


def _centered_grid(nx, ny, spacing):
    """(nx * ny, 2) coordinates of an nx x ny grid with pitch `spacing`,
    centered on the stack axis, in row-major index order."""
    xs = (np.arange(nx) - (nx - 1) / 2.0) * spacing
    ys = (np.arange(ny) - (ny - 1) / 2.0) * spacing
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


@dataclass(frozen=True)
class SimGeometry:
    """Immutable description of the full transmitter geometry.

    n_antennas               N, on the most-square centered grid at z = 0
    n_layers                 L
    layer_cells              (qx, qy) atom grid shared by all layers
    carrier_frequency_hz     f0; wavelength = C0 / f0
    antenna_spacing_wl / cell_spacing_wl
                             pitch of the antenna grid and of the atom grid
    array_to_first_layer_wl  standoff sigma between array and layer 1
    inter_layer_spacing_wl   spacing s between consecutive layers
    antenna_area_wl2 / meta_atom_area_wl2
                             radiating areas entering the coupling coefficients
    """

    n_antennas: int
    n_layers: int
    layer_cells: tuple = field(metadata={"read": _int_pair})     # (qx, qy)
    carrier_frequency_hz: float
    antenna_spacing_wl: float = 0.5
    array_to_first_layer_wl: float = 14.0
    inter_layer_spacing_wl: float = 0.5
    cell_spacing_wl: float = 0.5
    antenna_area_wl2: float = 0.25
    meta_atom_area_wl2: float = 0.25

    def __post_init__(self):
        _check_fields(self)
        _at_least(self, 1, "n_antennas", "n_layers")
        _positive(self, "carrier_frequency_hz", "antenna_spacing_wl",
                  "array_to_first_layer_wl", "inter_layer_spacing_wl", "cell_spacing_wl",
                  "antenna_area_wl2", "meta_atom_area_wl2")

    @property
    def wavelength(self):
        return C0 / self.carrier_frequency_hz

    @property
    def n_cells(self):
        return self.layer_cells[0] * self.layer_cells[1]

    def antenna_xy(self):
        """(N, 2) antenna coordinates in meters on the most-square grid:
        n=4 -> 2x2, n=2 -> 1x2 line."""
        n = self.n_antennas
        rows = math.isqrt(n)
        while n % rows:
            rows -= 1
        return _centered_grid(rows, n // rows, self.antenna_spacing_wl * self.wavelength)

    def atom_xy(self):
        """(Q, 2) atom coordinates in meters, in index order."""
        qx, qy = self.layer_cells
        return _centered_grid(qx, qy, self.cell_spacing_wl * self.wavelength)


def transverse_distances(src_xy, dst_xy, axial):
    """(len(src), len(dst)) matrix of 3-D distances between two parallel
    planes separated by `axial`."""
    dx = dst_xy[None, :, 0] - src_xy[:, None, 0]
    dy = dst_xy[None, :, 1] - src_xy[:, None, 1]
    return np.sqrt(dx * dx + dy * dy + axial * axial)
