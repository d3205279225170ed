"""Scalar-diffraction coupling matrices and the stack forward operator.

The complex coupling from a radiating element to a meta-atom at distance d
with obliquity angle theta (cos theta = axial / d) is

    w = (A * cos(theta) / d) * (1/(2*pi*d) - j/lambda0) * exp(j*2*pi*d/lambda0)

where A is the radiating area of the source element. W1 collects the
antenna-to-first-layer couplings (N x Q). The layers are identical and
equally spaced, so one Q x Q matrix W couples every pair of adjacent
layers. With the (L, Q) transmission state tau, row l for layer l, the
stack response seen from the antennas is

    G = W1 T1 W T2 ... W TL,    T_l = diag(tau_l).

G is accumulated left to right, keeping every intermediate N x Q; the
cached prefixes A_1 = W1, A_l = A_{l-1} T_{l-1} W are what the reverse
sweep reuses when differentiating a scalar loss with respect to tau.

Everything is complex128; the propagation phases 2*pi*d/lambda0 reach into
the hundreds, which burns through single-precision mantissas.
"""

from functools import lru_cache

import numpy as np

from .geometry import transverse_distances


def coupling_coefficient(distance, axial, area, wavelength):
    """Point-to-point coupling; broadcasts over array inputs."""
    cos_theta = axial / distance
    return (area * cos_theta / distance) \
        * (1.0 / (2.0 * np.pi * distance) - 1j / wavelength) \
        * np.exp(2j * np.pi * distance / wavelength)


def build_w1(geometry):
    """Antenna-array-to-first-layer coupling matrix, N x Q."""
    d = transverse_distances(geometry.antenna_xy(),
                             geometry.grid.positions(),
                             geometry.array_to_first_layer)
    return coupling_coefficient(d, geometry.array_to_first_layer,
                                geometry.antenna_effective_area,
                                geometry.wavelength)


def build_w(geometry):
    """Coupling matrix between any two adjacent layers, Q x Q."""
    xy = geometry.grid.positions()
    d = transverse_distances(xy, xy, geometry.inter_layer_spacing)
    return coupling_coefficient(d, geometry.inter_layer_spacing,
                                geometry.meta_atom_area,
                                geometry.wavelength)


@lru_cache(maxsize=8)
def coupling_chain(geometry):
    """[W1] + [W] * (L-1) for a geometry, the one W object repeated. Cached
    because the chain is reused across all trials, so both matrices are
    read-only."""
    w1, w = build_w1(geometry), build_w(geometry)
    w1.flags.writeable = w.flags.writeable = False
    return [w1] + [w] * (geometry.n_layers - 1)


class ForwardOperator:
    """G = W1 T1 W T2 ... W TL plus the cached prefixes A_l.

    w_list    the coupling chain, L matrices
    taus      the (L, Q) transmission state
    matrix    the N x Q stack response G
    prefixes  list of A_l, one per layer (A_1 = W1)
    """

    def __init__(self, w_list, taus):
        taus = np.asarray(taus)
        want = (len(w_list), w_list[0].shape[1])
        if taus.shape != want:
            raise ValueError(f"tau state has shape {taus.shape}, the chain needs {want}")
        prefixes = [w_list[0]]
        for ell in range(1, len(w_list)):
            prefixes.append((prefixes[-1] * taus[ell - 1][None, :]) @ w_list[ell])
        self.w_list = list(w_list)
        self.taus = taus
        self.prefixes = prefixes
        self.matrix = prefixes[-1] * taus[-1][None, :]

    def tau_cogradients(self, cograd_matrix):
        """Reverse sweep: conjugate cogradients of the loss with respect to
        each tau vector, given the cogradient with respect to G.

        Convention: for loss L and complex matrix M, the cogradient Mbar
        satisfies dL = 2 Re tr(Mbar^H dM). Returns an (L, Q) complex array,
        one row per layer.
        """
        msg = cograd_matrix
        out = np.empty_like(self.taus, dtype=complex)
        for ell in range(len(self.w_list) - 1, -1, -1):
            out[ell] = np.sum(np.conj(self.prefixes[ell]) * msg, axis=0)
            if ell > 0:
                # (msg diag(conj tau)) W^H, conjugating the small factor
                # instead of copying conj(W) on every sweep
                msg = np.conj((np.conj(msg) * self.taus[ell][None, :]) @ self.w_list[ell].T)
        return out


def radiated_power(precoder_matrix, g):
    """Power ||P G||_F^2 leaving the last layer for stack response G."""
    return float(np.linalg.norm(np.asarray(precoder_matrix) @ np.asarray(g)) ** 2)
