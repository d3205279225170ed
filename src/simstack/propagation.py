"""Scalar-diffraction coupling matrices and the stack forward operator.

The complex coupling from a radiating element to a meta-atom at distance d
with obliquity angle theta (cos theta = axial / d) is

    w = (A * cos(theta) / d) * (1/(2*pi*d) - j/lambda0) * exp(j*2*pi*d/lambda0)

where A is the radiating area of the source element. W1 collects the
antenna-to-first-layer couplings (N x Q1); W_l the layer-(l-1)-to-layer-l
couplings (Q_{l-1} x Q_l). With per-layer transmission vectors tau_l the
stack response seen from the antennas is

    G = W1 T1 W2 T2 ... WL TL,    T_l = diag(tau_l).

G is accumulated left to right, keeping every intermediate N x Q_l; the
cached prefixes A_l = W1 T1 ... W_l are what the reverse sweep reuses when
differentiating a scalar loss with respect to the tau vectors.

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
    """Antenna-array-to-first-layer coupling matrix, N x Q1."""
    d = transverse_distances(geometry.antenna_xy(),
                             geometry.layers[0].positions(),
                             geometry.array_to_first_layer)
    return coupling_coefficient(d, geometry.array_to_first_layer,
                                geometry.antenna_effective_area,
                                geometry.wavelength)


def build_w_ell(geometry, ell):
    """Layer-(ell-1)-to-layer-ell coupling matrix (ell is 1-based, >= 2)."""
    if not (2 <= ell <= geometry.n_layers):
        raise IndexError(f"layer index {ell} out of range 2..{geometry.n_layers}")
    d = transverse_distances(geometry.layers[ell - 2].positions(),
                             geometry.layers[ell - 1].positions(),
                             geometry.inter_layer_spacing)
    return coupling_coefficient(d, geometry.inter_layer_spacing,
                                geometry.meta_atom_area,
                                geometry.wavelength)


@lru_cache(maxsize=8)
def coupling_chain(geometry):
    """[W1, W2, ..., WL] for a geometry; identical consecutive grids share
    one matrix. Cached because the chain is reused across all trials, so
    every matrix is read-only."""
    ws = [build_w1(geometry)]
    prev_key, prev_w = None, None
    for ell in range(2, geometry.n_layers + 1):
        src, dst = geometry.layers[ell - 2], geometry.layers[ell - 1]
        key = (src.qx_count, src.qy_count, src.spacing,
               dst.qx_count, dst.qy_count, dst.spacing)
        if key == prev_key:
            ws.append(prev_w)
        else:
            prev_w = build_w_ell(geometry, ell)
            prev_key = key
            ws.append(prev_w)
    for w in ws:
        w.flags.writeable = False
    return ws


class ForwardOperator:
    """G = W1 T1 ... WL TL plus the cached prefixes A_l = W1 T1 ... W_l.

    matrix    the N x Q_L stack response G
    prefixes  list of A_l, one per layer (A_1 = W1)
    """

    def __init__(self, w_list, taus):
        if len(w_list) != len(taus):
            raise ValueError("one tau vector per coupling matrix required")
        for w, tau in zip(w_list, taus):
            if w.shape[1] != tau.shape[0]:
                raise ValueError(
                    f"dimension mismatch: W has {w.shape[1]} columns, tau has {tau.shape[0]}")
        prefixes = [w_list[0]]
        for ell in range(1, len(w_list)):
            prefixes.append((prefixes[-1] * taus[ell - 1][None, :]) @ w_list[ell])
        self.w_list = list(w_list)
        self.taus = [np.asarray(t) for t in taus]
        self.prefixes = prefixes
        self.matrix = prefixes[-1] * taus[-1][None, :]

    def tau_cogradients(self, cograd_matrix):
        """Reverse sweep: conjugate cogradients of the loss with respect to
        each tau vector, given the cogradient with respect to G.

        Convention: for loss L and complex matrix M, the cogradient Mbar
        satisfies dL = 2 Re tr(Mbar^H dM). Returns one complex vector per
        layer.
        """
        msg = cograd_matrix
        out = [None] * len(self.w_list)
        for ell in range(len(self.w_list) - 1, -1, -1):
            out[ell] = np.sum(np.conj(self.prefixes[ell]) * msg, axis=0)
            if ell > 0:
                # (msg diag(conj tau)) W^H, conjugating the small factor
                # instead of copying conj(W) on every sweep
                msg = np.conj((np.conj(msg) * self.taus[ell][None, :]) @ self.w_list[ell].T)
        return out


def radiated_power(precoder_matrix, forward, total_power=None):
    """Power ||P G||_F^2 leaving the last layer, with its upper bound
    P_S * ||G||_2^2 (squared spectral norm). Returns (power, bound)."""
    g = forward.matrix if isinstance(forward, ForwardOperator) else np.asarray(forward)
    p = np.asarray(precoder_matrix)
    power = float(np.linalg.norm(p @ g) ** 2)
    if total_power is None:
        total_power = float(np.linalg.norm(p) ** 2)
    bound = total_power * float(np.linalg.norm(g, ord=2) ** 2)
    if power > bound * (1.0 + 1e-9) + 1e-15:
        raise AssertionError(f"radiated power {power} exceeds bound {bound}")
    return power, bound
