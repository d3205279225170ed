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

W is symmetric bit for bit (its entries depend on squared transverse
offsets), so rows advance through a layer as X T W from either end of the
stack: the N antenna rows as the prefixes A_1 = W1, A_l = A_{l-1} T_{l-1} W,
and the K rows of a channel h^T as the suffixes R_l^T = (W T_{l+1} ... W T_L
h)^T. `propagate` moves both blocks with one (N+K) x Q product per layer.
That one sweep gives G h and, for a G cogradient u h^H (training's), every
tau cogradient by contraction, with no reverse sweep; the target fit's
general cogradient runs the reverse sweep through the same routine.

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


@lru_cache(maxsize=8)
def coupling_chain(geometry):
    """(W1,) + (W,) * (L-1) for a geometry, the one W object repeated: W1 (N x Q)
    couples the antennas to layer 1 and W (Q x Q) any two adjacent layers.
    Cached because the chain is reused across all trials, so it is a tuple
    and both matrices are read-only."""
    lam = geometry.wavelength
    atoms = geometry.atom_xy()

    def couple(src_xy, axial_wl, area_wl2):
        axial = axial_wl * lam
        d = transverse_distances(src_xy, atoms, axial)
        w = coupling_coefficient(d, axial, area_wl2 * lam ** 2, lam)
        w.flags.writeable = False
        return w

    w1 = couple(geometry.antenna_xy(), geometry.array_to_first_layer_wl,
                geometry.antenna_area_wl2)
    w = couple(atoms, geometry.inter_layer_spacing_wl, geometry.meta_atom_area_wl2)
    return (w1,) + (w,) * (geometry.n_layers - 1)


def propagate(w, taus, left, right):
    """(L, n + k, Q) array Z: Z[0] = [left; right] and Z[j+1] =
    [Z[j, :n] T_j; Z[j, n:] T_{L-1-j}] W, so the left rows walk the layers
    first to last and the right rows last to first."""
    n_layers, q = taus.shape
    n = left.shape[0]
    z = np.empty((n_layers, n + right.shape[0], q), dtype=complex)
    z[0, :n] = left
    z[0, n:] = right
    x = np.empty_like(z[0])
    for j in range(n_layers - 1):
        np.multiply(z[j, :n], taus[j], out=x[:n])
        np.multiply(z[j, n:], taus[-1 - j], out=x[n:])
        np.matmul(x, w, out=z[j + 1])
    return z


class ForwardOperator:
    """G = W1 T1 W T2 ... W TL, optionally with a Q x K channel h riding
    through the same sweep.

    w_list    the coupling chain, L matrices
    taus      the (L, Q) transmission state
    matrix    the N x Q stack response G
    prefixes  (L, N, Q) array of A_l
    suffixes  (L, K, Q) array of R_l^T (R_L = h)
    gh        G h (N x K), or None without h
    """

    def __init__(self, w_list, taus, h=None):
        taus = np.asarray(taus)
        want = (len(w_list), w_list[0].shape[1])
        if taus.shape != want:
            raise ValueError(f"tau state has shape {taus.shape}, the chain needs {want}")
        self.w_list = w_list
        self.taus = taus
        n = w_list[0].shape[0]
        z = propagate(w_list[-1], taus, w_list[0],
                      np.empty((0, want[1])) if h is None else np.asarray(h).T)
        self.prefixes, self.suffixes = z[:, :n], z[::-1, n:]
        self.matrix = self.prefixes[-1] * taus[-1]
        self.gh = None if h is None else self.matrix @ h

    def tau_cogradients(self, cograd_matrix):
        """Reverse sweep: conjugate cogradients of the loss with respect to
        each tau vector, given the cogradient with respect to G.

        Convention: for loss L and complex matrix M, the cogradient Mbar
        satisfies dL = 2 Re tr(Mbar^H dM). Returns an (L, Q) complex array,
        one row per layer. The message runs conjugated, as right rows.
        """
        msg = propagate(self.w_list[-1], self.taus, np.empty((0, self.taus.shape[1])),
                        np.conj(cograd_matrix))[::-1]
        return np.conj(np.sum(self.prefixes * msg, axis=1))

    def h_cogradients(self, u):
        """tau_cogradients(u h^H) for u N x K, without a reverse sweep: the
        sum over K of conj(R_l) * (conj(A_l)^T u)."""
        return np.conj(np.sum(self.suffixes * (np.conj(u).T @ self.prefixes), axis=1))


def radiated_power(precoder_matrix, g):
    """Power ||P G||_F^2 leaving the last layer for stack response G."""
    return float(np.linalg.norm(np.asarray(precoder_matrix) @ np.asarray(g)) ** 2)
