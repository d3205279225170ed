"""Reference implementations that the tests compare the package against:
scalar coupling entries and atom positions, closed-form MSE expressions,
the exhaustive minimum-distance demapper that the per-axis slicer
replaced, the whole-block link simulation that the row-chunked one
replaced, and the row-form propagation engine and training evaluation
that the two-sided sweep replaced."""

import cmath
import math

import numpy as np
import scipy.linalg


def scalar_coupling(d, axial, area, lam):
    """One coupling coefficient, re-evaluated with cmath and no numpy."""
    cos_theta = axial / d
    return (area * cos_theta / d) * (1.0 / (2.0 * math.pi * d) - 1j / lam) \
        * cmath.exp(2j * math.pi * d / lam)


def atom_position(geometry, q):
    """Transverse (x, y) of atom q = qx * qy_count + qy, in meters; the
    grid centroid sits at (0, 0)."""
    qx_count, qy_count = geometry.layer_cells
    if not (0 <= q < qx_count * qy_count):
        raise IndexError(f"atom index {q} out of range for {qx_count * qy_count} cells")
    qx, qy = divmod(q, qy_count)
    spacing = geometry.cell_spacing_wl * geometry.wavelength
    return ((qx - (qx_count - 1) / 2.0) * spacing,
            (qy - (qy_count - 1) / 2.0) * spacing)


def spectral_mse(singular_values, snr, k):
    """Sum MSE of the MMSE precoder from the singular values of GH:
    K - sum_i s_i^2 / (s_i^2 + 1/snr) over the provided values."""
    s = np.asarray(singular_values, dtype=float)
    if np.any(s < 0):
        raise ValueError("singular values must be nonnegative")
    s2 = s ** 2
    return float(k - np.sum(s2 / (s2 + 1.0 / snr)))


def closed_form_mse(g, h, snr):
    """Sum MSE achieved by the MMSE precoder (trace form):
    K - tr[(GH)^H (GH (GH)^H + (1/snr) I_N)^{-1} GH]."""
    m = np.asarray(g) @ np.asarray(h)
    k = m.shape[1]
    reg = m @ m.conj().T + (1.0 / snr) * np.eye(m.shape[0])
    return float(k - np.real(np.trace(m.conj().T @ scipy.linalg.solve(reg, m, assume_a="pos"))))


def mse_with_optimal_scale(p, g, h, noise_var):
    """Expected sum MSE of an arbitrary precoder with its optimal receiver
    scale: K - (Re tr F)^2 / (||F||_F^2 + K sigma^2), F = P G H.

    Returns (mse, beta). For the MMSE precoder at snr = P_S/(K sigma^2)
    this reduces to closed_form_mse and the construction beta.
    """
    f = np.asarray(p) @ np.asarray(g) @ np.asarray(h)
    k = f.shape[0]
    den = np.linalg.norm(f) ** 2 + k * noise_var
    num = np.real(np.trace(f))
    return float(k - num ** 2 / den), float(num / den)


def exhaustive_demap(constellation, z):
    """Hard decisions by exhaustive search: the squared distance from every
    sample to every constellation point, and the first label at the minimum."""
    return np.argmin(np.abs(np.asarray(z)[..., None] - constellation.points) ** 2, axis=-1)


def whole_block_simulate(f, beta, sigma2, constellation, n_bits_per_user, rng):
    """simulate_block as one pass over the whole (S, K) block: labels, then
    every real part of the noise, then every imaginary part, one product
    with f and one demap. Returns (bit_errors, total_bits)."""
    f = np.asarray(f)
    k = f.shape[1]
    bps = constellation.bits_per_symbol
    s = n_bits_per_user // bps
    labels = rng.integers(0, constellation.order, (s, k))
    noise = np.empty((s, k), complex)
    noise.real = rng.standard_normal((s, k))
    noise.imag = rng.standard_normal((s, k))
    noise *= np.sqrt(sigma2 / 2.0)
    y = constellation.map(labels) @ f + noise
    detected = constellation.demap(beta * y)
    return int(np.bitwise_count(labels ^ detected).sum()), s * k * bps


class RowForwardOperator:
    """The propagation engine that the two-sided sweep replaced, kept as the
    bit-for-bit reference: G built from N x Q prefix rows, one layer at a
    time, and a reverse sweep that carries an N x Q message back through
    W^T on every step."""

    def __init__(self, w_list, taus):
        taus = np.asarray(taus)
        prefixes = [w_list[0]]
        for ell in range(1, len(w_list)):
            prefixes.append((prefixes[-1] * taus[ell - 1][None, :]) @ w_list[ell])
        self.w_list = list(w_list)
        self.taus = taus
        self.prefixes = prefixes
        self.matrix = prefixes[-1] * taus[-1][None, :]

    def tau_cogradients(self, cograd_matrix):
        msg = cograd_matrix
        out = np.empty_like(self.taus, dtype=complex)
        for ell in range(len(self.w_list) - 1, -1, -1):
            out[ell] = np.sum(np.conj(self.prefixes[ell]) * msg, axis=0)
            if ell > 0:
                msg = np.conj((np.conj(msg) * self.taus[ell][None, :]) @ self.w_list[ell].T)
        return out


def row_loss_and_cograds(b, p, g, h, noise):
    """(loss, beta, cog_P, cog_G) of the pilot loss (1/S)||B - beta Y||^2,
    Y = B P G H + noise, through S x Q temporaries, as training computed
    them before the channel rode through the forward sweep."""
    y = b @ p @ g @ h + noise
    den = np.real(np.vdot(y, y))
    beta = np.real(np.vdot(y, b)) / den if den > 0 else 0.0
    err = b - beta * y
    loss = float(np.linalg.norm(err) ** 2) / b.shape[0]
    scale = -beta / b.shape[0]
    ebh = err @ h.conj().T
    return (loss, beta, scale * (b.conj().T @ ebh @ g.conj().T),
            scale * (p.conj().T @ b.conj().T @ ebh))


def row_evaluate(x, ws, device, tp, b, h, noise):
    """training._evaluate through the row engine and the S x Q cogradients."""
    n = device.params.size
    fwd = RowForwardOperator(ws, device.taus(x[:n]))
    loss, beta, cog_p, cog_g = row_loss_and_cograds(b, tp.matrix(x[n:]), fwd.matrix, h, noise)
    return loss, beta, np.concatenate([device.param_grad(x[:n], fwd.tau_cogradients(cog_g)),
                                       tp.param_grad(x[n:], cog_p)])
