"""Closed-form MSE expressions that the tests compare the package against."""

import numpy as np


def spectral_mse(singular_values, snr, k):
    """Sum MSE of the MMSE precoder from the singular values of GH:
    K - sum_i s_i^2 / (s_i^2 + 1/snr) over the provided values."""
    s = np.asarray(singular_values, dtype=float)
    if np.any(s < 0):
        raise ValueError("singular values must be nonnegative")
    s2 = s ** 2
    return float(k - np.sum(s2 / (s2 + 1.0 / snr)))


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
