"""Linear precoding for the multi-user downlink through the stack.

Model conventions (row-symbol blocks): a block of S symbol vectors is
B (S x K); the received block is Y = B P G H + R with precoder P (K x N),
stack response G (N x Q), user channels H (Q x K), and noise R (S x K).
The effective user-coupling matrix is F = P G H (K x K); receivers apply a
common real scale beta, deciding on beta * y.

SNR is total transmit power over total noise power, snr = P_S / (K sigma^2)
for equal per-user noise variances.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Precoder:
    """Power-normalized precoding matrix with its receiver scale."""

    matrix: np.ndarray      # K x N
    total_power: float
    beta: float

    def __post_init__(self):
        p2 = np.linalg.norm(self.matrix) ** 2
        if abs(p2 - self.total_power) > 1e-10 * self.total_power:
            raise ValueError(f"||P||_F^2 = {p2} != total power {self.total_power}")
        if not self.beta > 0:
            raise ValueError("beta must be positive")


def mmse_precoder(g, h, snr, total_power):
    """Sum-MSE-optimal linear precoder under a total power constraint.

    P = (1/beta) * (GH)^H (GH (GH)^H + (1/snr) I_N)^{-1}, with beta chosen
    so that ||P||_F^2 = total_power. The returned beta is also the optimal
    receiver scale for this P (the construction is self-consistent).
    """
    if not np.isfinite(snr) or snr <= 0:
        raise ValueError("snr must be finite and positive")
    m = np.asarray(g) @ np.asarray(h)            # N x K
    n = m.shape[0]
    reg = m @ m.conj().T + (1.0 / snr) * np.eye(n)
    a = np.linalg.solve(reg, m).conj().T     # K x N; reg is Hermitian positive definite
    scale = np.linalg.norm(a)
    beta = scale / np.sqrt(total_power)
    p = a / beta
    # renormalize exactly; solve roundoff can leave ||P||^2 off by ~1 ulp
    p *= np.sqrt(total_power) / np.linalg.norm(p)
    return Precoder(p, float(total_power), float(beta))


def effective_channel(p, g, h):
    return np.asarray(p) @ np.asarray(g) @ np.asarray(h)


def optimal_receiver_scale(f, noise_var):
    """Real scale beta minimizing E||b - beta*y||^2 for y = F b + noise:
    beta* = Re tr F / (||F||_F^2 + K sigma^2)."""
    f = np.asarray(f)
    k = f.shape[0]
    return float(np.real(np.trace(f)) / (np.linalg.norm(f) ** 2 + k * noise_var))


class TrainablePrecoder:
    """Precoder P = sqrt(P_S) * Ptilde / ||Ptilde||_F of an unconstrained
    complex backing matrix Ptilde; the power constraint holds at every
    optimizer step by construction.

    Ptilde is read from a flat real vector x = [Re(Ptilde); Im(Ptilde)];
    `x0` is the vector of the initial matrix `init`.
    """

    def __init__(self, total_power, init):
        init = np.asarray(init, dtype=complex)
        if np.linalg.norm(init) == 0:
            raise ValueError("initial precoder must be nonzero")
        self.total_power = float(total_power)
        self.shape = init.shape
        self.x0 = np.concatenate([init.real.ravel(), init.imag.ravel()])

    def _backing(self, x):
        half = len(x) // 2          # a wrong size raises ValueError
        return (x[:half] + 1j * x[half:]).reshape(self.shape)

    def matrix(self, x):
        backing = self._backing(x)
        return np.sqrt(self.total_power) * backing / np.linalg.norm(backing)

    def param_grad(self, x, cograd_p):
        """Real gradient w.r.t. x from the cogradient w.r.t. P at x
        (convention dL = 2 Re tr(cog^H dP)): project out the radial
        component the normalization discards, then split Re/Im."""
        backing = self._backing(x)
        r = np.linalg.norm(backing)
        radial = np.real(np.vdot(backing, cograd_p)) / r ** 2
        g = (np.sqrt(self.total_power) / r) * (cograd_p - radial * backing)
        return np.concatenate([2.0 * g.real.ravel(), 2.0 * g.imag.ravel()])
