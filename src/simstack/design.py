"""Model-based stack synthesis: SVD-matched target response and the
gradient fit of the device's transmission coefficients to it.

The design sets the target stack response to the conjugate transpose of
the channel's top left singular vectors, T = U[:, :N]^H, so that T H is
diagonal with the channel's singular values and the downlink decouples
into parallel single-user streams (unit diagonal gains; no extra rotation).
The physical layers cannot realize an arbitrary T exactly; the fit drives
the relative Frobenius mismatch ||G(tau) - T||_F / ||T||_F down by gradient
descent and reports the residual it reached.
"""

from dataclasses import dataclass

import numpy as np

from .optim import Adam, minimize
from .propagation import ForwardOperator


class DegenerateChannelError(ValueError):
    """Channel matrix is numerically rank-deficient."""


def svd_target(h, n):
    """Target response T (N x Q) for an N-antenna transmitter over channel
    h (Q x K): the conjugate transpose of h's top N left singular vectors.

    Requires Q >= n >= K and full column rank; T h has exactly the
    singular values of h.
    """
    h = np.asarray(h)
    q, k = h.shape
    if not (q >= n >= k):
        raise ValueError(f"need Q >= N >= K, got Q={q}, N={n}, K={k}")
    u, s, _ = np.linalg.svd(h)
    if s[-1] <= 1e-12 * s[0]:
        raise DegenerateChannelError(f"smallest singular value {s[-1]} vs largest {s[0]}")
    return u[:, :n].conj().T


@dataclass
class FitResult:
    residual: float        # ||G - T||_F / ||T||_F at the returned iterate
    converged: bool
    n_iterations: int


def fit_sim_to_target(ws, device, target, *, iterations=1000,
                      step_size=0.05, tolerance=1e-3):
    """Fit the device's transmission parameters so the stack response
    through the coupling chain `ws` approaches `target` (N x Q) in
    relative Frobenius error.

    Mutates `device` to the best iterate found and returns a FitResult;
    converged=False flags a residual still at or above `tolerance`.
    A zero target degenerates the relative error, so the raw power
    ||G||_F^2 is minimized instead (amplitudes drive toward their floor).
    """
    target = np.asarray(target)
    tnorm2 = float(np.linalg.norm(target) ** 2)
    if tnorm2 == 0.0:
        tnorm2 = 1.0

    def loss_and_grad(x):
        device.set_flat(x)
        fwd = ForwardOperator(ws, device.taus())
        err = fwd.matrix - target
        loss = float(np.linalg.norm(err) ** 2) / tnorm2
        return loss, device.param_grad(fwd.tau_cogradients(err / tnorm2))

    # `iterations` steps lie between iterations + 1 evaluations
    x, best_loss, losses = minimize(loss_and_grad, device.flat(), Adam(step_size),
                                    iterations + 1,
                                    lambda losses: np.sqrt(losses[-1]) < tolerance)
    device.set_flat(x)
    residual = float(np.sqrt(best_loss))
    return FitResult(residual=residual, converged=residual < tolerance,
                     n_iterations=min(len(losses), iterations))
