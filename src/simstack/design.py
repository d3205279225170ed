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

from .geometry import _at_least, _check_fields, _positive
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


@dataclass(frozen=True)
class FitConfig:
    """At most `iterations` Adam steps of size `step_size`, until the residual
    falls below `tolerance`; also the `fitting` section of a config."""

    iterations: int = 1000
    step_size: float = 0.05
    tolerance: float = 1e-3

    def __post_init__(self):
        _check_fields(self)
        _at_least(self, 0, "iterations", "tolerance")
        _positive(self, "step_size")


@dataclass
class FitResult:
    residual: float        # ||G - T||_F / ||T||_F at the returned iterate
    converged: bool
    n_iterations: int      # Adam steps taken
    params: np.ndarray     # the returned iterate, flat as SimDevice.params.ravel()


def fit_sim_to_target(ws, device, target, config=FitConfig()):
    """Fit the device's transmission parameters, from its initial draw, so
    the stack response through the coupling chain `ws` approaches `target`
    in relative Frobenius error, as `config` (a FitConfig) bounds it.
    Returns a FitResult at the best iterate; converged=False flags a residual
    still at or above the tolerance. `device` is not changed. The target must
    be N x Q, finite and nonzero: the fit refuses any other before its first
    sweep, with ValueError for a shape and FloatingPointError for a norm.
    """
    target = np.asarray(target)
    if target.shape != ws[0].shape:
        raise ValueError(f"target has shape {target.shape}, the chain's response {ws[0].shape}")
    with np.errstate(over="ignore"):      # a norm past ~1.3e154 squares to inf
        tnorm2 = float(np.linalg.norm(target) ** 2)
    if not 0.0 < tnorm2 < np.inf:         # no relative error to measure against
        raise FloatingPointError("non-finite loss at evaluation 0")

    def loss_and_grad(x):
        fwd = ForwardOperator(ws, device.taus(x))
        err = fwd.matrix - target
        loss = float(np.linalg.norm(err) ** 2) / tnorm2
        return loss, device.param_grad(x, fwd.tau_cogradients(err / tnorm2))

    # `iterations` steps lie between iterations + 1 evaluations
    x, losses = minimize(loss_and_grad, device.params.ravel(), Adam(config.step_size),
                         config.iterations + 1, lambda ls: np.sqrt(ls[-1]) < config.tolerance)
    residual = float(np.sqrt(min(losses)))
    return FitResult(residual=residual, converged=residual < config.tolerance,
                     n_iterations=len(losses) - 1, params=x)
