"""Joint data-driven optimization of the precoder and the stack layers.

Minimizes the empirical symbol MSE over a pilot block,

    loss = (1/S) ||B - beta * Y||_F^2,   Y = B P G H + R,

with beta the per-batch least-squares-optimal real scale (not a trained
parameter). Noise R is redrawn every iteration, so gradients are
stochastic and the best-loss iterate is returned rather than the last.

Gradients are exact per batch, through the layer chain and the precoder
normalization, all with respect to the unconstrained backing parameters.
At the optimal beta the d(beta)/d(params) terms contribute nothing to
first order, so beta is held fixed inside each backward pass. The
cogradient of G is u H^H, so the channel rides through the forward sweep
beside the antenna rows (ForwardOperator's h) and the layer cogradients
need no reverse sweep (ForwardOperator.h_cogradients).
"""

from dataclasses import dataclass, field

import numpy as np

from .device import DeviceConfig, SimDevice
from .geometry import SimGeometry, _at_least, _check_fields, _positive
from .linklevel import complex_noise, generate_channel, make_constellation
from .optim import OPTIMIZERS, minimize
from .precoding import (Precoder, TrainablePrecoder, effective_channel,
                        mmse_precoder, optimal_receiver_scale)
from .propagation import ForwardOperator, coupling_chain, radiated_power


class TrainingDivergenceError(RuntimeError):
    """Loss blew up twice, once at the configured step size and once at half."""


@dataclass(frozen=True)
class TrainingConfig:
    """`iterations` counts loss evaluations, not steps: `train` evaluates at
    most max(iterations, 1) times, one optimizer step between two, whereas
    FitConfig.iterations counts steps. Also the `training` section of a config."""

    pilot_symbols: int = 100
    iterations: int = 500
    step_size: float = 1e-2
    optimizer: str = "adam"

    def __post_init__(self):
        _check_fields(self)
        _at_least(self, 1, "pilot_symbols")
        _at_least(self, 0, "iterations")
        _positive(self, "step_size")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer {self.optimizer!r} is not one of {sorted(OPTIMIZERS)}")


@dataclass
class LossReport:
    losses: list = field(default_factory=list)
    radiated_power: float = 0.0
    restarted: bool = False


def _residual(b, f, noise):
    y = b @ f + noise
    den = np.real(np.vdot(y, y))
    beta = np.real(np.vdot(y, b)) / den if den > 0 else 0.0
    err = b - beta * y
    return float(np.linalg.norm(err) ** 2) / b.shape[0], beta, err


def empirical_mse(p, g, h, pilot_block, noise):
    """Empirical MSE of a pilot block with the batch-optimal real scale.

    Y = B F + R with F = P G H; beta = Re<Y,B> / <Y,Y>; returns
    ((1/S)||B - beta Y||_F^2, beta). Pure function. All-zero Y falls back
    to beta = 0 and the raw pilot energy.
    """
    loss, beta, _ = _residual(np.asarray(pilot_block), effective_channel(p, g, h),
                              np.asarray(noise))
    return loss, float(beta)


def _loss_and_cograds(b, p, gh, noise):
    """(loss, beta, cog_P, u) of the pilot loss at F = P (GH): the
    cogradients (dL = 2 Re tr(cog^H dX)) are cog_P (K x N) and
    cog_G = u H^H with u (N x K), all from K x K and K x N factors."""
    loss, beta, err = _residual(b, p @ gh, noise)
    e = (-beta / b.shape[0]) * (b.conj().T @ err)
    return loss, beta, e @ gh.conj().T, p.conj().T @ e


def _evaluate(x, ws, device, tp, b, h, noise):
    """(loss, beta, gradient with respect to x) at x = [device parameters;
    precoder parameters]: one two-sided sweep, the loss and the layer
    cogradients read off it."""
    n = device.params.size
    x_dev, x_pre = x[:n], x[n:]
    fwd = ForwardOperator(ws, device.taus(x_dev), h)
    loss, beta, cog_p, u = _loss_and_cograds(b, tp.matrix(x_pre), fwd.gh, noise)
    return loss, beta, np.concatenate([device.param_grad(x_dev, fwd.h_cogradients(u)),
                                       tp.param_grad(x_pre, cog_p)])


def train(ws, device, h, config, constellation, total_power, *, snr, seed=None):
    """Train the device's parameters, from its initial draw, and a
    power-constrained precoder against one channel realization at link SNR
    `snr`, through the coupling chain `ws`. The pilot block and the noise
    come from np.random.default_rng(seed). Returns (params, Precoder,
    LossReport) at the best-loss iterate, `params` flat as
    `device.params.ravel()`; `device` is not changed.

    Divergence (loss above 10x the initial loss) triggers one restart from
    the initial state at half the step size; a second divergence raises
    TrainingDivergenceError. The loss cannot see the precoder's sign, so
    the returned precoder takes the sign that makes its receiver scale
    positive.
    """
    h = np.asarray(h)
    k = h.shape[1]
    if config.pilot_symbols < k:
        raise ValueError(f"pilot block of {config.pilot_symbols} symbols "
                         f"cannot excite {k} users")
    rng = np.random.default_rng(seed)
    s = config.pilot_symbols
    b = constellation.points[rng.integers(0, constellation.order, (s, k))]
    sigma2 = total_power / (k * snr)

    g0 = ForwardOperator(ws, device.taus(device.params.ravel())).matrix
    tp = TrainablePrecoder(total_power, mmse_precoder(g0, h, snr, total_power).matrix)
    n = device.params.size
    x0 = np.concatenate([device.params.ravel(), tp.x0])
    start = rng.bit_generator.state      # restarts replay the same noise

    def loss_and_grad(x):
        loss, _, grad = _evaluate(x, ws, device, tp, b, h, complex_noise((s, k), sigma2, rng))
        return loss, grad

    def diverged(losses):
        if not np.isfinite(losses[-1]):
            raise FloatingPointError(
                f"non-finite training loss at iteration {len(losses) - 1}")
        return losses[-1] > 10.0 * losses[0]

    report = LossReport()
    for step_size in (config.step_size, 0.5 * config.step_size):
        rng.bit_generator.state = start
        x, _, losses = minimize(loss_and_grad, x0, OPTIMIZERS[config.optimizer](step_size),
                                max(config.iterations, 1), diverged)
        if not diverged(losses):
            break
        report.restarted = True
    else:
        raise TrainingDivergenceError(
            f"training diverged at step sizes {config.step_size} and {step_size}")

    g = ForwardOperator(ws, device.taus(x[:n])).matrix
    p = tp.matrix(x[n:])
    beta = optimal_receiver_scale(effective_channel(p, g, h), sigma2)
    if beta < 0:          # -P negates Re tr F and keeps ||F||
        p, beta = -p, -beta
    report.losses = losses
    report.radiated_power = radiated_power(p, g)
    return x[:n], Precoder(p, total_power, beta), report


def finite_difference_check(step=1e-4, seed=7):
    """Analytic gradients vs central finite differences on a downscaled
    system (L=3, 4x4 cells, N=K=2, one amplitude layer).

    Checks the gradient of the evaluation that `train` runs at every
    trainable parameter (device backing parameters and precoder
    real/imaginary parts) for one fixed pilot block and noise draw at SNR
    10, against losses from an independent forward pass. Returns a dict of
    max relative errors.
    """
    rng = np.random.default_rng(seed)
    # unit carrier wavelength; half-wavelength spacings and (lambda/2)^2 areas
    geometry = SimGeometry(n_antennas=2, n_layers=3, layer_cells=(4, 4),
                           carrier_frequency_hz=3.0e8, array_to_first_layer_wl=0.5)
    ws = coupling_chain(geometry)
    device = SimDevice(geometry.n_cells, DeviceConfig(("ac", "pc", "pc")), rng)
    k, n, s, snr = 2, 2, 16, 10.0
    total_power = float(k)
    h = generate_channel(geometry.n_cells, k, rng)
    b = make_constellation(4).points[rng.integers(0, 4, (s, k))]
    noise = complex_noise((s, k), total_power / (k * snr), rng)
    tp = TrainablePrecoder(total_power,
                           rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))

    x0 = np.concatenate([device.params.ravel(), tp.x0])
    loss0, beta, grad = _evaluate(x0, ws, device, tp, b, h, noise)
    n_dev = device.params.size

    def loss_at(x):
        g = ForwardOperator(ws, device.taus(x[:n_dev])).matrix
        return empirical_mse(tp.matrix(x[n_dev:]), g, h, b, noise)[0]

    def rel_error(i):
        dx = np.zeros_like(x0)
        dx[i] = step
        fd = (loss_at(x0 + dx) - loss_at(x0 - dx)) / (2 * step)
        return abs(fd - grad[i]) / max(abs(fd), 1e-12)

    errors = [rel_error(i) for i in range(x0.size)]
    return {"device": max(errors[:n_dev]), "precoder": max(errors[n_dev:]),
            "n_parameters": x0.size, "loss": loss0, "beta": beta}
