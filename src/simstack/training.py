"""Joint data-driven optimization of the precoder and the stack layers.

Minimizes the empirical symbol MSE over a pilot block,

    loss = (1/S) ||B - beta * Y||_F^2,   Y = B P G H + R,

with beta the per-batch least-squares-optimal real scale (not a trained
parameter). Noise R is redrawn every iteration, so gradients are
stochastic and the best-loss iterate is returned rather than the last.

Gradients are exact per batch: reverse accumulation through the layer
chain (ForwardOperator.tau_cogradients) and the precoder normalization,
all with respect to the unconstrained backing parameters. At the optimal
beta the d(beta)/d(params) terms contribute nothing to first order, so
beta is held fixed inside each backward pass.
"""

from dataclasses import dataclass, field

import numpy as np

from .device import SimDevice
from .optim import OPTIMIZERS, make_optimizer, minimize
from .precoding import (Precoder, TrainablePrecoder, effective_channel,
                        mmse_precoder, optimal_receiver_scale)
from .propagation import ForwardOperator, coupling_chain, radiated_power


class TrainingDivergenceError(RuntimeError):
    """Loss blew up twice, once at the configured step size and once at half."""


@dataclass(frozen=True)
class TrainingConfig:
    pilot_symbols: int = 100
    iterations: int = 500
    step_size: float = 1e-2
    optimizer: str = "adam"

    def __post_init__(self):
        if self.pilot_symbols < 1:
            raise ValueError("pilot_symbols must be positive")
        if self.iterations < 0:
            raise ValueError(f"iterations must be at least 0, got {self.iterations}")
        if not self.step_size > 0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer {self.optimizer!r} is not one of {sorted(OPTIMIZERS)}")


@dataclass
class LossReport:
    losses: list = field(default_factory=list)
    beta: float = 0.0
    radiated_power: float = 0.0
    restarted: bool = False


def _residual(b, p, g, h, noise):
    y = b @ p @ g @ h + noise
    den = np.real(np.vdot(y, y))
    beta = np.real(np.vdot(y, b)) / den if den > 0 else 0.0
    err = b - beta * y
    return float(np.linalg.norm(err) ** 2) / b.shape[0], beta, err


def empirical_mse(p, g, h, pilot_block, noise):
    """Empirical MSE of a pilot block with the batch-optimal real scale.

    Y = B P G H + R; beta = Re<Y,B> / <Y,Y>; returns
    ((1/S)||B - beta Y||_F^2, beta). Pure function. All-zero Y falls back
    to beta = 0 and the raw pilot energy.
    """
    loss, beta, _ = _residual(*(np.asarray(a) for a in (pilot_block, p, g, h, noise)))
    return loss, float(beta)


def _loss_and_cograds(b, p, g, h, noise):
    loss, beta, err = _residual(b, p, g, h, noise)
    # dL = 2 Re tr(cog^H dX) for X in {P, G}
    scale = -beta / b.shape[0]
    ebh = err @ h.conj().T                       # S x Q
    cog_p = scale * (b.conj().T @ ebh @ g.conj().T)
    cog_g = scale * (p.conj().T @ b.conj().T @ ebh)
    return loss, beta, cog_p, cog_g


def train(ws, device, h, config, constellation, total_power, *, snr, seed=None):
    """Train the device and a power-constrained precoder against one
    channel realization at link SNR `snr`, through the coupling chain `ws`.
    The pilot block and the noise come from np.random.default_rng(seed).
    Returns
    (device, Precoder, LossReport); `device` is mutated to (and returned
    at) the best-loss iterate.

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
    noise_scale = np.sqrt(sigma2 / 2.0)

    g0 = ForwardOperator(ws, device.taus()).matrix
    tp = TrainablePrecoder(total_power, mmse_precoder(g0, h, snr, total_power).matrix)
    n = device.n_params
    x0 = np.concatenate([device.flat(), tp.flat()])
    start = rng.bit_generator.state      # restarts replay the same noise

    def loss_and_grad(x):
        device.set_flat(x[:n])
        tp.set_flat(x[n:])
        noise = noise_scale * (rng.standard_normal((s, k))
                               + 1j * rng.standard_normal((s, k)))
        fwd = ForwardOperator(ws, device.taus())
        loss, _, cog_p, cog_g = _loss_and_cograds(b, tp.matrix(), fwd.matrix, h, noise)
        return loss, np.concatenate([device.param_grad(fwd.tau_cogradients(cog_g)),
                                     tp.param_grad(cog_p)])

    def diverged(losses):
        if not np.isfinite(losses[-1]):
            raise FloatingPointError(
                f"non-finite training loss at iteration {len(losses) - 1}")
        return losses[-1] > 10.0 * losses[0]

    report = LossReport()
    for step_size in (config.step_size, 0.5 * config.step_size):
        rng.bit_generator.state = start
        x, _, losses = minimize(loss_and_grad, x0, make_optimizer(config.optimizer, step_size),
                                max(config.iterations, 1), diverged)
        if not diverged(losses):
            break
        report.restarted = True
    else:
        raise TrainingDivergenceError(
            f"training diverged at step sizes {config.step_size} and {step_size}")

    device.set_flat(x[:n])
    tp.set_flat(x[n:])
    g = ForwardOperator(ws, device.taus()).matrix
    p = tp.matrix()
    f = effective_channel(p, g, h)
    if optimal_receiver_scale(f, sigma2) < 0:
        p, f = -p, -f
    report.losses = losses
    report.beta = optimal_receiver_scale(f, sigma2)
    report.radiated_power = radiated_power(p, g)
    return device, Precoder(p, total_power, report.beta), report


def finite_difference_check(step=1e-4, seed=7, snr=10.0):
    """Analytic gradients vs central finite differences on a downscaled
    system (L=3, 4x4 cells, N=K=2, one amplitude layer).

    Checks every trainable parameter of the training loss (device backing
    parameters and precoder real/imaginary parts) for one fixed pilot
    block and noise draw. Returns a dict of max relative errors.
    """
    from .geometry import make_geometry
    from .linklevel import make_constellation

    rng = np.random.default_rng(seed)
    # unit carrier wavelength; half-wavelength spacings and (lambda/2)^2 areas
    geometry = make_geometry(n_antennas=2, antenna_spacing=0.5,
                             array_to_first_layer=0.5, inter_layer_spacing=0.5,
                             n_layers=3, layer_cells=(4, 4), cell_spacing=0.5,
                             carrier_frequency=3.0e8, antenna_effective_area=0.25,
                             meta_atom_area=0.25)
    ws = coupling_chain(geometry)
    device = SimDevice(geometry.grid.count, ["ac", "pc", "pc"], rng=rng)
    k, n, s = 2, 2, 16
    total_power = float(k)
    h = (rng.standard_normal((16, k)) + 1j * rng.standard_normal((16, k))) / np.sqrt(2)
    qpsk = make_constellation(4)
    b = qpsk.points[rng.integers(0, 4, (s, k))]
    sigma2 = total_power / (k * snr)
    noise = np.sqrt(sigma2 / 2) * (rng.standard_normal((s, k))
                                   + 1j * rng.standard_normal((s, k)))
    tp = TrainablePrecoder(total_power,
                           rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))

    fwd = ForwardOperator(ws, device.taus())
    loss0, beta, cog_p, cog_g = _loss_and_cograds(b, tp.matrix(), fwd.matrix, h, noise)
    grad_dev = device.param_grad(fwd.tau_cogradients(cog_g))
    grad_pre = tp.param_grad(cog_p)

    def loss_at(dev_flat, pre_flat):
        device.set_flat(dev_flat)
        tp.set_flat(pre_flat)
        g = ForwardOperator(ws, device.taus()).matrix
        return empirical_mse(tp.matrix(), g, h, b, noise)[0]

    dev0, pre0 = device.flat(), tp.flat()

    def central(x0, other_first, i, analytic):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += step
        xm[i] -= step
        if other_first:
            fd = (loss_at(dev0, xp) - loss_at(dev0, xm)) / (2 * step)
        else:
            fd = (loss_at(xp, pre0) - loss_at(xm, pre0)) / (2 * step)
        return abs(fd - analytic) / max(abs(fd), 1e-12)

    err_dev = max(central(dev0, False, i, grad_dev[i]) for i in range(dev0.size))
    err_pre = max(central(pre0, True, i, grad_pre[i]) for i in range(pre0.size))
    device.set_flat(dev0)
    tp.set_flat(pre0)
    return {"device": err_dev, "precoder": err_pre,
            "n_parameters": dev0.size + pre0.size, "loss": loss0, "beta": beta}
