"""Stacked-layer transmissive device: L layers of Q atoms, each layer of
one kind.

Two layer kinds:

  "pc"  phase-configurable: tau_q = a * exp(j*theta_q), fixed amplitude a,
        trainable unconstrained phase theta_q (wrapped only at readout).
  "ac"  amplitude-configurable: tau_q = alpha_q * exp(j*phi_q), frozen
        random phase phi_q, amplitude confined to [alpha_min, alpha_max]
        through a sigmoid reparameterization
            alpha = alpha_min + (alpha_max - alpha_min) * sigmoid(u)
        with u trainable and unbounded.

The device holds one (L, Q) array of frozen phases (zero on pc rows), a
boolean row mask `pc` and the initial draw of the trainable parameters
(theta on pc rows, u on ac rows), but no trainable state: `taus(x)` maps a
flat real parameter vector x, row by row as `params.ravel()`, to the
transmission state, and `param_grad(x, ...)` converts the (L, Q)
cogradients with respect to tau (see ForwardOperator.tau_cogradients) into
the gradient with respect to x. The optimizer's x is the only copy of the
trainable state.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import _check_fields, _names, _numbers, _positive

LAYER_KINDS = ("pc", "ac")


def _db_to_linear(db):
    return 10.0 ** (db / 20.0)


def _sigmoid(u):
    with np.errstate(over="ignore"):    # exp(-u) = inf below u = -709.78: sigmoid 0
        return 1.0 / (1.0 + np.exp(-u))


def _logit(p):
    # log(p/(1-p)) loses precision near p = 1/2, the log1p difference does not
    if 0.3 <= p <= 0.65:
        s = 2.0 * (p - 0.5)
        return math.log1p(s) - math.log1p(-s)
    return math.log(p / (1.0 - p))


@dataclass(frozen=True)
class DeviceConfig:
    """A stack's layer kinds, in order, with the (lower, upper) gain of an ac
    atom in dB and the amplitude of a pc atom; also the `device` section of
    a config."""

    layer_kinds: tuple = field(metadata={"read": _names(LAYER_KINDS, "layer kinds")})
    gain_bounds_db: tuple = field(default=(-22.0, 13.0), metadata={"read": _numbers(2)})
    pc_amplitude: float = 0.9

    def __post_init__(self):
        _check_fields(self)
        lo, hi = self.gain_bounds_db
        if not -math.inf < lo < hi < math.inf:
            raise ValueError(f"gain_bounds_db must be finite and ascending, got {(lo, hi)}")
        _positive(self, "pc_amplitude")


class SimDevice:
    """Transmission map of the stack `config` (a DeviceConfig) declares,
    `n_cells` atoms per layer; `params` is the read-only initial draw."""

    def __init__(self, n_cells, config, rng=None):
        rng = np.random.default_rng(rng)
        lo_db, hi_db = config.gain_bounds_db
        self.pc = np.array([k == "pc" for k in config.layer_kinds], dtype=bool)
        self.pc_amplitude = float(config.pc_amplitude)
        self.alpha_min = _db_to_linear(lo_db)
        self.alpha_max = _db_to_linear(hi_db)
        # geometric midpoint of the gain range (arithmetic in dB)
        alpha0 = _db_to_linear(0.5 * (lo_db + hi_db))
        u0 = _logit((alpha0 - self.alpha_min) / (self.alpha_max - self.alpha_min))
        shape = (len(self.pc), int(n_cells))
        self.params = np.full(shape, u0)
        self.frozen_phases = np.zeros(shape)
        # one draw per layer, in layer order: the phases of a pc layer, the
        # frozen phases of an ac layer
        for ell, pc in enumerate(self.pc):
            (self.params if pc else self.frozen_phases)[ell] = \
                rng.uniform(0.0, 2.0 * np.pi, shape[1])
        self.params.flags.writeable = False
        self._frozen_phasors = np.exp(1j * self.frozen_phases[~self.pc])

    def taus(self, x):
        """The (L, Q) complex transmission state at the flat parameters x;
        a wrong-size x raises ValueError."""
        u = np.reshape(x, self.params.shape)
        pc, ac = self.pc, ~self.pc
        taus = np.empty(u.shape, complex)
        taus[pc] = self.pc_amplitude * np.exp(1j * u[pc])
        taus[ac] = (self.alpha_min + (self.alpha_max - self.alpha_min)
                    * _sigmoid(u[ac])) * self._frozen_phasors
        return taus

    def param_grad(self, x, tau_cograds):
        """Real gradient of the loss with respect to x, from the (L, Q) tau
        cogradients at x (convention dL = 2 Re sum conj(gbar)*dtau).
        """
        u = np.reshape(x, self.params.shape)
        pc, ac = self.pc, ~self.pc
        gbar = np.conj(tau_cograds)
        s = _sigmoid(u[ac])
        dalpha_du = (self.alpha_max - self.alpha_min) * s * (1.0 - s)
        grad = np.empty(u.shape)
        grad[pc] = -2.0 * np.imag(gbar[pc] * self.taus(x)[pc])
        grad[ac] = 2.0 * np.real(gbar[ac] * self._frozen_phasors) * dalpha_du
        return grad.ravel()
