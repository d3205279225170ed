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

The state is one (L, Q) array of trainable parameters (theta on pc rows,
u on ac rows), one (L, Q) array of frozen phases (zero on pc rows) and a
boolean row mask `pc`. The device exposes the parameters as one flat real
vector, row by row, so that any first-order optimizer can drive it, and
converts the (L, Q) cogradients with respect to tau (see
ForwardOperator.tau_cogradients) into gradients with respect to that flat
vector.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit, logit

from .geometry import _positive

LAYER_KINDS = ("pc", "ac")


def _db_to_linear(db):
    return 10.0 ** (db / 20.0)


# Config readers of the list-valued keys; a ValueError names the key.

def _layer_kinds(value, where):
    bad = [k for k in value if k not in LAYER_KINDS]
    if bad:
        raise ValueError(f"{where}: unknown layer kinds {bad}")
    return tuple(value)


def _number_pair(value, where):
    if len(value) != 2 or not all(isinstance(v, (int, float)) for v in value):
        raise ValueError(f"{where}: expected a pair of numbers")
    return tuple(float(v) for v in value)


@dataclass(frozen=True)
class DeviceConfig:
    """A stack's layer kinds, in order, with the (lower, upper) gain of an ac
    atom in dB and the amplitude of a pc atom; also the `device` section of
    a config."""

    layer_kinds: tuple = field(metadata={"read": _layer_kinds})
    gain_bounds_db: tuple = field(default=(-22.0, 13.0), metadata={"read": _number_pair})
    pc_amplitude: float = 0.9

    def __post_init__(self):
        object.__setattr__(self, "layer_kinds", _layer_kinds(self.layer_kinds, "layer_kinds"))
        if not -math.inf < self.gain_bounds_db[0] < self.gain_bounds_db[1] < math.inf:
            raise ValueError(f"gain_bounds_db must be finite and ascending, "
                             f"got {self.gain_bounds_db}")
        _positive(self, "pc_amplitude")


class SimDevice:
    """Trainable transmission state of the stack `config` (a DeviceConfig)
    declares, `n_cells` atoms per layer."""

    def __init__(self, n_cells, config, rng=None):
        rng = np.random.default_rng(rng)
        lo_db, hi_db = config.gain_bounds_db
        self.pc = np.array([k == "pc" for k in config.layer_kinds], dtype=bool)
        self.pc_amplitude = float(config.pc_amplitude)
        self.alpha_min = _db_to_linear(lo_db)
        self.alpha_max = _db_to_linear(hi_db)
        # geometric midpoint of the gain range (arithmetic in dB)
        alpha0 = _db_to_linear(0.5 * (lo_db + hi_db))
        u0 = logit((alpha0 - self.alpha_min) / (self.alpha_max - self.alpha_min))
        shape = (len(self.pc), int(n_cells))
        self.params = np.full(shape, u0)
        self.frozen_phases = np.zeros(shape)
        # one draw per layer, in layer order: the phases of a pc layer, the
        # frozen phases of an ac layer
        for ell, pc in enumerate(self.pc):
            (self.params if pc else self.frozen_phases)[ell] = \
                rng.uniform(0.0, 2.0 * np.pi, shape[1])
        self._frozen_phasors = np.exp(1j * self.frozen_phases[~self.pc])

    @property
    def n_params(self):
        return self.params.size

    def taus(self):
        """The (L, Q) complex transmission state."""
        pc, ac = self.pc, ~self.pc
        taus = np.empty(self.params.shape, complex)
        taus[pc] = self.pc_amplitude * np.exp(1j * self.params[pc])
        taus[ac] = (self.alpha_min + (self.alpha_max - self.alpha_min)
                    * expit(self.params[ac])) * self._frozen_phasors
        return taus

    def flat(self):
        return self.params.flatten()

    def set_flat(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {x.shape}")
        self.params = x.reshape(self.params.shape).copy()

    def param_grad(self, tau_cograds):
        """Real gradient of the loss with respect to flat(), from the (L, Q)
        tau cogradients (convention dL = 2 Re sum conj(gbar)*dtau).
        """
        pc, ac = self.pc, ~self.pc
        gbar = np.conj(tau_cograds)
        s = expit(self.params[ac])
        dalpha_du = (self.alpha_max - self.alpha_min) * s * (1.0 - s)
        grad = np.empty(self.params.shape)
        grad[pc] = -2.0 * np.imag(gbar[pc] * self.taus()[pc])
        grad[ac] = 2.0 * np.real(gbar[ac] * self._frozen_phasors) * dalpha_du
        return grad.ravel()
