"""Stacked-layer transmissive device with per-layer parameterizations.

Two layer kinds:

  "pc"  phase-configurable: tau_q = a * exp(j*theta_q), fixed amplitude a,
        trainable unconstrained phase theta_q (wrapped only at readout).
  "ac"  amplitude-configurable: tau_q = alpha_q * exp(j*phi_q), frozen
        random phase phi_q, amplitude confined to [alpha_min, alpha_max]
        through a sigmoid reparameterization
            alpha = alpha_min + (alpha_max - alpha_min) * sigmoid(u)
        with u trainable and unbounded.

The device exposes its trainable state as one flat real vector so that any
first-order optimizer can drive it, and converts cogradients with respect
to the tau vectors (see ForwardOperator.tau_cogradients) into gradients
with respect to that flat vector.
"""

import numpy as np
from scipy.special import expit, logit

LAYER_KINDS = ("pc", "ac")


def _db_to_linear(db):
    return 10.0 ** (db / 20.0)


class SimDevice:
    """Trainable transmission state for a stack of metasurface layers."""

    def __init__(self, sizes, kinds, *, pc_amplitude=0.9,
                 ac_gain_bounds_db=(-22.0, 13.0), rng=None):
        sizes = [int(s) for s in sizes]
        kinds = [str(k) for k in kinds]
        if len(sizes) != len(kinds):
            raise ValueError("one kind per layer required")
        for k in kinds:
            if k not in LAYER_KINDS:
                raise ValueError(f"unknown layer kind {k!r}")
        if rng is None:
            rng = np.random.default_rng()
        lo_db, hi_db = ac_gain_bounds_db
        if hi_db <= lo_db:
            raise ValueError("ac gain upper bound must exceed lower bound")
        self.sizes = sizes
        self.kinds = kinds
        self.pc_amplitude = float(pc_amplitude)
        self.alpha_min = _db_to_linear(lo_db)
        self.alpha_max = _db_to_linear(hi_db)
        # geometric midpoint of the gain range (arithmetic in dB)
        alpha0 = _db_to_linear(0.5 * (lo_db + hi_db))
        u0 = logit((alpha0 - self.alpha_min) / (self.alpha_max - self.alpha_min))
        self.params = []
        self.frozen_phases = []
        for size, kind in zip(sizes, kinds):
            if kind == "pc":
                self.params.append(rng.uniform(0.0, 2.0 * np.pi, size))
                self.frozen_phases.append(None)
            else:
                self.params.append(np.full(size, u0))
                self.frozen_phases.append(rng.uniform(0.0, 2.0 * np.pi, size))

    @classmethod
    def from_geometry(cls, geometry, kinds, **kwargs):
        return cls([g.count for g in geometry.layers], kinds, **kwargs)

    @property
    def n_layers(self):
        return len(self.sizes)

    @property
    def n_params(self):
        return sum(self.sizes)

    def _alphas(self, u):
        return self.alpha_min + (self.alpha_max - self.alpha_min) * expit(u)

    def taus(self):
        """Per-layer complex transmission vectors."""
        out = []
        for kind, p, phi in zip(self.kinds, self.params, self.frozen_phases):
            if kind == "pc":
                out.append(self.pc_amplitude * np.exp(1j * p))
            else:
                out.append(self._alphas(p) * np.exp(1j * phi))
        return out

    def flat(self):
        return np.concatenate(self.params)

    def set_flat(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got {x.shape}")
        i = 0
        for ell, size in enumerate(self.sizes):
            self.params[ell] = x[i:i + size].copy()
            i += size

    def param_grad(self, tau_cograds):
        """Real gradient of the loss with respect to flat(), from the
        per-layer tau cogradients (convention dL = 2 Re sum conj(gbar)*dtau).
        """
        taus = self.taus()
        parts = []
        for kind, p, phi, tau, gbar in zip(self.kinds, self.params,
                                           self.frozen_phases, taus, tau_cograds):
            if kind == "pc":
                parts.append(-2.0 * np.imag(np.conj(gbar) * tau))
            else:
                s = expit(p)
                dalpha_du = (self.alpha_max - self.alpha_min) * s * (1.0 - s)
                parts.append(2.0 * np.real(np.conj(gbar) * np.exp(1j * phi)) * dalpha_du)
        return np.concatenate(parts)

    def phases(self):
        """Per-layer phases wrapped to [0, 2*pi)."""
        return [np.mod(np.angle(t), 2.0 * np.pi) for t in self.taus()]

    def amplitudes(self):
        return [np.abs(t) for t in self.taus()]
