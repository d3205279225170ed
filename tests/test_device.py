import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit, logit

from simstack.device import SimDevice

MIXED_STACKS = [("pc", "ac", "pc"), ("ac", "ac", "pc", "ac", "pc"), ("pc",), ("ac",)]


def _device(rng=None, kinds=("pc", "ac", "pc")):
    return SimDevice(4, kinds, rng=rng or np.random.default_rng(3))


# Layer-by-layer oracle: the device as a list of per-layer vectors, one
# kind at a time, the way the state was kept before it became one (L, Q)
# array.

def _layerwise_init(n_cells, kinds, rng, bounds_db=(-22.0, 13.0)):
    a_min, a_max = (10.0 ** (b / 20.0) for b in bounds_db)
    alpha0 = 10.0 ** (0.5 * (bounds_db[0] + bounds_db[1]) / 20.0)
    u0 = logit((alpha0 - a_min) / (a_max - a_min))
    params, frozen = [], []
    for kind in kinds:
        if kind == "pc":
            params.append(rng.uniform(0.0, 2.0 * np.pi, n_cells))
            frozen.append(None)
        else:
            params.append(np.full(n_cells, u0))
            frozen.append(rng.uniform(0.0, 2.0 * np.pi, n_cells))
    return params, frozen


def _layers(dev):
    kinds = ["pc" if pc else "ac" for pc in dev.pc]
    frozen = [None if pc else phi for pc, phi in zip(dev.pc, dev.frozen_phases)]
    return kinds, list(dev.params), frozen


def _layerwise_taus(dev):
    out = []
    for kind, p, phi in zip(*_layers(dev)):
        if kind == "pc":
            out.append(dev.pc_amplitude * np.exp(1j * p))
        else:
            alpha = dev.alpha_min + (dev.alpha_max - dev.alpha_min) * expit(p)
            out.append(alpha * np.exp(1j * phi))
    return out


def _layerwise_param_grad(dev, tau_cograds):
    parts = []
    for kind, p, phi, tau, gbar in zip(*_layers(dev), _layerwise_taus(dev), tau_cograds):
        if kind == "pc":
            parts.append(-2.0 * np.imag(np.conj(gbar) * tau))
        else:
            s = expit(p)
            dalpha_du = (dev.alpha_max - dev.alpha_min) * s * (1.0 - s)
            parts.append(2.0 * np.real(np.conj(gbar) * np.exp(1j * phi)) * dalpha_du)
    return np.concatenate(parts)


def _phases(dev):
    """Per-layer phases wrapped to [0, 2*pi)."""
    return np.mod(np.angle(dev.taus()), 2.0 * np.pi)


def test_constructor_validation():
    with pytest.raises(ValueError):
        SimDevice(4, ["nope"])
    with pytest.raises(ValueError):
        SimDevice(4, ["ac"], ac_gain_bounds_db=(5.0, -5.0))


def test_from_geometry_sizes(small_geometry):
    dev = SimDevice(small_geometry.n_cells, ("ac", "pc", "pc"),
                    rng=np.random.default_rng(0))
    assert dev.params.shape == dev.frozen_phases.shape == (3, 16)
    assert dev.pc.tolist() == [False, True, True]
    assert dev.n_params == 48
    assert dev.taus().shape == (3, 16)


@pytest.mark.parametrize("kinds", MIXED_STACKS)
def test_seeded_device_matches_layerwise_draws(kinds):
    dev = SimDevice(6, kinds, rng=np.random.default_rng(17))
    params, frozen = _layerwise_init(6, kinds, np.random.default_rng(17))
    assert np.array_equal(dev.params, np.array(params))
    for ell, phi in enumerate(frozen):
        assert np.array_equal(dev.frozen_phases[ell], np.zeros(6) if phi is None else phi)


@pytest.mark.parametrize("kinds", MIXED_STACKS)
def test_taus_and_param_grad_match_layerwise_oracle(kinds, rng):
    dev = SimDevice(5, kinds, rng=rng)
    shape = (len(kinds), 5)
    for scale in (1.0, 40.0):
        dev.set_flat(scale * rng.normal(size=dev.n_params))
        cograds = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert np.array_equal(dev.taus(), np.array(_layerwise_taus(dev)))
        assert np.array_equal(dev.param_grad(cograds),
                              _layerwise_param_grad(dev, list(cograds)))


def test_pc_amplitude_fixed():
    dev = _device()
    amps = np.abs(dev.taus())
    assert np.allclose(amps[0], 0.9)
    assert np.allclose(amps[2], 0.9)


def test_ac_initialized_at_midpoint_gain():
    dev = SimDevice(8, ["ac"], ac_gain_bounds_db=(-22.0, 13.0),
                    rng=np.random.default_rng(1))
    want = 10.0 ** ((-22.0 + 13.0) / 2.0 / 20.0)
    assert np.allclose(np.abs(dev.taus()[0]), want, rtol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50.0, 50.0), min_size=12, max_size=12))
def test_amplitudes_respect_bounds(values):
    dev = _device(kinds=("ac", "ac", "ac"))
    dev.set_flat(np.asarray(values))
    lo = 10.0 ** (-22.0 / 20.0)
    hi = 10.0 ** (13.0 / 20.0)
    amps = np.abs(dev.taus())
    assert np.all(amps >= lo - 1e-12)
    assert np.all(amps <= hi + 1e-12)


def test_flat_round_trip(rng):
    dev = _device()
    x = dev.flat()
    assert x.shape == (12,)
    dev.set_flat(x)
    assert np.array_equal(dev.flat(), x)
    y = rng.normal(size=12)
    dev.set_flat(y)
    assert np.allclose(dev.flat(), y)
    # row by row: layer l holds flat()[4l:4l+4]
    assert np.array_equal(dev.params[1], y[4:8])
    with pytest.raises(ValueError):
        dev.set_flat(np.zeros(11))


def test_set_flat_copies_input(rng):
    dev = _device()
    y = rng.normal(size=12)
    dev.set_flat(y)
    y[0] += 1.0
    assert dev.flat()[0] != y[0]
    x = dev.flat()
    x[1] += 1.0
    assert dev.flat()[1] != x[1]


def test_ac_phases_frozen_under_updates(rng):
    dev = _device()
    before = np.angle(dev.taus()[1])
    dev.set_flat(rng.normal(size=12))
    after = np.angle(dev.taus()[1])
    assert np.allclose(before, after)


def test_phases_wrapped():
    """An unbounded pc parameter is the phase of its tau modulo 2*pi."""
    dev = _device()
    x = np.linspace(-30.0, 30.0, 12)
    dev.set_flat(x)
    ph = _phases(dev)
    assert np.all(ph >= 0.0)
    assert np.all(ph < 2.0 * np.pi)
    off = ph[dev.pc] - x.reshape(3, 4)[dev.pc]
    assert np.allclose(np.exp(1j * off), 1.0, atol=1e-12)


def test_param_grad_matches_finite_difference(rng):
    """phi(x) = 2 Re sum_l <c_l, tau_l(x)> has tau cogradients exactly c_l."""
    dev = _device()
    cs = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))

    def loss_at(x):
        dev.set_flat(x)
        return 2.0 * np.real(np.vdot(cs, dev.taus()))

    x0 = dev.flat()
    dev.set_flat(x0)
    grad = dev.param_grad(cs)
    assert grad.shape == (12,)
    eps = 1e-6
    for i in range(12):
        up, dn = x0.copy(), x0.copy()
        up[i] += eps
        dn[i] -= eps
        fd = (loss_at(up) - loss_at(dn)) / (2 * eps)
        assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))
    dev.set_flat(x0)


def test_param_grad_zero_cograd_is_zero():
    dev = _device()
    grad = dev.param_grad(np.zeros((3, 4), dtype=complex))
    assert np.array_equal(grad, np.zeros(12))
