import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit, logit

from simstack.device import DeviceConfig, SimDevice

MIXED_STACKS = [("pc", "ac", "pc"), ("ac", "ac", "pc", "ac", "pc"), ("pc",), ("ac",)]


def _device(rng=None, kinds=("pc", "ac", "pc")):
    return SimDevice(4, DeviceConfig(kinds), rng=rng or np.random.default_rng(3))


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


def _layers(dev, x):
    kinds = ["pc" if pc else "ac" for pc in dev.pc]
    frozen = [None if pc else phi for pc, phi in zip(dev.pc, dev.frozen_phases)]
    return kinds, list(x.reshape(dev.params.shape)), frozen


def _layerwise_taus(dev, x):
    out = []
    for kind, p, phi in zip(*_layers(dev, x)):
        if kind == "pc":
            out.append(dev.pc_amplitude * np.exp(1j * p))
        else:
            alpha = dev.alpha_min + (dev.alpha_max - dev.alpha_min) * expit(p)
            out.append(alpha * np.exp(1j * phi))
    return out


def _layerwise_param_grad(dev, x, tau_cograds):
    parts = []
    for kind, p, phi, tau, gbar in zip(*_layers(dev, x), _layerwise_taus(dev, x),
                                       tau_cograds):
        if kind == "pc":
            parts.append(-2.0 * np.imag(np.conj(gbar) * tau))
        else:
            s = expit(p)
            dalpha_du = (dev.alpha_max - dev.alpha_min) * s * (1.0 - s)
            parts.append(2.0 * np.real(np.conj(gbar) * np.exp(1j * phi)) * dalpha_du)
    return np.concatenate(parts)


def _phases(dev, x):
    """Per-layer phases wrapped to [0, 2*pi)."""
    return np.mod(np.angle(dev.taus(x)), 2.0 * np.pi)


def test_constructor_validation():
    with pytest.raises(ValueError):
        SimDevice(4, DeviceConfig(["nope"]))
    with pytest.raises(ValueError):
        SimDevice(4, DeviceConfig(["ac"], gain_bounds_db=(5.0, -5.0)))


# values SimDevice took before it read the config's own checks
@pytest.mark.parametrize("key, value", [
    ("pc_amplitude", -1.0), ("pc_amplitude", np.inf), ("gain_bounds_db", (np.nan, 13.0)),
    ("gain_bounds_db", (-22.0, np.inf)), ("gain_bounds_db", (-np.inf, 13.0)),
])
def test_device_config_rejects(key, value):
    with pytest.raises(ValueError, match=key):
        DeviceConfig(["pc"], **{key: value})


def test_device_config_takes_a_list_of_kinds():
    assert DeviceConfig(["ac", "pc"]) == DeviceConfig(("ac", "pc"))


def test_from_geometry_sizes(small_geometry):
    dev = SimDevice(small_geometry.n_cells, DeviceConfig(("ac", "pc", "pc")),
                    rng=np.random.default_rng(0))
    assert dev.params.shape == dev.frozen_phases.shape == (3, 16)
    assert dev.pc.tolist() == [False, True, True]
    assert dev.params.size == 48
    assert dev.taus(dev.params.ravel()).shape == (3, 16)


@pytest.mark.parametrize("kinds", MIXED_STACKS)
def test_seeded_device_matches_layerwise_draws(kinds):
    dev = SimDevice(6, DeviceConfig(kinds), rng=np.random.default_rng(17))
    params, frozen = _layerwise_init(6, kinds, np.random.default_rng(17))
    assert np.array_equal(dev.params, np.array(params))
    for ell, phi in enumerate(frozen):
        assert np.array_equal(dev.frozen_phases[ell], np.zeros(6) if phi is None else phi)


@pytest.mark.parametrize("kinds", MIXED_STACKS)
def test_taus_and_param_grad_match_layerwise_oracle(kinds, rng):
    dev = SimDevice(5, DeviceConfig(kinds), rng=rng)
    shape = (len(kinds), 5)
    for scale in (1.0, 40.0):
        x = scale * rng.normal(size=dev.params.size)
        cograds = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert np.array_equal(dev.taus(x), np.array(_layerwise_taus(dev, x)))
        assert np.array_equal(dev.param_grad(x, cograds),
                              _layerwise_param_grad(dev, x, list(cograds)))


def test_pc_amplitude_fixed():
    dev = _device()
    amps = np.abs(dev.taus(dev.params.ravel()))
    assert np.allclose(amps[0], 0.9)
    assert np.allclose(amps[2], 0.9)


def test_ac_initialized_at_midpoint_gain():
    dev = SimDevice(8, DeviceConfig(["ac"], gain_bounds_db=(-22.0, 13.0)),
                    rng=np.random.default_rng(1))
    want = 10.0 ** ((-22.0 + 13.0) / 2.0 / 20.0)
    assert np.allclose(np.abs(dev.taus(dev.params.ravel())[0]), want, rtol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50.0, 50.0), min_size=12, max_size=12))
def test_amplitudes_respect_bounds(values):
    dev = _device(kinds=("ac", "ac", "ac"))
    lo = 10.0 ** (-22.0 / 20.0)
    hi = 10.0 ** (13.0 / 20.0)
    amps = np.abs(dev.taus(np.asarray(values)))
    assert np.all(amps >= lo - 1e-12)
    assert np.all(amps <= hi + 1e-12)


def test_flat_round_trip(rng):
    dev = _device()
    x = dev.params.ravel()
    assert x.shape == (12,)
    # row by row: layer l reads x[4l:4l+4]
    y = x.copy()
    y[4:8] = rng.normal(size=4)
    assert np.any(dev.taus(y) != dev.taus(x), axis=1).tolist() == [False, True, False]
    for bad in (np.zeros(11), np.zeros(13)):
        with pytest.raises(ValueError):
            dev.taus(bad)
        with pytest.raises(ValueError):
            dev.param_grad(bad, np.zeros((3, 4), dtype=complex))


def test_params_are_read_only():
    dev = _device()
    with pytest.raises(ValueError):
        dev.params[0, 0] = 1.0


def test_ac_phases_frozen_under_updates(rng):
    dev = _device()
    before = np.angle(dev.taus(dev.params.ravel())[1])
    after = np.angle(dev.taus(rng.normal(size=12))[1])
    assert np.allclose(before, after)


def test_phases_wrapped():
    """An unbounded pc parameter is the phase of its tau modulo 2*pi."""
    dev = _device()
    x = np.linspace(-30.0, 30.0, 12)
    ph = _phases(dev, x)
    assert np.all(ph >= 0.0)
    assert np.all(ph < 2.0 * np.pi)
    off = ph[dev.pc] - x.reshape(3, 4)[dev.pc]
    assert np.allclose(np.exp(1j * off), 1.0, atol=1e-12)


def test_param_grad_matches_finite_difference(rng):
    """phi(x) = 2 Re sum_l <c_l, tau_l(x)> has tau cogradients exactly c_l."""
    dev = _device()
    cs = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))

    def loss_at(x):
        return 2.0 * np.real(np.vdot(cs, dev.taus(x)))

    x0 = dev.params.ravel()
    grad = dev.param_grad(x0, cs)
    assert grad.shape == (12,)
    eps = 1e-6
    for i in range(12):
        up, dn = x0.copy(), x0.copy()
        up[i] += eps
        dn[i] -= eps
        fd = (loss_at(up) - loss_at(dn)) / (2 * eps)
        assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))


def test_param_grad_zero_cograd_is_zero():
    dev = _device()
    grad = dev.param_grad(dev.params.ravel(), np.zeros((3, 4), dtype=complex))
    assert np.array_equal(grad, np.zeros(12))
