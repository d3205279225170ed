import numpy as np
import pytest

from simstack.device import DeviceConfig, SimDevice
from simstack.linklevel import generate_channel, make_constellation
from simstack.precoding import Precoder, TrainablePrecoder, mmse_precoder
from simstack.propagation import ForwardOperator, coupling_chain
from simstack.training import (LossReport, TrainingConfig,
                               TrainingDivergenceError, empirical_mse,
                               finite_difference_check, train)

QPSK = make_constellation(4)


def _pilots(rng, s, k):
    return QPSK.points[rng.integers(0, 4, (s, k))]


class TestEmpiricalMse:
    def test_perfect_link_zero_noise(self, rng):
        k = 3
        b = _pilots(rng, 50, k)
        eye = np.eye(k, dtype=complex)
        loss, beta = empirical_mse(eye, eye, eye, b, np.zeros((50, k)))
        assert loss == pytest.approx(0.0, abs=1e-28)
        assert beta == pytest.approx(1.0, rel=1e-12)

    def test_dead_link_zero_noise(self, rng):
        k = 2
        b = _pilots(rng, 40, k)
        z = np.zeros((k, k), dtype=complex)
        loss, beta = empirical_mse(z, z, z, b, np.zeros((40, k)))
        # unit-energy pilots: per-symbol energy is K
        assert loss == pytest.approx(k, rel=1e-12)
        assert beta == 0.0

    def test_matches_manual_evaluation(self, rng):
        s, k, n, q = 11, 2, 3, 5
        b = _pilots(rng, s, k)
        p = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
        g = rng.normal(size=(n, q)) + 1j * rng.normal(size=(n, q))
        h = rng.normal(size=(q, k)) + 1j * rng.normal(size=(q, k))
        r = 0.1 * (rng.normal(size=(s, k)) + 1j * rng.normal(size=(s, k)))
        loss, beta = empirical_mse(p, g, h, b, r)
        y = b @ p @ g @ h + r
        beta_want = np.real(np.vdot(y, b)) / np.real(np.vdot(y, y))
        loss_want = np.linalg.norm(b - beta_want * y) ** 2 / s
        assert beta == pytest.approx(beta_want, rel=1e-12)
        assert loss == pytest.approx(loss_want, rel=1e-12)
        # batch-optimal: any other scale does worse
        for db in (-0.01, 0.01):
            worse = np.linalg.norm(b - (beta_want + db) * y) ** 2 / s
            assert worse > loss

    def test_pure_function(self, rng):
        b = _pilots(rng, 8, 2)
        p = rng.normal(size=(2, 2)) + 0j
        g = rng.normal(size=(2, 4)) + 0j
        h = rng.normal(size=(4, 2)) + 0j
        r = rng.normal(size=(8, 2)) + 0j
        copies = [a.copy() for a in (b, p, g, h, r)]
        first = empirical_mse(p, g, h, b, r)
        second = empirical_mse(p, g, h, b, r)
        assert first == second
        for a, c in zip((b, p, g, h, r), copies):
            assert np.array_equal(a, c)


class TestTrainingConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainingConfig(step_size=0.0)
        with pytest.raises(ValueError):
            TrainingConfig(pilot_symbols=0)


def _train_setup(iterations=60):
    channel_rng = np.random.default_rng(777)
    h = generate_channel(16, 2, channel_rng)
    config = TrainingConfig(pilot_symbols=32, iterations=iterations, step_size=0.02)
    return h, config


class TestTrain:
    def test_returns_trained_state(self, small_geometry):
        h, config = _train_setup()
        device = SimDevice(small_geometry.n_cells, DeviceConfig(("ac", "pc", "pc")),
                           rng=np.random.default_rng(4))
        x, pre, report = train(coupling_chain(small_geometry), device, h, config,
                               QPSK, total_power=2.0, snr=10.0, seed=123)
        assert x.shape == (device.params.size,)
        assert isinstance(report, LossReport)
        assert len(report.losses) == config.iterations
        assert min(report.losses) <= report.losses[0]
        assert np.isclose(np.linalg.norm(pre.matrix) ** 2, 2.0, rtol=1e-12)
        assert pre.beta > 0
        assert report.radiated_power > 0
        assert not report.restarted

    def test_leaves_device_and_channel_unchanged(self, small_geometry):
        h, config = _train_setup(iterations=20)
        device = SimDevice(small_geometry.n_cells, DeviceConfig(("ac", "pc", "pc")),
                           rng=np.random.default_rng(4))
        params, h_before = device.params.copy(), h.copy()
        x, _, _ = train(coupling_chain(small_geometry), device, h, config,
                        QPSK, total_power=2.0, snr=10.0, seed=123)
        assert not np.array_equal(x, params.ravel())
        assert np.array_equal(device.params, params)
        assert not device.params.flags.writeable
        assert np.array_equal(h, h_before)

    def test_deterministic_given_seed(self, small_geometry):
        h, config = _train_setup()
        base = SimDevice(small_geometry.n_cells, DeviceConfig(("ac", "pc", "pc")),
                         rng=np.random.default_rng(4))
        out = []
        for _ in range(2):
            x, pre, report = train(coupling_chain(small_geometry), base, h, config,
                                   QPSK, total_power=2.0, snr=10.0, seed=123)
            out.append((x, pre.matrix, tuple(report.losses)))
        assert np.array_equal(out[0][0], out[1][0])
        assert np.array_equal(out[0][1], out[1][1])
        assert out[0][2] == out[1][2]

    def test_seed_changes_trajectory(self, small_geometry):
        h, _ = _train_setup()
        base = SimDevice(small_geometry.n_cells, DeviceConfig(("ac", "pc", "pc")),
                         rng=np.random.default_rng(4))
        losses = []
        for seed in (1, 2):
            config = TrainingConfig(pilot_symbols=32, iterations=10, step_size=0.02)
            _, _, report = train(coupling_chain(small_geometry), base, h, config,
                                 QPSK, total_power=2.0, snr=10.0, seed=seed)
            losses.append(tuple(report.losses))
        assert losses[0] != losses[1]

    def test_zero_iterations_keeps_mmse_init(self, small_geometry):
        h, _ = _train_setup()
        config = TrainingConfig(pilot_symbols=32, iterations=0, step_size=0.02)
        device = SimDevice(small_geometry.n_cells, DeviceConfig(("ac", "pc", "pc")),
                           rng=np.random.default_rng(4))
        x0 = device.params.ravel()
        g0 = ForwardOperator(coupling_chain(small_geometry), device.taus(x0)).matrix
        p0 = mmse_precoder(g0, h, 10.0, 2.0).matrix
        x, pre, report = train(coupling_chain(small_geometry), device, h, config,
                               QPSK, total_power=2.0, snr=10.0, seed=9)
        assert np.array_equal(x, x0)
        assert np.allclose(pre.matrix, p0, rtol=1e-12)
        assert len(report.losses) == 1

    def test_training_improves_on_init(self, small_geometry):
        # enough iterations to reliably beat the model-based starting point
        h, config = _train_setup(iterations=150)
        device = SimDevice(small_geometry.n_cells, DeviceConfig(("ac", "pc", "pc")),
                           rng=np.random.default_rng(4))
        _, _, report = train(coupling_chain(small_geometry), device, h, config,
                             QPSK, total_power=2.0, snr=10.0, seed=123)
        assert min(report.losses) < report.losses[0]

    def test_rejects_pilot_block_smaller_than_users(self, small_geometry):
        h, _ = _train_setup()
        config = TrainingConfig(pilot_symbols=1, iterations=5, step_size=0.02)
        device = SimDevice(small_geometry.n_cells, DeviceConfig(("ac", "pc", "pc")),
                           rng=np.random.default_rng(4))
        with pytest.raises(ValueError):
            train(coupling_chain(small_geometry), device, h, config, QPSK, total_power=2.0,
                  snr=10.0, seed=9)

    def test_divergence_raises_after_retry(self, small_geometry):
        h, _ = _train_setup()
        # near-noiseless start so the scrambled loss clears the 10x threshold
        config = TrainingConfig(pilot_symbols=32, iterations=50, step_size=1e8,
                                optimizer="sgd")
        device = SimDevice(small_geometry.n_cells, DeviceConfig(("ac", "pc", "pc")),
                           rng=np.random.default_rng(4))
        with pytest.raises(TrainingDivergenceError):
            train(coupling_chain(small_geometry), device, h, config, QPSK, total_power=2.0,
                  snr=1e4, seed=5)

    def test_sign_flipped_precoder_gets_positive_scale(self, small_geometry, monkeypatch):
        # the pilot loss cannot tell P from -P; the returned precoder must
        # still carry a positive receiver scale
        h, _ = _train_setup()
        config = TrainingConfig(pilot_symbols=32, iterations=0, step_size=0.02)
        device = SimDevice(small_geometry.n_cells, DeviceConfig(("ac", "pc", "pc")),
                           rng=np.random.default_rng(4))
        ws = coupling_chain(small_geometry)
        p = mmse_precoder(ForwardOperator(ws, device.taus(device.params.ravel())).matrix, h,
                          10.0, 2.0).matrix

        def flipped(*args):
            pre = mmse_precoder(*args)
            return Precoder(-pre.matrix, pre.total_power, pre.beta)

        monkeypatch.setattr("simstack.training.mmse_precoder", flipped)
        _, pre, _ = train(ws, device, h, config, QPSK, total_power=2.0, snr=10.0, seed=9)
        assert pre.beta > 0
        tp = TrainablePrecoder(2.0, p)
        assert np.array_equal(pre.matrix, tp.matrix(tp.x0))
        assert np.allclose(pre.matrix, p, rtol=1e-12)


def test_evaluation_gradient_more_antennas_than_users(rng):
    """Central differences of the training evaluation with N = 4 != K = 2 on
    a mixed ac/pc stack, where swapping the K x N and N x K factors of the
    cogradients cannot go unnoticed."""
    from simstack.geometry import SimGeometry
    from simstack.training import _evaluate
    geometry = SimGeometry(n_antennas=4, n_layers=3, layer_cells=(4, 4),
                           carrier_frequency_hz=3.0e8, array_to_first_layer_wl=0.5)
    ws = coupling_chain(geometry)
    n, k, s = 4, 2, 24
    device = SimDevice(16, DeviceConfig(("pc", "ac", "pc")), rng=rng)
    tp = TrainablePrecoder(2.0, rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n)))
    h = generate_channel(16, k, rng)
    b = _pilots(rng, s, k)
    noise = 0.3 * (rng.normal(size=(s, k)) + 1j * rng.normal(size=(s, k)))
    x0 = np.concatenate([device.params.ravel(), tp.x0])
    loss0, _, grad = _evaluate(x0, ws, device, tp, b, h, noise)
    assert grad.shape == (48 + 2 * k * n,)

    def loss_at(x):
        return _evaluate(x, ws, device, tp, b, h, noise)[0]

    step = 1e-5
    fd = np.array([(loss_at(x0 + step * e) - loss_at(x0 - step * e)) / (2 * step)
                   for e in np.eye(x0.size)])
    assert np.max(np.abs(fd - grad)) <= 1e-7 * np.max(np.abs(grad))
    # the loss itself agrees with an independent forward pass
    g = ForwardOperator(ws, device.taus(x0[:48])).matrix
    assert loss_at(x0) == pytest.approx(empirical_mse(tp.matrix(x0[48:]), g, h, b, noise)[0],
                                        rel=1e-13)


def test_finite_difference_check_small_step():
    out = finite_difference_check(step=1e-4, seed=7)
    assert out["device"] < 1e-5
    assert out["precoder"] < 1e-5
    assert out["n_parameters"] == 56
