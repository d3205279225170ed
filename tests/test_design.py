import re
import warnings

import numpy as np
import pytest

from simstack import design
from simstack.design import (DegenerateChannelError, FitConfig, fit_sim_to_target,
                             svd_target)
from simstack.device import DeviceConfig, SimDevice
from simstack.geometry import SimGeometry
from simstack.propagation import ForwardOperator, coupling_chain


def _geometry(n_layers):
    return SimGeometry(n_antennas=2, n_layers=n_layers, layer_cells=(4, 4),
                       carrier_frequency_hz=3.0e8, array_to_first_layer_wl=0.5)


def _forward(geometry, device, x):
    return ForwardOperator(coupling_chain(geometry), device.taus(x)).matrix


def _refused_before_first_sweep(monkeypatch, target, error, match):
    """Fit `target` through the 2-layer chain: it must raise `error`, with no
    warning and before any ForwardOperator is built."""
    built = []

    def counting(*args):
        built.append(args)
        return ForwardOperator(*args)
    monkeypatch.setattr(design, "ForwardOperator", counting)
    device = SimDevice(16, DeviceConfig(("pc", "pc")), rng=np.random.default_rng(8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            fit_sim_to_target(coupling_chain(_geometry(2)), device, target,
                              FitConfig(iterations=50))
    assert built == []


class TestSvdTarget:
    def test_orthonormal_left_vectors(self, rng):
        h = rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))
        target = svd_target(h, 4)
        assert target.shape == (4, 16)
        left = np.linalg.svd(h)[0][:, :4]
        assert np.allclose(target, left.conj().T)
        assert np.allclose(left.conj().T @ left, np.eye(4), atol=1e-12)
        # h's columns lie in the span of the target's rows
        assert np.allclose(left @ (target @ h), h, atol=1e-12)

    def test_target_preserves_channel_singular_values(self, rng):
        h = rng.normal(size=(16, 3)) + 1j * rng.normal(size=(16, 3))
        target = svd_target(h, 4)
        s_eff = np.linalg.svd(target @ h, compute_uv=False)
        s_h = np.linalg.svd(h, compute_uv=False)
        assert np.allclose(np.sort(s_eff), np.sort(s_h), rtol=1e-12)

    def test_scaled_isometry_channel(self, rng):
        # h with orthonormal columns scaled by c has all singular values c
        a = rng.normal(size=(10, 2)) + 1j * rng.normal(size=(10, 2))
        qmat, _ = np.linalg.qr(a)
        target = svd_target(2.5 * qmat, 3)
        s_eff = np.linalg.svd(target @ (2.5 * qmat),
                              compute_uv=False)
        assert np.allclose(s_eff, 2.5, rtol=1e-12)

    def test_rejects_bad_dimensions(self, rng):
        h = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        with pytest.raises(ValueError):
            svd_target(h, 5)  # N > Q
        with pytest.raises(ValueError):
            svd_target(h, 2)  # N < K

    def test_rejects_rank_deficient_channel(self, rng):
        col = rng.normal(size=(8, 1)) + 1j * rng.normal(size=(8, 1))
        h = np.concatenate([col, 2.0 * col], axis=1)
        with pytest.raises(DegenerateChannelError):
            svd_target(h, 3)


class TestFit:
    def test_single_layer_recovers_expressible_target(self):
        geom = _geometry(1)
        teacher = SimDevice(16, DeviceConfig(("pc",)), rng=np.random.default_rng(11))
        target = _forward(geom, teacher, teacher.params.ravel())
        student = SimDevice(16, DeviceConfig(("pc",)), rng=np.random.default_rng(22))
        result = fit_sim_to_target(coupling_chain(geom), student, target,
                                   FitConfig(iterations=4000, step_size=0.05,
                                             tolerance=1e-3))
        assert result.converged
        assert result.residual < 1e-3
        achieved = np.linalg.norm(_forward(geom, student, result.params) - target) \
            / np.linalg.norm(target)
        assert np.isclose(achieved, result.residual, atol=1e-12)

    def test_deep_stack_improves_over_start(self, rng):
        geom = _geometry(3)
        device = SimDevice(16, DeviceConfig(("pc", "pc", "pc")),
                           rng=np.random.default_rng(5))
        h = rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2))
        target = svd_target(h, 2)
        start = np.linalg.norm(_forward(geom, device, device.params.ravel()) - target) \
            / np.linalg.norm(target)
        result = fit_sim_to_target(coupling_chain(geom), device, target,
                                   FitConfig(iterations=300, step_size=0.05))
        assert result.residual < start
        assert result.n_iterations == 300

    def test_best_iterate_is_kept(self, rng):
        # huge step size makes the trajectory bounce; the fit must still
        # return the best visited point
        geom = _geometry(2)
        device = SimDevice(16, DeviceConfig(("pc", "pc")), rng=np.random.default_rng(8))
        h = rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2))
        target = svd_target(h, 2)
        result = fit_sim_to_target(coupling_chain(geom), device, target,
                                   FitConfig(iterations=50, step_size=5.0))
        achieved = np.linalg.norm(_forward(geom, device, result.params) - target) \
            / np.linalg.norm(target)
        assert np.isclose(achieved, result.residual, atol=1e-12)

    def test_zero_iterations_reports_initial_state(self, rng):
        geom = _geometry(2)
        device = SimDevice(16, DeviceConfig(("pc", "pc")), rng=np.random.default_rng(8))
        h = rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2))
        target = svd_target(h, 2)
        result = fit_sim_to_target(coupling_chain(geom), device, target,
                                   FitConfig(iterations=0))
        assert result.n_iterations == 0
        assert np.array_equal(result.params, device.params.ravel())
        start = np.linalg.norm(_forward(geom, device, result.params) - target) \
            / np.linalg.norm(target)
        assert np.isclose(result.residual, start, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_target_raises_at_first_evaluation(self, monkeypatch, rng, bad):
        target = svd_target(rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2)), 2)
        target[1, 5] = bad
        _refused_before_first_sweep(monkeypatch, target, FloatingPointError,
                                    "^non-finite loss at evaluation 0$")

    def test_zero_target_raises_at_first_evaluation(self, monkeypatch):
        _refused_before_first_sweep(monkeypatch, np.zeros((2, 16), dtype=complex),
                                    FloatingPointError, "^non-finite loss at evaluation 0$")

    # the chain's response is N x Q = 2 x 16
    @pytest.mark.parametrize("shape", [(1, 16), (16,), (2, 1)], ids=["row", "flat", "column"])
    def test_wrong_shape_target_raises(self, monkeypatch, shape):
        _refused_before_first_sweep(monkeypatch, np.ones(shape, dtype=complex), ValueError,
                                    re.escape(f"target has shape {shape}, "
                                              f"the chain's response (2, 16)"))

    def test_reached_target_takes_no_step(self):
        # the device's own response is met at the first evaluation
        geom = _geometry(2)
        device = SimDevice(16, DeviceConfig(("pc", "pc")), rng=np.random.default_rng(8))
        x0 = device.params.ravel()
        result = fit_sim_to_target(coupling_chain(geom), device, _forward(geom, device, x0))
        assert result.converged and result.residual == 0.0
        assert result.n_iterations == 0
        assert np.array_equal(result.params, x0)

    def test_leaves_device_and_target_unchanged(self, rng):
        geom = _geometry(2)
        device = SimDevice(16, DeviceConfig(("ac", "pc")), rng=np.random.default_rng(8))
        params = device.params.copy()
        target = svd_target(rng.normal(size=(16, 2)) + 1j * rng.normal(size=(16, 2)), 2)
        target_before = target.copy()
        result = fit_sim_to_target(coupling_chain(geom), device, target,
                                   FitConfig(iterations=20))
        assert not np.array_equal(result.params, params.ravel())
        assert np.array_equal(device.params, params)
        assert not device.params.flags.writeable
        assert np.array_equal(target, target_before)

    @pytest.mark.parametrize("key, value", [("iterations", -2), ("step_size", 0.0),
                                            ("step_size", np.inf), ("tolerance", -1e-3)])
    def test_config_rejects(self, key, value):
        with pytest.raises(ValueError, match=key):
            FitConfig(**{key: value})
