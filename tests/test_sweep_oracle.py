"""The two-sided sweep against the row-form engine it replaced
(tests/oracles.py).

The forward operator, the reverse sweep and the target fit give the row
engine's results bit for bit. Training reads G h off the sweep and forms
its cogradients from K x K and K x N factors, which reorders a few sums:
its loss and gradient agree with the row engine's within stated relative
tolerances.
"""

import copy

import numpy as np
import pytest
from oracles import RowForwardOperator, row_evaluate

from simstack import design, training
from simstack.device import DeviceConfig, SimDevice
from simstack.linklevel import generate_channel, make_constellation
from simstack.precoding import TrainablePrecoder
from simstack.propagation import ForwardOperator, coupling_chain

QPSK = make_constellation(4)
# |loss - oracle| / |oracle| and max |grad - oracle| / max |oracle| for one
# evaluation; over 50 random states per geometry the largest seen were
# 4e-16 and 2e-13
LOSS_RTOL = 1e-14
GRAD_RTOL = 1e-12


@pytest.fixture(params=["small", "reference"])
def geometry(request, small_geometry, reference_geometry):
    return {"small": small_geometry, "reference": reference_geometry}[request.param]


def _kinds(geometry):
    return ["ac"] + ["pc"] * (geometry.n_layers - 1)


def _random_taus(ws, rng):
    shape = (len(ws), ws[0].shape[1])
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_forward_and_reverse_sweep_bit_identical(geometry, rng):
    ws = coupling_chain(geometry)
    n, q = ws[0].shape
    for _ in range(20):
        taus = _random_taus(ws, rng)
        want = RowForwardOperator(ws, taus)
        h = rng.normal(size=(q, 3)) + 1j * rng.normal(size=(q, 3))
        cog = rng.normal(size=(n, q)) + 1j * rng.normal(size=(n, q))
        expect = want.tau_cogradients(cog)
        # with or without a channel riding along, the antenna rows are the same
        for fwd in (ForwardOperator(ws, taus), ForwardOperator(ws, taus, h)):
            assert np.array_equal(fwd.matrix, want.matrix)
            assert len(fwd.prefixes) == len(want.prefixes)
            for got, ref in zip(fwd.prefixes, want.prefixes):
                assert np.array_equal(got, ref)
            assert np.array_equal(fwd.tau_cogradients(cog), expect)


def test_h_cogradients_match_reverse_sweep(geometry, rng):
    ws = coupling_chain(geometry)
    n, q = ws[0].shape
    for k in (1, 2, 5):
        taus = _random_taus(ws, rng)
        h = rng.normal(size=(q, k)) + 1j * rng.normal(size=(q, k))
        u = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
        fwd = ForwardOperator(ws, taus, h)
        assert np.array_equal(fwd.gh, fwd.matrix @ h)
        want = RowForwardOperator(ws, taus).tau_cogradients(u @ h.conj().T)
        got = fwd.h_cogradients(u)
        assert got.shape == taus.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("iterations, tolerance", [(150, 1e-3), (150, 0.9)])
def test_fit_bit_identical(geometry, monkeypatch, iterations, tolerance):
    ws = coupling_chain(geometry)
    q = geometry.n_cells
    h = generate_channel(q, geometry.n_antennas, np.random.default_rng(3))
    target = design.svd_target(h, geometry.n_antennas)
    base = SimDevice(q, DeviceConfig(_kinds(geometry)), rng=np.random.default_rng(4))
    out = []
    for engine in (ForwardOperator, RowForwardOperator):
        monkeypatch.setattr(design, "ForwardOperator", engine)
        device = copy.deepcopy(base)
        fit = design.fit_sim_to_target(ws, device, target,
                                       design.FitConfig(iterations, 0.05, tolerance))
        out.append((fit, device.flat()))
    assert out[0][0] == out[1][0]
    assert np.array_equal(out[0][1], out[1][1])
    if tolerance == 0.9:
        assert out[0][0].converged and out[0][0].n_iterations < iterations


def _evaluation_case(geometry, k, rng):
    q, n = geometry.n_cells, geometry.n_antennas
    device = SimDevice(q, DeviceConfig(_kinds(geometry)), rng=rng)
    tp = TrainablePrecoder(float(k), rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n)))
    h = generate_channel(q, k, rng)
    b = QPSK.points[rng.integers(0, 4, (40, k))]
    noise = 0.3 * (rng.normal(size=(40, k)) + 1j * rng.normal(size=(40, k)))
    return np.concatenate([device.flat(), tp.flat()]), device, tp, b, h, noise


def test_training_evaluation_within_tolerance(geometry, rng):
    ws = coupling_chain(geometry)
    for k in (1, 2):
        for _ in range(10):
            x, device, tp, b, h, noise = _evaluation_case(geometry, k, rng)
            loss, _, grad = training._evaluate(x, ws, device, tp, b, h, noise)
            loss0, _, grad0 = row_evaluate(x, ws, device, tp, b, h, noise)
            assert abs(loss - loss0) <= LOSS_RTOL * abs(loss0)
            assert np.max(np.abs(grad - grad0)) <= GRAD_RTOL * np.max(np.abs(grad0))


def test_training_trajectory_within_tolerance(small_geometry, monkeypatch):
    ws = coupling_chain(small_geometry)
    h = generate_channel(16, 2, np.random.default_rng(777))
    config = training.TrainingConfig(pilot_symbols=32, iterations=200, step_size=0.02)
    base = SimDevice(16, DeviceConfig(("ac", "pc", "pc")), rng=np.random.default_rng(4))
    out = []
    for evaluate in (training._evaluate, row_evaluate):
        monkeypatch.setattr(training, "_evaluate", evaluate)
        device, pre, report = training.train(ws, copy.deepcopy(base), h, config, QPSK,
                                             total_power=2.0, snr=10.0, seed=123)
        out.append((np.array(report.losses), device.flat(), pre.matrix))
    assert len(out[0][0]) == len(out[1][0]) == 200
    assert np.max(np.abs(out[0][0] - out[1][0]) / out[1][0]) <= 1e-10
    assert np.allclose(out[0][1], out[1][1], rtol=1e-9, atol=1e-12)
    assert np.allclose(out[0][2], out[1][2], rtol=1e-9, atol=1e-12)
