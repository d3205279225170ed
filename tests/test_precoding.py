import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import closed_form_mse, mse_with_optimal_scale, spectral_mse
from simstack.precoding import (Precoder, TrainablePrecoder, effective_channel,
                                mmse_precoder, optimal_receiver_scale)


def _random_channel(rng, q=6, n=4, k=3):
    g = rng.normal(size=(n, q)) + 1j * rng.normal(size=(n, q))
    h = rng.normal(size=(q, k)) + 1j * rng.normal(size=(q, k))
    return g, h


def test_identity_channel_closed_form():
    # g = h = I: m = I, mse = k - k/(1 + 1/snr) = k/(1 + snr)
    k, snr = 3, 10.0
    eye = np.eye(k, dtype=complex)
    assert np.isclose(closed_form_mse(eye, eye, snr), k / (1.0 + snr), rtol=1e-12)
    pre = mmse_precoder(eye, eye, snr, total_power=float(k))
    # scaled identity precoder
    assert np.allclose(pre.matrix, np.eye(k) * np.sqrt(1.0), atol=1e-12)


def test_precoder_power_invariant(rng):
    g, h = _random_channel(rng)
    pre = mmse_precoder(g, h, 5.0, total_power=4.0)
    assert np.isclose(np.linalg.norm(pre.matrix) ** 2, 4.0, rtol=1e-12)
    assert pre.beta > 0


def test_precoder_validates_power():
    bad = np.ones((2, 2), dtype=complex)
    with pytest.raises(ValueError):
        Precoder(matrix=bad, total_power=1.0, beta=1.0)
    with pytest.raises(ValueError):
        Precoder(matrix=bad, total_power=4.0, beta=-1.0)


def test_mmse_rejects_bad_snr(rng):
    g, h = _random_channel(rng)
    for snr in (0.0, -1.0, np.inf):
        with pytest.raises(ValueError):
            mmse_precoder(g, h, snr, total_power=3.0)


def test_trace_equals_spectral_form(rng):
    for _ in range(50):
        g, h = _random_channel(rng)
        snr = float(rng.uniform(0.1, 100.0))
        s = np.linalg.svd(g @ h, compute_uv=False)
        assert np.isclose(closed_form_mse(g, h, snr),
                          spectral_mse(s, snr, h.shape[1]), atol=1e-10)


def test_spectral_mse_examples():
    # four unit singular values at snr 10: 4 * (1 - 1/(1 + 0.1)) = 4/11
    assert np.isclose(spectral_mse(np.ones(4), 10.0, 4), 4.0 / 11.0, rtol=1e-12)
    # zero channel: mse = k
    assert np.isclose(spectral_mse(np.zeros(3), 10.0, 3), 3.0)
    with pytest.raises(ValueError):
        spectral_mse(np.array([1.0, -0.5]), 10.0, 2)


def test_mse_decreases_with_snr(rng):
    g, h = _random_channel(rng)
    values = [closed_form_mse(g, h, snr) for snr in (0.5, 1.0, 5.0, 25.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] > 0


def test_construction_beta_is_optimal_scale(rng):
    """The normalization constant baked into the precoder equals the
    receiver scale that minimizes the mse of the constructed precoder."""
    for _ in range(10):
        g, h = _random_channel(rng)
        snr = float(rng.uniform(0.5, 50.0))
        total_power = 3.0
        sigma2 = total_power / (h.shape[1] * snr)
        pre = mmse_precoder(g, h, snr, total_power)
        f = effective_channel(pre.matrix, g, h)
        assert np.isclose(optimal_receiver_scale(f, sigma2), pre.beta,
                          rtol=1e-10)


def test_mmse_achieves_closed_form_and_beats_perturbations(rng):
    g, h = _random_channel(rng, q=5, n=3, k=2)
    snr, total_power = 8.0, 2.0
    sigma2 = total_power / (h.shape[1] * snr)
    pre = mmse_precoder(g, h, snr, total_power)
    mse_opt, _ = mse_with_optimal_scale(pre.matrix, g, h, sigma2)
    assert np.isclose(mse_opt, closed_form_mse(g, h, snr), atol=1e-10)
    for _ in range(200):
        d = rng.normal(size=pre.matrix.shape) + 1j * rng.normal(size=pre.matrix.shape)
        cand = pre.matrix + 0.05 * d
        cand *= np.sqrt(total_power) / np.linalg.norm(cand)
        mse_cand, _ = mse_with_optimal_scale(cand, g, h, sigma2)
        assert mse_cand >= mse_opt - 1e-12


def test_mse_with_optimal_scale_zero_precoder(rng):
    g, h = _random_channel(rng)
    mse, beta = mse_with_optimal_scale(np.zeros((h.shape[1], g.shape[0])), g, h, 0.1)
    assert np.isclose(mse, h.shape[1])
    assert beta == 0.0


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 1000.0), st.integers(1, 5))
def test_closed_form_mse_bounds(snr, k):
    rng = np.random.default_rng(99)
    g = rng.normal(size=(k + 1, k + 2)) + 1j * rng.normal(size=(k + 1, k + 2))
    h = rng.normal(size=(k + 2, k)) + 1j * rng.normal(size=(k + 2, k))
    mse = closed_form_mse(g, h, snr)
    assert 0.0 < mse < k


class TestTrainablePrecoder:
    def test_rejects_zero_init(self):
        with pytest.raises(ValueError):
            TrainablePrecoder(4.0, np.zeros((2, 3), dtype=complex))

    def test_matrix_always_on_power_sphere(self, rng):
        tp = TrainablePrecoder(4.0, rng.normal(size=(2, 3))
                               + 1j * rng.normal(size=(2, 3)))
        assert np.isclose(np.linalg.norm(tp.matrix(tp.x0)) ** 2, 4.0, rtol=1e-12)
        x = rng.normal(size=tp.x0.size)
        assert np.isclose(np.linalg.norm(tp.matrix(x)) ** 2, 4.0, rtol=1e-12)

    def test_scale_invariance(self, rng):
        init = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        a = TrainablePrecoder(4.0, init)
        b = TrainablePrecoder(4.0, 7.5 * init)
        assert np.allclose(a.matrix(a.x0), b.matrix(b.x0), rtol=1e-12)

    def test_flat_layout(self, rng):
        init = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        tp = TrainablePrecoder(4.0, init)
        x = tp.x0
        assert x.shape == (12,)
        assert np.allclose(x[:6], init.real.ravel())
        assert np.allclose(x[6:], init.imag.ravel())
        for bad in (np.zeros(11), np.zeros(13)):
            with pytest.raises(ValueError):
                tp.matrix(bad)
            with pytest.raises(ValueError):
                tp.param_grad(bad, init)

    def test_param_grad_matches_finite_difference(self, rng):
        """loss = 2 Re tr(C^H P(x)) with P the normalized matrix."""
        init = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        tp = TrainablePrecoder(4.0, init)
        c = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))

        def loss_at(x):
            return 2.0 * np.real(np.vdot(c, tp.matrix(x)))

        x0 = tp.x0
        grad = tp.param_grad(x0, c)
        eps = 1e-6
        for i in range(12):
            up, dn = x0.copy(), x0.copy()
            up[i] += eps
            dn[i] -= eps
            fd = (loss_at(up) - loss_at(dn)) / (2 * eps)
            assert abs(fd - grad[i]) <= 1e-5 * max(1.0, abs(grad[i]))

    def test_as_precoder(self, rng):
        init = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        tp = TrainablePrecoder(4.0, init)
        # the normalized matrix passes Precoder's power check as it stands
        pre = Precoder(tp.matrix(tp.x0), tp.total_power, 0.7)
        assert pre.beta == 0.7
        assert np.allclose(pre.matrix, tp.matrix(tp.x0))
