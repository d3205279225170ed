import numpy as np

from simstack.optim import OPTIMIZERS, Adam, GradientDescent


def test_sgd_step():
    opt = GradientDescent(0.1)
    grad = np.array([1.0, -2.0, 0.0])
    assert np.allclose(opt.step(grad), [-0.1, 0.2, 0.0])


def test_adam_first_step_is_sign_scaled():
    # bias correction makes the very first update lr * sign(grad)
    opt = Adam(0.05)
    step = opt.step(np.array([1e-3, -1e4]))
    assert np.allclose(step, [-0.05, 0.05], rtol=1e-4)


def test_adam_minimizes_quadratic():
    rng = np.random.default_rng(0)
    target = rng.normal(size=5)
    x = np.zeros(5)
    opt = Adam(0.1)
    for _ in range(500):
        x += opt.step(2 * (x - target))
    assert np.allclose(x, target, atol=1e-4)


def test_factory():
    # train builds OPTIMIZERS[name]; TrainingConfig rejects any other name
    assert OPTIMIZERS == {"adam": Adam, "sgd": GradientDescent}
