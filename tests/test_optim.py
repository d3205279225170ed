import math

import numpy as np
import pytest

from simstack.optim import OPTIMIZERS, Adam, GradientDescent, minimize


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


def _scripted(losses):
    """loss_and_grad that reads its losses from `losses` in order, with a
    gradient of -1, so GradientDescent(1.0) visits x = 0, 1, 2, ...; the
    list `seen` records every x it was evaluated at."""
    seen = []

    def loss_and_grad(x):
        seen.append(float(x[0]))
        return losses[len(seen) - 1], np.array([-1.0])
    return loss_and_grad, seen


def test_minimize_keeps_the_first_best_iterate():
    f, seen = _scripted([3.0, 1.0, 2.0, 1.0])
    x, losses = minimize(f, np.zeros(1), GradientDescent(1.0), 4, lambda losses: False)
    assert losses == [3.0, 1.0, 2.0, 1.0]
    assert seen == [0.0, 1.0, 2.0, 3.0]
    assert x.tolist() == [1.0]


def test_minimize_stops_when_asked():
    f, seen = _scripted([3.0, 1.0, 2.0, 1.0])
    x, losses = minimize(f, np.zeros(1), GradientDescent(1.0), 4,
                         lambda losses: losses[-1] < 1.5)
    assert losses == [3.0, 1.0]
    assert seen == [0.0, 1.0]
    assert x.tolist() == [1.0]


@pytest.mark.parametrize("evaluations", [1, 3])
def test_minimize_respects_its_evaluation_budget(evaluations):
    f, seen = _scripted([5.0, 4.0, 3.0, 2.0])
    steps = []

    class Counting(GradientDescent):
        def step(self, grad):
            steps.append(grad)
            return super().step(grad)
    x, losses = minimize(f, np.zeros(1), Counting(1.0), evaluations, lambda losses: False)
    assert len(losses) == len(seen) == evaluations
    assert len(steps) == evaluations - 1       # no step after the last evaluation
    assert x.tolist() == [evaluations - 1.0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 2])
def test_minimize_raises_on_a_non_finite_loss(bad, at):
    script = [3.0, 2.0, 1.0]
    script[at] = bad
    f, seen = _scripted(script)
    stops = []
    with pytest.raises(FloatingPointError, match=f"^non-finite loss at evaluation {at}$"):
        minimize(f, np.zeros(1), GradientDescent(1.0), 3, stops.append)
    assert len(seen) == at + 1
    assert len(stops) == at        # stop never sees the non-finite loss
