"""First-order optimizers over flat real parameter vectors, and the one
loop that drives them.

Both optimizers expose step(grad) -> additive update; state lives in the
instance, so a restart means constructing a fresh optimizer.
"""

import math

import numpy as np


class GradientDescent:
    def __init__(self, step_size):
        self.step_size = float(step_size)

    def step(self, grad):
        return -self.step_size * np.asarray(grad)


class Adam:
    """Adaptive-moment estimation with bias correction, at Kingma and Ba's constants."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, step_size):
        self.m = 0.0             # moments broadcast to the gradient's shape
        self.v = 0.0
        self.t = 0
        self.step_size = float(step_size)

    def step(self, grad):
        grad = np.asarray(grad)
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        mhat = self.m / (1.0 - self.beta1 ** self.t)
        vhat = self.v / (1.0 - self.beta2 ** self.t)
        return -self.step_size * mhat / (np.sqrt(vhat) + self.eps)


OPTIMIZERS = {"adam": Adam, "sgd": GradientDescent}


def minimize(loss_and_grad, x0, optimizer, evaluations, stop):
    """Evaluate `loss_and_grad(x) -> (loss, grad)` at most `evaluations`
    times, stepping x by `optimizer` between evaluations; `stop(losses)`
    runs after every evaluation and ends the loop early when true, and the
    first non-finite loss raises FloatingPointError naming its evaluation.
    Returns (best_x, losses): the first iterate of least loss, and every loss.
    """
    x, best_x, best_loss, losses = x0, x0, math.inf, []
    for _ in range(evaluations):
        loss, grad = loss_and_grad(x)
        if not math.isfinite(loss):
            raise FloatingPointError(f"non-finite loss at evaluation {len(losses)}")
        losses.append(loss)
        if loss < best_loss:
            best_x, best_loss = x, loss
        if stop(losses) or len(losses) == evaluations:
            break
        x = x + optimizer.step(grad)
    return best_x, losses
