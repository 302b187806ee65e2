"""Gradient-descent updates over parameter groups.

Optimizers own a fixed list of parameter tensors and mutate their values in
place; anything not in the list is untouched, which is how the alternating
inner/outer phases express their parameter freezes.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .tensor import Tensor, zero_grads


class Sgd:
    """Plain gradient descent that no run uses, kept while the benchmark probes its step."""

    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr

    def step(self) -> None:
        for p in self.params:
            if p.grad is not None:
                p.data -= self.lr * p.grad

    def zero_grad(self) -> None:
        zero_grads(self.params)


class Adam:
    """Adam whose moments live in two flat vectors, one span per parameter.

    A step gathers the gradients into one vector and updates the moments and
    the step in place, one numpy call per operation for all parameters
    together, then subtracts each parameter's span from its values. The
    operations are those of ``m = b1 m + (1 - b1) g``,
    ``v = b2 v + (1 - b2) g^2`` and ``p -= lr (m / b1t) / (sqrt(v / b2t) + eps)``
    in that order, elementwise, so the result is bitwise that of the
    per-parameter expressions. A parameter without a gradient keeps its
    value and its moments.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        bounds = list(accumulate((p.data.size for p in params), initial=0))
        self._spans = list(zip(bounds[:-1], bounds[1:]))
        self.m = np.zeros(bounds[-1])
        self.v = np.zeros(bounds[-1])
        # gathered gradient and the step's scratch, so a step allocates little
        self._grad = np.empty(bounds[-1])
        self._step = np.empty(bounds[-1])
        self._scratch = np.empty(bounds[-1])

    def step(self) -> None:
        self.t += 1
        b1t = 1.0 - self.BETA1**self.t
        b2t = 1.0 - self.BETA2**self.t
        g, m, v, step, tmp = self._grad, self.m, self.v, self._step, self._scratch
        skipped = []
        for p, (start, end) in zip(self.params, self._spans):
            if p.grad is None:
                skipped.append((start, end, m[start:end].copy(), v[start:end].copy()))
                g[start:end] = 0.0
            else:
                g[start:end] = np.ravel(p.grad)
        m *= self.BETA1
        np.multiply(g, 1.0 - self.BETA1, out=tmp)
        m += tmp
        v *= self.BETA2
        np.square(g, out=tmp)
        tmp *= 1.0 - self.BETA2
        v += tmp
        np.divide(m, b1t, out=step)
        step *= self.lr
        np.divide(v, b2t, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.EPS
        step /= tmp
        for start, end, m_kept, v_kept in skipped:
            m[start:end] = m_kept
            v[start:end] = v_kept
        for p, (start, end) in zip(self.params, self._spans):
            if p.grad is not None:
                p.data -= step[start:end].reshape(p.data.shape)

    def zero_grad(self) -> None:
        zero_grads(self.params)
