"""Gradient descent over parameter groups, one update step for every phase.

An optimizer owns a fixed list of parameter tensors and mutates their values
in place, and nothing outside the list; a phase keeps what it does not train
off its tape through a frozen copy (:func:`gib.nn.frozen_copy`). :meth:`Adam.minimize`
is how every phase updates (the inner DV ascent, the outer GIB step, the
baselines, the case study's noise scale): it clears the group's gradients,
back-propagates, rejects a non-finite loss before any value moves, updates,
and clears the gradients again, so no gradient outlives its step.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable

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


class Adam:
    """Adam whose moments live in two flat vectors, one span per parameter.

    A step gathers the gradients into one vector and updates the moments and
    the step in place, one numpy call per operation for all parameters
    together, then subtracts each parameter's span from its values. The
    operations are those of ``m = b1 m + (1 - b1) g``,
    ``v = b2 v + (1 - b2) g^2`` and ``p -= lr (m / b1t) / (sqrt(v / b2t) + eps)``
    in that order, elementwise, so the result is bitwise that of the
    per-parameter expressions. Every parameter needs a gradient: one
    without raises ``ValueError`` before any value, moment or ``t`` moves.
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
        g, m, v, step, tmp = self._grad, self.m, self.v, self._step, self._scratch
        for i, (p, (start, end)) in enumerate(zip(self.params, self._spans)):
            if p.grad is None:
                raise ValueError(f"Adam step: parameter {i} (shape {p.data.shape}) has no gradient")
            g[start:end] = np.ravel(p.grad)
        self.t += 1
        b1t = 1.0 - self.BETA1**self.t
        b2t = 1.0 - self.BETA2**self.t
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
        for p, (start, end) in zip(self.params, self._spans):
            p.data -= step[start:end].reshape(p.data.shape)

    def minimize(self, loss: Tensor, diverged: Callable[[], str]) -> None:
        """One descent step on ``loss``; a non-finite loss raises
        ``FloatingPointError(diverged())`` with values, moments and ``t``
        untouched."""
        zero_grads(self.params)
        loss.backward()
        if not np.isfinite(float(loss.data)):
            raise FloatingPointError(diverged())
        self.step()
        zero_grads(self.params)
