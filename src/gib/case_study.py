"""Bi-level mutual-information minimization on a two-variable toy channel.

X is a uniform random sign and Y = X + sigma * noise. Because the densities
are known in closed form, a Monte-Carlo oracle

    I(X, Y) ~= mean[ log p(y|x) - log p(y) ],
    p(y) = 0.5 * (N(y; 1, sigma^2) + N(y; -1, sigma^2))

gives a reference value the learned estimator must track. Each epoch draws
fresh pairs, trains the statistics MLP for a fixed number of inner steps,
then takes one outer step on log(sigma^2) to push the estimate down; the
noise samples are held fixed within the epoch so the outer gradient flows
through y = x + exp(rho/2) * eps.

The estimator and its ascent loop are GIB's own (``mi.dv_bound``,
``mi.inner_maximize``). GIB draws a fresh head every epoch; this head
persists across epochs and gets a warmup at the initial noise level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import mi
from . import tensor as T
from .graphs import bounded, check_fields, check_value
from .nn import Mlp, frozen_copy
from .optim import Adam
from .tensor import Tensor


@dataclass
class ToyPairSampler:
    sigma2: float

    def __post_init__(self):
        check_value("sigma2", self.sigma2, low=0.0, strict=True)


def sample_pairs(
    sampler: ToyPairSampler, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (x, y, eps) with x = sign(normal), y = x + sigma * eps."""
    if n < 1:
        raise ValueError("need at least one sample")
    x = np.sign(rng.standard_normal(n))
    x[x == 0.0] = 1.0
    eps = rng.standard_normal(n)
    y = x + math.sqrt(sampler.sigma2) * eps
    return x, y, eps


@dataclass
class MiOracleEstimate:
    value: float
    standard_error: float


def _log_normal_pdf(y: np.ndarray, mean: float, sigma2: float) -> np.ndarray:
    return -0.5 * np.log(2.0 * np.pi * sigma2) - (y - mean) ** 2 / (2.0 * sigma2)


def mi_oracle(
    sampler: ToyPairSampler,
    n: int = 20000,
    rng: Optional[np.random.Generator] = None,
    samples: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> MiOracleEstimate:
    """Monte-Carlo mutual information from the closed-form densities, over
    ``samples`` or else ``n`` pairs drawn with ``rng``."""
    if samples is not None:
        x, y = samples
    else:
        if n < 1000 or rng is None:
            raise ValueError("the oracle needs samples, or an rng to draw at least 1000 pairs")
        x, y, _ = sample_pairs(sampler, n, rng)
    log_cond = _log_normal_pdf(y - x, 0.0, sampler.sigma2)
    log_marg = np.logaddexp(
        _log_normal_pdf(y, 1.0, sampler.sigma2),
        _log_normal_pdf(y, -1.0, sampler.sigma2),
    ) + math.log(0.5)
    pointwise = log_cond - log_marg
    return MiOracleEstimate(
        value=float(pointwise.mean()),
        standard_error=float(pointwise.std(ddof=1) / np.sqrt(len(pointwise))),
    )


def dv_estimate(
    head: Mlp, x: np.ndarray, y: np.ndarray, y_tensor: Optional[Tensor] = None
) -> Tensor:
    """``mi.dv_bound`` of ``head`` on rows [x_i, y_i] against mismatched rows
    [x_{i+1}, y_i].

    Pass ``y_tensor`` to keep the y side differentiable (the outer step on
    the noise scale needs it); otherwise both sides enter as constants. The
    run passes the statistics network's frozen copy (:func:`gib.nn.frozen_copy`),
    built once: neither the logged estimate nor the outer step reads a head
    gradient, so none is computed.
    """
    y_col = y_tensor if y_tensor is not None else T.constant(y.reshape(-1, 1))
    joint_in = T.concat([T.constant(x[:, None]), y_col], axis=1)
    marginal_in = T.concat([T.constant(x[mi.cyclic_shift(len(x)), None]), y_col], axis=1)
    return mi.dv_bound(head, joint_in, marginal_in).value


@dataclass(frozen=True)
class CaseStudyConfig:
    epochs: int = bounded(30, low=1)
    inner_steps: int = bounded(150, low=1)
    samples_per_epoch: int = bounded(20000, low=2)
    sigma2_init: float = bounded(0.25, low=0.0, strict=True)
    lr_inner: float = bounded(3e-3, low=0.0, strict=True)
    lr_outer: float = bounded(0.05, low=0.0, strict=True)
    hidden: int = bounded(64, low=1)
    seed: int = bounded(0, low=0)
    sigma2_fixed: Optional[float] = bounded(None, low=0.0, strict=True)  # freezes the channel
    inner_batch: int = bounded(4096, low=2)  # minibatch per inner step; logging uses all samples
    warmup_steps: int = bounded(300, low=0)  # estimator pre-training before the first epoch

    __post_init__ = check_fields


@dataclass
class CaseStudyTraceRow:
    epoch: int
    mi_estimate: float
    oracle_mi: float
    sigma2: float


def _inner_ascend(
    statnet: Mlp,
    x: np.ndarray,
    y: np.ndarray,
    steps: int,
    config: CaseStudyConfig,
    rng: np.random.Generator,
    where: str,
) -> None:
    """``mi.inner_maximize`` on the (x, y) pairs; a divergence names ``where``."""
    try:
        mi.inner_maximize(statnet, x[:, None], y[:, None], steps, config.lr_inner,
                          batch_size=config.inner_batch, rng=rng, shift_left=True)
    except FloatingPointError as err:
        raise FloatingPointError(f"{where}: {err}") from err


def run_case_study(config: CaseStudyConfig) -> list[CaseStudyTraceRow]:
    """Alternate estimator training and noise-scale updates; log both curves.

    The statistics network persists across epochs and gets a warmup run at the
    initial noise level so the very first logged estimate is already near its
    supremum; the per-epoch trace value is evaluated on the epoch's full
    sample set.
    """
    ss = np.random.SeedSequence(config.seed)
    init_rng, sample_rng, batch_rng = (np.random.default_rng(c) for c in ss.spawn(3))
    statnet = Mlp([2, config.hidden, 1], init_rng)
    frozen_head = frozen_copy(statnet, statnet.params())
    sigma2 = config.sigma2_fixed if config.sigma2_fixed is not None else config.sigma2_init
    rho = Tensor(math.log(sigma2))
    outer_opt = Adam([rho], config.lr_outer)

    if config.warmup_steps > 0:
        sampler = ToyPairSampler(sigma2)
        x, y, _ = sample_pairs(sampler, config.samples_per_epoch, sample_rng)
        _inner_ascend(statnet, x, y, config.warmup_steps, config, batch_rng, "warmup")

    trace: list[CaseStudyTraceRow] = []
    for epoch in range(1, config.epochs + 1):
        sigma2 = float(np.exp(rho.data))
        sampler = ToyPairSampler(sigma2)
        x, y, eps = sample_pairs(sampler, config.samples_per_epoch, sample_rng)

        _inner_ascend(statnet, x, y, config.inner_steps, config, batch_rng,
                      f"epoch {epoch} (sigma2={sigma2:.4g})")
        estimate_value = float(dv_estimate(frozen_head, x, y).data)

        oracle = mi_oracle(sampler, samples=(x, y))
        trace.append(CaseStudyTraceRow(epoch, estimate_value, oracle.value, sigma2))

        if config.sigma2_fixed is None:
            # outer step: reparameterize y through rho with this epoch's noise
            y_live = T.constant(x.reshape(-1, 1)) + T.exp(0.5 * rho) * T.constant(eps.reshape(-1, 1))
            outer_opt.minimize(dv_estimate(frozen_head, x, y, y_tensor=y_live),
                               lambda: f"epoch {epoch} (sigma2={sigma2:.4g}): outer step diverged")
            with np.errstate(over="ignore", under="ignore"):
                if not 0.0 < np.exp(rho.data) < math.inf:
                    raise FloatingPointError(
                        f"epoch {epoch}: the outer step moved log sigma2 to {float(rho.data):.6g}, "
                        f"where sigma2 is no finite variance > 0 (lr_outer = {config.lr_outer:g})")
    return trace

