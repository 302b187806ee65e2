"""Donsker-Varadhan mutual-information machinery.

A statistics network scores (graph, subgraph) pairs with a single real
number: the graph side is the mean of the shared encoder's node embeddings,
the subgraph side is the generator's probability-weighted embedding, and an
MLP head maps their concatenation to the score. Over a batch, the estimate

    mean_i f(G_i, sub_i) - log mean_i exp f(G_i, sub_{pair(i)})

rises toward the true mutual information as the head is trained to maximize
it. Mismatched pairs shift one side cyclically, pair(i) = i+1 mod N
(``cyclic_shift``), a linear-cost realization of "any j != i".

One DV bound (``dv_bound``) and one head-ascent loop (``inner_maximize``)
serve two callers. GIB runs the loop once per epoch, with a head freshly
redrawn in place (``Mlp.redraw``), on its whole cached training set and mismatched rows [g_i, s_{i+1}]. The toy
``case_study`` draws a minibatch per step (``batch_size``, ``rng``) and uses
rows [x_{i+1}, y_i] (``shift_left``: the left side is the shifted one).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .graphs import Graph
from .nn import GcnEncoder, Mlp
from .optim import Adam
from .tensor import Tensor


class StatisticsNetwork:
    """Scores (graph embedding, subgraph embedding) pairs with an MLP head.

    The encoder is shared with the subgraph generator and is trained only in
    the outer phase; the head parameters are this network's own.
    """

    def __init__(
        self, shared_encoder: GcnEncoder, embed_dim: int, rng: np.random.Generator, hidden: int
    ):
        self.encoder = shared_encoder
        self.head = Mlp([2 * embed_dim, hidden, 1], rng)

    def graph_embedding(self, graph: Graph) -> Tensor:
        """Mean of the shared encoder's node embeddings, as a 1 x d row.

        Batched callers take ``batch.mean`` of the node embeddings they
        already have, since the encoder is shared with the generator.
        """
        batch = graph.as_batch
        return batch.mean(self.encoder.forward(batch))


@dataclass
class MiBatchEstimate:
    """joint - marginal, kept as tensors so the value stays differentiable."""

    joint_term: Tensor
    marginal_term: Tensor
    value: Tensor


def cyclic_shift(n: int) -> np.ndarray:
    """Row i+1 mod n for each row i: the shifted side of n mismatched pairs."""
    return (np.arange(n) + 1) % n


def dv_bound(head: Mlp, joint_in: Tensor, marginal_in: Tensor) -> MiBatchEstimate:
    """mean f(joint rows) - log mean exp f(marginal rows), over at least 2 pairs."""
    if joint_in.shape[0] < 2:
        raise ValueError(f"DV bound needs at least 2 pairs, got {joint_in.shape[0]}")
    joint_term = T.tmean(head.forward(joint_in))
    scores = head.forward(marginal_in)
    marginal_term = T.logsumexp(scores) - math.log(scores.shape[0])
    return MiBatchEstimate(joint_term, marginal_term, joint_term - marginal_term)


def mi_batch_loss(
    statnet: StatisticsNetwork,
    graph_embs: Tensor | Sequence[Tensor],
    sub_embs: Tensor | Sequence[Tensor],
) -> MiBatchEstimate:
    """The batched estimator over matched and mismatched embedding pairs.

    The two sides are B x d matrices (or lists of 1 x d rows) whose row i
    describes the same graph. Mismatched rows [g_i, s_{i+1}] pick the
    subgraph side by indexing (the shift is a permutation, so it picks every
    row once), and the estimate stays differentiable in both sides.
    """
    g = graph_embs if isinstance(graph_embs, Tensor) else T.concat(graph_embs, axis=0)
    s = sub_embs if isinstance(sub_embs, Tensor) else T.concat(sub_embs, axis=0)
    n = g.shape[0]
    if n != s.shape[0]:
        raise ValueError(f"batch sides disagree: {n} graphs vs {s.shape[0]} subgraphs")
    marginal_in = T.concat([g, T.index(s, cyclic_shift(n))], axis=1)
    return dv_bound(statnet.head, T.concat([g, s], axis=1), marginal_in)


def _dv_inputs(
    left: np.ndarray, right: np.ndarray, shift: np.ndarray, shift_left: bool
) -> tuple[Tensor, Tensor]:
    """Constant joint rows [l_i, r_i] and mismatched rows, one side shifted."""
    mismatched = [left[shift], right] if shift_left else [left, right[shift]]
    return T.constant(np.hstack([left, right])), T.constant(np.hstack(mismatched))


def inner_maximize(
    head: Mlp,
    left: np.ndarray,
    right: np.ndarray,
    steps: int,
    lr: float,
    batch_size: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    shift_left: bool = False,
) -> list[float]:
    """Train the head with Adam at ``lr`` to maximize the batched estimate;
    everything else frozen.

    The two sides (row i of each describes one matched pair) come in as
    plain arrays, already detached from whatever produced them, so the joint
    and marginal inputs are built as plain arrays too, once for all steps
    unless each step draws a minibatch, and the only live parameters on the
    tape are the head's. Returns the per-step estimate trace.
    """
    if steps < 1:
        raise ValueError(f"inner loop needs at least 1 step, got {steps}")
    n = left.shape[0]
    minibatched = batch_size is not None and batch_size < n
    if minibatched and rng is None:
        raise ValueError("minibatched inner loop needs an rng")
    shift = cyclic_shift(batch_size if minibatched else n)
    optimizer = Adam(head.params(), lr)
    if not minibatched:
        joint_in, marginal_in = _dv_inputs(left, right, shift, shift_left)
    trace: list[float] = []
    for step in range(steps):
        if minibatched:
            idx = rng.choice(n, size=batch_size, replace=False)
            joint_in, marginal_in = _dv_inputs(left[idx], right[idx], shift, shift_left)
        estimate = dv_bound(head, joint_in, marginal_in)
        optimizer.minimize(
            -estimate.value,
            lambda: f"inner step {step}: estimator diverged, trace tail {trace[-5:]}")
        trace.append(float(estimate.value.data))
    return trace
