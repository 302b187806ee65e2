"""Donsker-Varadhan mutual-information machinery.

A statistics network scores (graph, subgraph) pairs with a single real
number: the graph side is the mean of the shared encoder's node embeddings,
the subgraph side is the generator's probability-weighted embedding, and an
MLP head maps their concatenation to the score. Over a batch, the estimate

    mean_i f(G_i, sub_i) - log mean_i exp f(G_i, sub_{pair(i)})

rises toward the true mutual information as the head is trained to maximize
it. Mismatched pairs come from the cyclic shift pair(i) = i+1 mod N by
default, a linear-cost realization of "any j != i"; the full mismatched
double sum is available for small batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .graphs import Graph
from .nn import GcnEncoder, Mlp
from .optim import make_optimizer
from .tensor import Tensor


class StatisticsNetwork:
    """Scores (graph embedding, subgraph embedding) pairs with an MLP head.

    The encoder is shared with the subgraph generator and is trained only in
    the outer phase; the head parameters are this network's own.
    """

    def __init__(
        self,
        shared_encoder: GcnEncoder,
        embed_dim: int,
        rng: np.random.Generator,
        hidden: int = 16,
    ):
        self.encoder = shared_encoder
        self.head = Mlp([2 * embed_dim, hidden, 1], rng)
        self.embed_dim = embed_dim

    def graph_embedding(self, graph: Graph) -> Tensor:
        """Mean of the shared encoder's node embeddings, as a 1 x d row.

        Batched callers take ``batch.mean`` of the node embeddings they
        already have, since the encoder is shared with the generator.
        """
        batch = graph.as_batch
        return batch.mean(self.encoder.forward(batch))

    def head_params(self) -> list[Tensor]:
        return self.head.params()

    def reinitialize_head(self, rng: np.random.Generator) -> None:
        """Fresh head draw; the bi-level loop does this before each inner run."""
        hidden = self.head.weights[0].shape[1]
        self.head = Mlp([2 * self.embed_dim, hidden, 1], rng)

    def named_params(self) -> list[tuple[str, Tensor]]:
        return self.head.named_params("statnet.head")


@dataclass
class MiBatchEstimate:
    """joint - marginal, kept as tensors so the value stays differentiable."""

    joint_term: Tensor
    marginal_term: Tensor
    value: Tensor

    def __float__(self) -> float:
        return float(self.value.data)


def _marginal_pairs(n: int, full_pairing: bool) -> tuple[np.ndarray, np.ndarray]:
    """(graph index, subgraph index) of every mismatched pair, row-major.

    The cyclic shift pairs graph i with subgraph i+1 mod n; full pairing
    lists every (i, j) with j != i.
    """
    if full_pairing:
        return np.nonzero(~np.eye(n, dtype=bool))
    i = np.arange(n)
    return i, (i + 1) % n


def _dv_estimate(
    statnet: StatisticsNetwork, joint_in: Tensor, marginal_in: Tensor
) -> MiBatchEstimate:
    """mean f(joint rows) - log mean exp f(marginal rows)."""
    joint_term = T.tmean(statnet.head.forward(joint_in))
    scores = statnet.head.forward(marginal_in)
    marginal_term = T.logsumexp(scores) - math.log(scores.shape[0])
    return MiBatchEstimate(
        joint_term=joint_term,
        marginal_term=marginal_term,
        value=joint_term - marginal_term,
    )


def mi_batch_loss(
    statnet: StatisticsNetwork,
    graph_embs: Tensor | Sequence[Tensor],
    sub_embs: Tensor | Sequence[Tensor],
    full_pairing: bool = False,
) -> MiBatchEstimate:
    """The batched estimator over matched and mismatched embedding pairs.

    The two sides are B x d matrices (or lists of 1 x d rows) whose row i
    describes the same graph. With ``full_pairing`` the marginal term
    averages over all B(B-1) mismatched pairs instead of the cyclic shift.
    Mismatched rows are gathered by constant selection matrices, so the
    estimate stays differentiable in both sides.
    """
    g = graph_embs if isinstance(graph_embs, Tensor) else T.concat_rows(graph_embs)
    s = sub_embs if isinstance(sub_embs, Tensor) else T.concat_rows(sub_embs)
    n = g.shape[0]
    if n != s.shape[0]:
        raise ValueError(f"batch sides disagree: {n} graphs vs {s.shape[0]} subgraphs")
    if n < 2:
        raise ValueError("mutual-information batch needs at least 2 graphs")
    gi, si = _marginal_pairs(n, full_pairing)
    eye = np.eye(n)
    marginal_in = T.concat_cols([T.constant(eye[gi]) @ g, T.constant(eye[si]) @ s])
    return _dv_estimate(statnet, T.concat_cols([g, s]), marginal_in)


def _dv_inputs(
    g: np.ndarray, s: np.ndarray, gi: np.ndarray, si: np.ndarray
) -> tuple[Tensor, Tensor]:
    """Constant joint rows [g_i, s_i] and mismatched rows [g_gi, s_si]."""
    return T.constant(np.hstack([g, s])), T.constant(np.hstack([g[gi], s[si]]))


def inner_maximize(
    statnet: StatisticsNetwork,
    graph_embs: np.ndarray,
    sub_embs: np.ndarray,
    steps: int,
    lr: float,
    optimizer_kind: str = "adam",
    batch_size: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    full_pairing: bool = False,
) -> list[float]:
    """Train the head to maximize the batched estimate; everything else frozen.

    The embeddings come in as plain arrays (already detached from the
    generator), so the joint and marginal inputs are built as plain arrays
    too, once for all steps unless each step draws a minibatch, and the only
    live parameters on the tape are the head's. Returns the per-step
    estimate trace.
    """
    if steps < 1:
        raise ValueError(f"inner loop needs at least 1 step, got {steps}")
    n = graph_embs.shape[0]
    if n < 2:
        raise ValueError("inner loop needs at least 2 cached pairs")
    minibatched = batch_size is not None and batch_size < n
    if minibatched and rng is None:
        raise ValueError("minibatched inner loop needs an rng")
    gi, si = _marginal_pairs(batch_size if minibatched else n, full_pairing)
    optimizer = make_optimizer(optimizer_kind, statnet.head_params(), lr)
    if not minibatched:
        joint_in, marginal_in = _dv_inputs(graph_embs, sub_embs, gi, si)
    trace: list[float] = []
    for step in range(steps):
        if minibatched:
            idx = rng.choice(n, size=batch_size, replace=False)
            joint_in, marginal_in = _dv_inputs(graph_embs[idx], sub_embs[idx], gi, si)
        estimate = _dv_estimate(statnet, joint_in, marginal_in)
        loss = -estimate.value
        optimizer.zero_grad()
        loss.backward()
        if not np.isfinite(float(loss.data)):
            raise FloatingPointError(
                f"inner step {step}: estimator diverged, trace tail {trace[-5:]}"
            )
        optimizer.step()
        trace.append(float(estimate.value.data))
    return trace
