"""Layers: graph convolution, self-attentive readout, and plain MLPs.

A GCN layer propagates features through the renormalized adjacency
D^{-1/2} (A + I) D^{-1/2} (self-loops keep isolated nodes alive) followed by
a linear map and relu. The encoder's first layer propagates the constant
node features, so it takes the propagated features each graph keeps; only
later layers, whose input needs a gradient, propagate on the tape. The
attention head scores nodes, normalizes the scores with a softmax within
each graph, and aggregates node embeddings into one embedding per graph; its
scores double as the node ranking behind the top-k baseline. Layers work on
a :class:`GraphBatch`, one tape for all its graphs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import tensor as T
from .batch import GraphBatch
# normalized_adjacency builds each graph's propagation block in gib.graphs;
# it stays importable from here, the name the benchmark probes it under
from .graphs import Graph, normalized_adjacency
from .tensor import ShapeMismatch, Tensor


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class GcnLayer:
    """One graph-convolution layer: relu(norm_adj @ X @ W), per graph of a batch."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.weight = Tensor(glorot(rng, d_in, d_out))

    def forward(self, batch: GraphBatch, x: Tensor) -> Tensor:
        return self.transform(T.segment_matmul(batch.propagation, x, batch.segments))

    def transform(self, propagated: Tensor) -> Tensor:
        """The layer after propagation: relu(propagated @ W)."""
        return T.dense(propagated, self.weight, None, "relu")

    def params(self) -> list[Tensor]:
        return [self.weight]


class GcnEncoder:
    """A stack of GCN layers producing node embeddings."""

    def __init__(self, widths: Sequence[int], rng: np.random.Generator):
        if len(widths) < 2:
            raise ShapeMismatch("a GcnEncoder needs at least an input and an output width")
        self.layers = [
            GcnLayer(widths[i], widths[i + 1], rng) for i in range(len(widths) - 1)
        ]

    def forward(self, batch: GraphBatch) -> Tensor:
        """Node embeddings of every graph in the batch, stacked (N x d)."""
        first, *rest = self.layers
        h = first.transform(T.constant(batch.propagated_features))
        for layer in rest:
            h = layer.forward(batch, h)
        return h

    def forward_graph(self, graph: Graph) -> Tensor:
        return self.forward(graph.as_batch)

    def params(self) -> list[Tensor]:
        return [p for layer in self.layers for p in layer.params()]

    def named_params(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [
            (f"{prefix}.gcn{i}.weight", layer.weight)
            for i, layer in enumerate(self.layers)
        ]


class Mlp:
    """Affine stack: tanh after every hidden layer, none after the last."""

    def __init__(self, widths: Sequence[int], rng: np.random.Generator):
        if len(widths) < 2:
            raise ShapeMismatch("an Mlp needs at least an input and an output width")
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for i in range(len(widths) - 1):
            self.weights.append(Tensor(glorot(rng, widths[i], widths[i + 1])))
            self.biases.append(Tensor(np.zeros((1, widths[i + 1]))))

    def forward(self, x: Tensor) -> Tensor:
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = T.dense(h, w, b, "tanh")
        return T.dense(h, self.weights[-1], self.biases[-1], "identity")

    def params(self) -> list[Tensor]:
        out: list[Tensor] = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def named_params(self, prefix: str) -> list[tuple[str, Tensor]]:
        out = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out.append((f"{prefix}.layer{i}.weight", w))
            out.append((f"{prefix}.layer{i}.bias", b))
        return out


class AttentionHead:
    """Self-attentive readout: softmax(tanh(X' @ P1) @ P2) over each graph's nodes."""

    def __init__(self, d: int, hidden: int, rng: np.random.Generator):
        self.p1 = Tensor(glorot(rng, d, hidden))
        self.p2 = Tensor(glorot(rng, hidden, 1))

    def forward(self, embeddings: Tensor, batch: GraphBatch) -> tuple[Tensor, Tensor]:
        """Returns (graph embeddings B x d, node scores 1 x N summing to 1
        within each graph)."""
        raw = T.dense(embeddings, self.p1, None, "tanh") @ self.p2  # N x 1
        scores = T.segment_softmax(T.transpose(raw), batch.segments)  # 1 x N
        return (T.constant(batch.sum_pool) * scores) @ embeddings, scores

    def params(self) -> list[Tensor]:
        return [self.p1, self.p2]

    def named_params(self, prefix: str) -> list[tuple[str, Tensor]]:
        return [(f"{prefix}.p1", self.p1), (f"{prefix}.p2", self.p2)]


def topk_subgraph_from_scores(
    graph: Graph, scores: np.ndarray, keep_fraction: float
) -> np.ndarray:
    """Boolean mask keeping the ceil(keep_fraction * n) highest-scoring nodes.

    Ties break toward the lower node index so the selection is reproducible.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    if scores.shape[0] != graph.n:
        raise ShapeMismatch(
            f"scores length {scores.shape[0]} does not match {graph.n} nodes"
        )
    k = int(np.ceil(keep_fraction * graph.n))
    # stable sort on (-score, index) implements the index tie-break
    order = sorted(range(graph.n), key=lambda i: (-scores[i], i))
    mask = np.zeros(graph.n, dtype=bool)
    mask[order[:k]] = True
    return mask
