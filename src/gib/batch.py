"""Disjoint-union minibatches of graphs.

A batch of B graphs stacks their node features into one N x F matrix; graph
b owns rows ``offsets[b]:offsets[b+1]``. Graph convolution applies each
graph's own propagation block to its rows (``tensor.segment_matmul``), so the
N x N block-diagonal matrix is never formed, and readouts pool each graph's
rows with constant B x N matrices. A single graph is a batch of one: the
one-graph entry points of the model call the batched code with it.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .graphs import Graph
from .tensor import Tensor, constant


def normalized_adjacency(graph: Graph) -> np.ndarray:
    """D^{-1/2} (A + I) D^{-1/2} with D the degree matrix of A + I, from the
    graph's kept D^{-1/2} diagonal (A has a zero diagonal)."""
    d = graph.d_inv_sqrt
    out = graph.adjacency * d[:, None] * d[None, :]
    np.fill_diagonal(out, d * d)
    return out


def segment_pool(sizes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of consecutive segments of the given sizes, and the B x N 0/1
    matrix whose row b sums the rows of segment b."""
    bounds = [0]
    for n in sizes:
        bounds.append(bounds[-1] + n)
    pool = np.zeros((len(sizes), bounds[-1]))
    for b in range(len(sizes)):
        pool[b, bounds[b] : bounds[b + 1]] = 1.0
    return np.array(bounds), pool


class GraphBatch:
    """The disjoint union of a list of graphs, with per-graph segment offsets.

    Its pooling matrices and propagation blocks live as long as the batch.
    """

    def __init__(self, graphs: Sequence[Graph]):
        self.graphs = list(graphs)
        if not self.graphs:
            raise ValueError("a graph batch needs at least one graph")
        sizes = [g.n for g in self.graphs]
        if min(sizes) == 0:
            raise ValueError("cannot batch a graph without nodes")
        self.features = np.concatenate([g.features for g in self.graphs], axis=0)
        self.offsets, self.sum_pool = segment_pool(sizes)
        self.mean_pool = self.sum_pool / np.array(sizes, dtype=np.float64)[:, None]
        # each graph's D^{-1/2} (A + I) D^{-1/2}, for tensor.segment_matmul
        self.propagation = [normalized_adjacency(g) for g in self.graphs]

    def __len__(self) -> int:
        return len(self.graphs)

    @property
    def adjacency(self) -> list[np.ndarray]:
        return [g.adjacency for g in self.graphs]

    def mean(self, x: Tensor) -> Tensor:
        """B x d per-graph means of the rows of an N x d tensor."""
        return constant(self.mean_pool) @ x

    def split(self, rows: np.ndarray) -> list[np.ndarray]:
        """An N-row array cut into its per-graph blocks."""
        return [rows[s:e] for s, e in zip(self.offsets[:-1], self.offsets[1:])]


# Graphs per batch where a model only runs forward: cached embeddings,
# evaluation and prediction. No result depends on it beyond rounding.
EVAL_BATCH = 32


def batches(graphs: Sequence[Graph]) -> Iterator[GraphBatch]:
    """Consecutive batches of at most ``EVAL_BATCH`` graphs, in order."""
    for start in range(0, len(graphs), EVAL_BATCH):
        yield GraphBatch(graphs[start : start + EVAL_BATCH])
