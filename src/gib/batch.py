"""Disjoint-union minibatches of graphs.

A batch of B graphs stacks their nodes into N rows; graph b owns the rows of
segment b of ``batch.segments``. The segments are checked once, when the
batch is built; the segment ops that take them do not check them again.
Graph convolution applies each graph's own propagation block to its rows
(``tensor.segment_matmul``), so the N x N block-diagonal matrix is never
formed, and readouts pool each graph's rows (``tensor.segment_pool``) with
the constant B x N matrices that the segments keep.
The blocks and the first layer's input, each block times its graph's
features, are built once per graph and kept on the ``Graph``; a batch holds
references to them, and each block is its graph's own n x n matrix, so it
fits its segment by construction. The connectivity loss's blocks are the
graphs' bool adjacencies, which ``segment_matmul`` casts one at a time. A
single graph is a batch of one, which the graph keeps (``Graph.as_batch``)
for the one-graph entry points of the model. A batch holds no reference to
the graphs themselves: a graph and its kept batch would otherwise form a
reference cycle, and every graph's arrays would outlive it until the cyclic
garbage collector ran.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .graphs import Graph
from .tensor import Segments, Tensor, segment_pool


class GraphBatch:
    """The disjoint union of a list of graphs, with per-graph segments.

    Its segments, with their pooling matrices, live as long as the batch; its
    propagation blocks, bool adjacency blocks and propagated features (N x F,
    the first GCN layer's input) come from its graphs, which keep them.
    """

    def __init__(self, graphs: Sequence[Graph]):
        graphs = list(graphs)
        if not graphs:
            raise ValueError("a graph batch needs at least one graph")
        sizes = [g.n for g in graphs]
        if min(sizes) == 0:
            raise ValueError("cannot batch a graph without nodes")
        self.segments = Segments(list(accumulate(sizes, initial=0)))
        self.propagation = [g.propagation for g in graphs]
        self.adjacency = [g.adjacency for g in graphs]
        self.propagated_features = np.concatenate(
            [g.propagated_features for g in graphs], axis=0
        )

    def __len__(self) -> int:
        return len(self.segments)

    def sum(self, x: Tensor) -> Tensor:
        """B x d per-graph sums of the rows of an N x d tensor."""
        return segment_pool(x, self.segments)

    def mean(self, x: Tensor) -> Tensor:
        """B x d per-graph means of the rows of an N x d tensor."""
        return segment_pool(x, self.segments, mean=True)

    def split(self, rows: np.ndarray) -> list[np.ndarray]:
        """An N-row array cut into its per-graph blocks."""
        return [rows[s:e] for s, e in self.segments.spans]


# Graphs per batch where a model only runs forward: cached embeddings,
# evaluation and prediction. No result depends on it beyond rounding.
EVAL_BATCH = 32


def batches(graphs: Sequence[Graph]) -> Iterator[GraphBatch]:
    """Consecutive batches of at most ``EVAL_BATCH`` graphs, in order."""
    for start in range(0, len(graphs), EVAL_BATCH):
        yield GraphBatch(graphs[start : start + EVAL_BATCH])
