"""The subgraph generator: node assignments, embeddings, connectivity loss.

The generator runs a GCN encoder over a batch of graphs and an MLP over the
node embeddings to produce an N x 2 row-stochastic assignment S; row i holds
the probability that node i belongs to its graph's subgraph vs the
complement. A graph's differentiable subgraph representation is the first
row of S^T X over its own nodes (the probability-weighted sum of node
embeddings), and the connectivity loss || row_normalize(S^T A S) - I ||_F,
also per graph, pushes assignments toward saturated 0/1 values with few
edges cut between the two sides.

This module also makes every hard selection, a :class:`SubgraphSelection`:
``discretize`` cuts S at a subgraph probability, and
``topk_subgraph_from_scores`` keeps an attention baseline's top-scoring
share of nodes. Validation, the drivers and their metrics read these cuts.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .batch import GraphBatch
from .graphs import Graph
from .nn import GcnEncoder, Mlp
from .tensor import ShapeMismatch, Tensor


class SubgraphGenerator:
    """A GCN encoder (theta1), shared with the model that built it, plus the
    assignment MLP (theta2) over its ``embed_dim``-wide node embeddings."""

    def __init__(
        self, encoder: GcnEncoder, embed_dim: int, rng: np.random.Generator, hidden: int
    ):
        self.encoder = encoder
        self.assign_mlp = Mlp([embed_dim, hidden, 2], rng)

    def assignment(self, batch: GraphBatch) -> tuple[Tensor, Tensor]:
        """Returns (S, node embeddings), stacked over the batch. Rows of S sum to 1."""
        x = self.encoder.forward(batch)
        s = T.row_softmax(self.assign_mlp.forward(x))
        return s, x


_IDENTITY = T.constant([[1.0, 0.0, 0.0, 1.0]])


def _side(assignment: Tensor, k: int) -> Tensor:
    """Column k of S, N x 1: S e_k, picked by indexing."""
    return T.index(assignment, np.s_[:, k : k + 1])


def subgraph_embedding(assignment: Tensor, node_embeddings: Tensor, batch: GraphBatch) -> Tensor:
    """First row of S^T X per graph (B x d): the probability-weighted sum of
    node embeddings."""
    return batch.sum(_side(assignment, 0) * node_embeddings)


@functools.lru_cache(maxsize=64)
def _one_graph(n: int) -> T.Segments:
    """The segments of one n-node graph, shared by every call."""
    return T.Segments((0, n))


def connectivity_loss(assignment: Tensor, adjacency: np.ndarray | GraphBatch) -> Tensor:
    """|| row_normalize(S^T A S) - I_2 ||_F, averaged over the graphs.

    ``adjacency`` is one graph's adjacency matrix, or a batch whose stacked
    nodes are the rows of ``assignment``. Row normalization divides by the
    row sum; an all-zero row (one side has no incident edge mass at all)
    stays zero, which puts it at distance 1 from the identity row and
    penalizes collapsing every node to one side.
    """
    if isinstance(adjacency, GraphBatch):
        blocks, segments = adjacency.adjacency, adjacency.segments
    else:
        blocks = [np.asarray(adjacency, dtype=np.float64)]
        segments = _one_graph(blocks[0].shape[0])
    a_s = T.segment_matmul(blocks, assignment, segments)
    # row k of graph b's S^T A S is the pooled (S e_k) * (A S)
    quad_rows = [T.row_l1_normalize(T.segment_pool(_side(assignment, k) * a_s, segments))
                 for k in (0, 1)]
    return T.tmean(T.row_norms(T.concat(quad_rows, axis=1) - _IDENTITY))


@dataclass
class SubgraphSelection:
    """A hard node selection: the selected nodes, the read-only adjacency of
    the graph they come from, and the cut that selected them (a subgraph
    probability, or a top-k keep fraction)."""

    node_mask: np.ndarray
    adjacency: np.ndarray
    threshold: float

    @property
    def empty(self) -> bool:
        return not bool(self.node_mask.any())

    @property
    def degenerate(self) -> bool:
        """Nothing or everything selected: the cut tells no node apart."""
        return self.empty or bool(self.node_mask.all())

    def node_indices(self) -> list[int]:
        return np.nonzero(self.node_mask)[0].tolist()


# the hard selection's subgraph probability: training's validation, the
# drivers and the CLI all select at it
SELECTION_THRESHOLD = 0.5


def discretize(
    assignment: np.ndarray, graph: Graph, threshold: float = SELECTION_THRESHOLD
) -> SubgraphSelection:
    """Select node i iff its subgraph probability is >= threshold."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    mask = np.asarray(assignment)[:, 0] >= threshold
    return SubgraphSelection(mask, graph.adjacency, threshold)


def topk_subgraph_from_scores(
    graph: Graph, scores: np.ndarray, keep_fraction: float
) -> SubgraphSelection:
    """Select the ceil(keep_fraction * n) highest-scoring nodes; the cut is
    the keep fraction.

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
    return SubgraphSelection(mask, graph.adjacency, keep_fraction)


def connected_components(selection: SubgraphSelection) -> list[list[int]]:
    """Connected components of the selected nodes, as sorted index lists; the
    walk steps only onto selected nodes."""
    nodes = selection.node_indices()
    remaining = set(nodes)
    components: list[list[int]] = []
    while remaining:
        seed_node = min(remaining)
        stack = [seed_node]
        comp = {seed_node}
        remaining.discard(seed_node)
        while stack:
            u = stack.pop()
            for v in np.nonzero(selection.adjacency[u])[0]:
                v = int(v)
                if v in remaining:
                    remaining.discard(v)
                    comp.add(v)
                    stack.append(v)
        components.append(sorted(comp))
    return components


def largest_connected_part(selection: SubgraphSelection) -> SubgraphSelection:
    """Restrict the selection to its largest component.

    Size ties go to the component containing the smallest node index, which
    is the first one found by the min-seeded search.
    """
    if selection.empty:
        raise ValueError("largest_connected_part: selection is empty")
    components = connected_components(selection)
    best = max(components, key=len)  # max is stable: first largest wins
    mask = np.zeros_like(selection.node_mask)
    mask[best] = True
    return replace(selection, node_mask=mask)


# -- export -------------------------------------------------------------------


def selection_record(
    graph_id: int,
    graph: Graph,
    selection: SubgraphSelection,
    soft: Optional[np.ndarray] = None,
) -> dict:
    kept = [
        [u, v]
        for u, v in graph.edges()
        if selection.node_mask[u] and selection.node_mask[v]
    ]
    record = {
        "graph_id": graph_id,
        "node_mask": [bool(b) for b in selection.node_mask],
        "kept_edges": kept,
        "threshold": selection.threshold,
    }
    if soft is not None:
        record["subgraph_prob"] = [float(p) for p in np.asarray(soft)[:, 0]]
    return record


def dump_selections(path: str, records: Sequence[dict]) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def parse_selections(path: str) -> list[dict]:
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
