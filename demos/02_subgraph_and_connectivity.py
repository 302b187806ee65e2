"""The subgraph generator's moving parts: node assignments, the subgraph
embedding, and the connectivity loss with its three signature values.

Run:  python demos/02_subgraph_and_connectivity.py
"""

import numpy as np

from gib.batch import GraphBatch
from gib.graphs import Graph
from gib.nn import GcnEncoder
from gib.subgraph import (
    SubgraphGenerator,
    connectivity_loss,
    discretize,
    largest_connected_part,
    subgraph_embedding,
)
from gib.tensor import Tensor

# two triangles joined by nothing: the cleanest 2-partition there is
adjacency = np.zeros((6, 6))
for i, j in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
    adjacency[i, j] = adjacency[j, i] = 1.0
graph = Graph(adjacency, np.ones((6, 1)), label=0)

print("== connectivity loss on hand-built assignments ==")
perfect = Tensor(np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 3))
print("perfect two-clique split :", float(connectivity_loss(perfect, adjacency).data))

collapsed = Tensor(np.array([[1.0, 0.0]] * 6))
print("everything on one side   :", float(connectivity_loss(collapsed, adjacency).data))

four_cycle = np.zeros((4, 4))
for i, j in [(0, 1), (1, 2), (2, 3), (3, 0)]:
    four_cycle[i, j] = four_cycle[j, i] = 1.0
alternating = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]] * 2))
print("4-cycle, every edge cut  :", float(connectivity_loss(alternating, four_cycle).data))
print("(0 = ideal partition, 1 = collapse, 2 = worst possible)")

print("\n== a fresh generator produces soft, row-stochastic assignments ==")
rng = np.random.default_rng(0)
encoder = GcnEncoder([1, 8, 8], rng)  # 1 input feature, two 8-wide GCN layers
generator = SubgraphGenerator(encoder, embed_dim=8, rng=rng, hidden=16)
batch = GraphBatch([graph])
s, node_embeddings = generator.assignment(batch)
print("assignment rows (p_in, p_out):\n", np.round(s.data, 3))
print("rows sum to:", s.data.sum(axis=1))

print("\n== the differentiable subgraph embedding ==")
emb = subgraph_embedding(s, node_embeddings, batch)
print("probability-weighted embedding:", np.round(emb.data, 3))

print("\n== discretizing and cleaning up ==")
selection = discretize(s.data, graph, threshold=0.5)
print("selected nodes:", selection.node_indices(), "(empty)" if selection.empty else "")
if not selection.empty:
    part = largest_connected_part(selection)
    print("largest connected part:", part.node_indices())
