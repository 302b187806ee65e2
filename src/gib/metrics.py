"""Quantitative metrics: accuracy, edge recovery, property bias, compactness.

The denoising scores follow the convention that keeping nothing is worst
case (precision 0) and is flagged rather than hidden; likewise an empty
subgraph scores the full property value as its bias.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .graphs import Graph
from .subgraph import SubgraphSelection, connected_components, largest_connected_part


def accuracy(predictions: Sequence[int], labels: Sequence[int]) -> float:
    if len(predictions) == 0:
        raise ValueError("accuracy of an empty prediction list is undefined")
    if len(predictions) != len(labels):
        raise ValueError(f"length mismatch: {len(predictions)} vs {len(labels)}")
    hits = sum(int(p == y) for p, y in zip(predictions, labels))
    return hits / len(predictions)


def edge_scores(kept_edge_mask: np.ndarray, real_edge_mask: np.ndarray) -> dict:
    """Recall and precision of real edges among the kept ones.

    Both masks index the same canonical edge order of the noisy graph. An
    empty keep-set has precision 0 by convention and is flagged.
    """
    kept = np.asarray(kept_edge_mask, dtype=bool)
    real = np.asarray(real_edge_mask, dtype=bool)
    if kept.shape != real.shape:
        raise ValueError(f"edge masks disagree: {kept.shape} vs {real.shape}")
    n_real = int(real.sum())
    n_kept = int(kept.sum())
    n_hit = int((kept & real).sum())
    recall = n_hit / n_real if n_real else 0.0
    precision = n_hit / n_kept if n_kept else 0.0
    return {
        "recall": recall,
        "precision": precision,
        "empty_selection": n_kept == 0,
        "kept": n_kept,
        "real": n_real,
        "hits": n_hit,
    }


def motif_property(motif_nodes: Sequence[int], node_indices: Sequence[int]) -> float:
    """The synthetic property of a node set: how much of the planted motif it holds."""
    return float(len(set(motif_nodes) & set(node_indices)))


def motif_property_bias(
    motif_nodes: Sequence[int], graph: Graph, selection: SubgraphSelection
) -> float:
    """|property(G) - property(largest connected part of the selection)|.

    An empty selection scores the whole-graph property (worst case).
    """
    whole = motif_property(motif_nodes, range(graph.n))
    if selection.empty:
        return abs(whole)
    part = largest_connected_part(selection)
    return abs(whole - motif_property(motif_nodes, part.node_indices()))


def count_components(selection: SubgraphSelection) -> int:
    if selection.empty:
        raise ValueError("count_components: selection is empty")
    return len(connected_components(selection))


def node_recall(true_nodes: Sequence[int], selected: Sequence[int]) -> float:
    true_set = set(true_nodes)
    if not true_set:
        raise ValueError("node_recall: no ground-truth nodes")
    return len(true_set & set(selected)) / len(true_set)


def spearman(a: Sequence[float], b: Sequence[float]) -> float:
    """Rank correlation with average ranks for ties."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise ValueError("spearman needs two equal-length sequences of size >= 2")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx * rx).sum() * (ry * ry).sum())
    if denom == 0.0:
        return 0.0
    return float((rx * ry).sum() / denom)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ranks = np.empty_like(x)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


# -- result tables ---------------------------------------------------------------


def format_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Aligned plain-text table."""
    columns = [headers] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[c]) for row in columns) for c in range(len(headers))]
    lines = []
    for r, row in enumerate(columns):
        lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)))
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def write_table_csv(path: str, headers: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(headers) + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")
