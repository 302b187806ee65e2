"""Scoring: accuracy, edge recovery, property bias, components, rank correlation."""

import numpy as np
import pytest

from gib.graphs import Graph
from gib.metrics import (
    accuracy,
    count_components,
    edge_scores,
    format_table,
    mean_std,
    motif_property,
    motif_property_bias,
    node_recall,
    spearman,
)
from gib.subgraph import SubgraphSelection


def selection(g: Graph, nodes) -> SubgraphSelection:
    mask = np.zeros(g.n, dtype=bool)
    mask[list(nodes)] = True
    return SubgraphSelection(mask, g.adjacency, 0.5)


def chain_with_motif() -> tuple[Graph, list[int]]:
    """A 5-clique (nodes 5..9) hanging off a 5-path (nodes 0..4)."""
    n = 10
    a = np.zeros((n, n))
    for i in range(4):
        a[i, i + 1] = a[i + 1, i] = 1.0
    for i in range(5, 10):
        for j in range(i + 1, 10):
            a[i, j] = a[j, i] = 1.0
    a[4, 5] = a[5, 4] = 1.0
    return Graph(a, np.ones((n, 1)), 0), [5, 6, 7, 8, 9]


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([0, 1, 1], [0, 1, 1]) == 1.0

    def test_none_correct(self):
        assert accuracy([1, 0], [0, 1]) == 0.0

    def test_three_of_four(self):
        assert accuracy([0, 1, 0, 1], [0, 1, 0, 0]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            accuracy([], [])


class TestEdgeScores:
    def test_keep_all(self):
        real = np.array([True] * 10 + [False] * 3)
        kept = np.ones(13, dtype=bool)
        s = edge_scores(kept, real)
        assert s["recall"] == 1.0
        assert s["precision"] == pytest.approx(10 / 13)

    def test_keep_exactly_real(self):
        real = np.array([True, False, True, True])
        s = edge_scores(real.copy(), real)
        assert s["recall"] == 1.0 and s["precision"] == 1.0

    def test_keep_nothing_flagged(self):
        real = np.array([True, True, False])
        s = edge_scores(np.zeros(3, dtype=bool), real)
        assert s["recall"] == 0.0 and s["precision"] == 0.0
        assert s["empty_selection"]

    def test_counts_are_integers(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 20))
            kept = rng.random(n) < 0.6
            real = rng.random(n) < 0.7
            s = edge_scores(kept, real)
            if real.sum():
                assert (s["recall"] * s["real"]) == pytest.approx(round(s["recall"] * s["real"]))
            if kept.sum():
                assert (s["precision"] * s["kept"]) == pytest.approx(round(s["precision"] * s["kept"]))


class TestPropertyBias:
    def test_whole_graph_has_zero_bias(self):
        g, motif = chain_with_motif()
        assert motif_property_bias(motif, g, selection(g, range(g.n))) == 0.0

    def test_exact_motif_has_zero_bias(self):
        g, motif = chain_with_motif()
        assert motif_property_bias(motif, g, selection(g, motif)) == 0.0

    def test_missing_one_motif_node_scores_one(self):
        g, motif = chain_with_motif()
        assert motif_property_bias(motif, g, selection(g, motif[:-1])) == 1.0

    def test_empty_selection_scores_worst_case(self):
        g, motif = chain_with_motif()
        assert motif_property_bias(motif, g, selection(g, [])) == 5.0

    def test_symmetric_in_direction(self):
        g, motif = chain_with_motif()
        sub = selection(g, motif[:3])
        a = abs(motif_property(motif, range(g.n)) - motif_property(motif, sub.node_indices()))
        b = abs(motif_property(motif, sub.node_indices()) - motif_property(motif, range(g.n)))
        assert motif_property_bias(motif, g, sub) == a == b

    def test_disconnected_selection_scored_on_largest_part(self):
        g, motif = chain_with_motif()
        # 4 motif nodes plus a far-away path node: largest part is the 4-node clique
        sub = selection(g, motif[:4] + [0])
        assert motif_property_bias(motif, g, sub) == 1.0


class TestComponents:
    def test_connected_is_one(self):
        g, motif = chain_with_motif()
        assert count_components(selection(g, motif)) == 1

    def test_two_separate_edges(self):
        g, _ = chain_with_motif()
        assert count_components(selection(g, [0, 1, 5, 6])) == 2

    def test_isolated_nodes_count_individually(self):
        g = Graph(np.zeros((4, 4)), np.ones((4, 1)), 0)
        assert count_components(selection(g, [0, 2, 3])) == 3

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(1)
        g, _ = chain_with_motif()
        for _ in range(10):
            perm = rng.permutation(g.n)
            nodes = rng.choice(g.n, size=5, replace=False)
            pg = Graph(g.adjacency[np.ix_(perm, perm)], g.features[perm], 0)
            inv = np.argsort(perm)
            c1 = count_components(selection(g, nodes))
            c2 = count_components(selection(pg, [int(inv[v]) for v in nodes]))
            assert c1 == c2

    def test_empty_rejected(self):
        g, _ = chain_with_motif()
        with pytest.raises(ValueError):
            count_components(selection(g, []))


class TestHelpers:
    def test_node_recall(self):
        assert node_recall([1, 2, 3, 4], [2, 3]) == 0.5

    def test_spearman_perfect_and_reversed(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_spearman_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=30)
        assert spearman(x, np.exp(x)) == pytest.approx(1.0)

    def test_spearman_handles_ties(self):
        assert spearman([1.0, 1.0, 2.0], [1.0, 1.0, 2.0]) == pytest.approx(1.0)

    def test_mean_std(self):
        m, s = mean_std([1.0, 3.0])
        assert m == 2.0 and s == 1.0

    def test_format_table_aligns(self):
        text = format_table(["a", "bbb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len({len(l) for l in lines}) == 1
