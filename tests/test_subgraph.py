"""Node assignments, subgraph embeddings, connectivity loss, discretization."""

import json

import numpy as np
import pytest

import gib.tensor as T
from gib.batch import GraphBatch
from gib.gradcheck import assert_gradients_match
from gib.graphs import Graph
from gib.subgraph import (
    SubgraphGenerator,
    SubgraphSelection,
    connected_components,
    connectivity_loss,
    discretize,
    dump_selections,
    largest_connected_part,
    parse_selections,
    selection_record,
    subgraph_embedding,
)
from gib.tensor import Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


def random_graph(r, n, p=0.4, d=3) -> Graph:
    upper = np.triu((r.random((n, n)) < p).astype(float), 1)
    return Graph(upper + upper.T, r.normal(size=(n, d)), 0)


def node_batch(n) -> GraphBatch:
    """A batch of one edgeless n-node graph, to pool hand-made node rows."""
    return GraphBatch([Graph(np.zeros((n, n)), np.zeros((n, 1)), 0)])


def two_triangles() -> Graph:
    a = np.zeros((6, 6))
    for i, j in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        a[i, j] = a[j, i] = 1.0
    return Graph(a, np.ones((6, 1)), 0)


def four_cycle() -> np.ndarray:
    a = np.zeros((4, 4))
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        a[i, j] = a[j, i] = 1.0
    return a


class TestAssignment:
    def test_rows_sum_to_one(self):
        r = rng(1)
        gen = SubgraphGenerator(3, 8, r)
        for _ in range(10):
            s, _ = gen.assignment(GraphBatch([random_graph(r, int(r.integers(2, 9)))]))
            np.testing.assert_allclose(s.data.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(s.data >= 0) and np.all(s.data <= 1)

    def test_saturated_bias_dominates(self):
        r = rng(2)
        gen = SubgraphGenerator(3, 8, r)
        final_w = gen.assign_mlp.weights[-1]
        final_b = gen.assign_mlp.biases[-1]
        final_w.data[...] = 0.0
        final_b.data[...] = [[10.0, -10.0]]
        s, _ = gen.assignment(GraphBatch([random_graph(r, 5)]))
        assert np.all(s.data[:, 0] > 0.999)

    def test_permutation_equivariance(self):
        r = rng(3)
        gen = SubgraphGenerator(3, 8, r)
        for _ in range(10):
            g = random_graph(r, 7)
            perm = r.permutation(7)
            s = gen.assignment(GraphBatch([g]))[0].data
            pg = Graph(g.adjacency[np.ix_(perm, perm)], g.features[perm], 0)
            sp = gen.assignment(GraphBatch([pg]))[0].data
            np.testing.assert_allclose(sp, s[perm], atol=1e-10)

    def test_discretized_assignment_permutes_with_nodes(self):
        r = rng(4)
        gen = SubgraphGenerator(3, 8, r)
        g = random_graph(r, 8)
        perm = r.permutation(8)
        pg = Graph(g.adjacency[np.ix_(perm, perm)], g.features[perm], 0)
        mask = discretize(gen.assignment(GraphBatch([g]))[0].data, g).node_mask
        mask_p = discretize(gen.assignment(GraphBatch([pg]))[0].data, pg).node_mask
        np.testing.assert_array_equal(mask_p, mask[perm])


class TestSubgraphEmbedding:
    def test_hard_selection_sums_selected_rows(self):
        s = Tensor(np.array([[1.0, 0.0]] * 3))
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(subgraph_embedding(s, x, node_batch(3)).data, [[9.0, 12.0]])

    def test_empty_side_gives_zero_vector(self):
        s = Tensor(np.array([[0.0, 1.0]] * 3))
        x = Tensor(np.ones((3, 2)))
        np.testing.assert_array_equal(subgraph_embedding(s, x, node_batch(3)).data, [[0.0, 0.0]])

    def test_half_membership_scales_linearly(self):
        s = Tensor(np.array([[0.5, 0.5]]))
        x = Tensor(np.array([[2.0, 4.0]]))
        np.testing.assert_array_equal(subgraph_embedding(s, x, node_batch(1)).data, [[1.0, 2.0]])

    def test_linear_in_embeddings(self):
        r = rng(5)
        s = Tensor(T.row_softmax(Tensor(r.normal(size=(6, 2)))).data)
        x1, x2 = r.normal(size=(6, 3)), r.normal(size=(6, 3))
        batch = node_batch(6)
        lhs = subgraph_embedding(s, Tensor(2.0 * x1 + 3.0 * x2), batch).data
        rhs = (2.0 * subgraph_embedding(s, Tensor(x1), batch).data
               + 3.0 * subgraph_embedding(s, Tensor(x2), batch).data)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestConnectivityLoss:
    def test_perfect_partition_is_zero(self):
        g = two_triangles()
        s = Tensor(np.array([[1.0, 0.0]] * 3 + [[0.0, 1.0]] * 3))
        assert connectivity_loss(s, g.adjacency).data.item() == pytest.approx(0.0, abs=1e-9)

    def test_all_one_side_is_one(self):
        g = two_triangles()
        s = Tensor(np.array([[1.0, 0.0]] * 6))
        assert connectivity_loss(s, g.adjacency).data.item() == pytest.approx(1.0, abs=1e-9)

    def test_fully_cut_four_cycle_is_two(self):
        s = Tensor(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]))
        assert connectivity_loss(s, four_cycle()).data.item() == pytest.approx(2.0, abs=1e-9)

    def test_bounded_between_zero_and_two(self):
        r = rng(6)
        for _ in range(100):
            n = int(r.integers(2, 10))
            g = random_graph(r, n, p=r.uniform(0.1, 0.9))
            s = T.row_softmax(Tensor(r.normal(scale=3.0, size=(n, 2))))
            value = connectivity_loss(s, g.adjacency).data.item()
            assert -1e-12 <= value <= 2.0 + 1e-12

    def test_gradient_away_from_zero_rows(self):
        r = rng(7)
        for _ in range(20):
            n = int(r.integers(3, 7))
            g = random_graph(r, n, p=0.6)
            if g.num_edges == 0:
                continue
            logits = r.normal(size=(n, 2))
            adj = g.adjacency

            def build(ts):
                return connectivity_loss(T.row_softmax(ts[0]), adj)

            assert_gradients_match(build, [logits])


class TestDiscretize:
    def test_threshold_rule(self):
        g = two_triangles()
        s = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5], [0.4, 0.6], [0.6, 0.4], [0.3, 0.7]])
        sel = discretize(s, g, 0.5)
        np.testing.assert_array_equal(sel.node_mask, [True, False, True, False, True, False])

    def test_boundary_is_inclusive(self):
        g = Graph(np.zeros((1, 1)), np.ones((1, 1)), 0)
        assert discretize(np.array([[0.5, 0.5]]), g).node_mask[0]

    @pytest.mark.parametrize("threshold", [1.5, 1.0, 0.0, -0.2, float("nan")])
    def test_threshold_outside_unit_interval_named(self, threshold):
        g = two_triangles()
        with pytest.raises(ValueError, match=r"^threshold must be in \(0, 1\), got "):
            discretize(np.full((6, 2), 0.5), g, threshold)
        assert discretize(np.full((6, 2), 0.5), g, 0.3).node_mask.all()

    def test_empty_selection_flagged(self):
        g = two_triangles()
        sel = discretize(np.array([[0.4, 0.6]] * 6), g)
        assert sel.empty

    def test_induced_adjacency_restricted(self):
        g = two_triangles()
        sel = discretize(np.array([[0.9, 0.1]] * 3 + [[0.1, 0.9]] * 3), g)
        assert sel.induced_adjacency[:3, :3].sum() == 6.0
        assert sel.induced_adjacency[3:, :].sum() == 0.0


class TestComponents:
    def selection(self, g, nodes):
        mask = np.zeros(g.n, dtype=bool)
        mask[nodes] = True
        return SubgraphSelection(mask, g.adjacency * np.outer(mask, mask), 0.5)

    def test_connected_selection_unchanged(self):
        g = two_triangles()
        sel = self.selection(g, [0, 1, 2])
        np.testing.assert_array_equal(largest_connected_part(sel).node_mask, sel.node_mask)

    def test_largest_component_wins(self):
        g = two_triangles()
        a = g.adjacency.copy()
        a[3, 4] = a[4, 3] = 0.0
        a[4, 5] = a[5, 4] = 0.0
        a[3, 5] = a[5, 3] = 0.0
        g2 = Graph(a, g.features, 0)
        sel = self.selection(g2, [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(
            largest_connected_part(sel).node_indices(), [0, 1, 2]
        )

    def test_tie_goes_to_smallest_min_index(self):
        a = np.zeros((6, 6))
        a[0, 1] = a[1, 0] = 1.0
        a[4, 5] = a[5, 4] = 1.0
        g = Graph(a, np.ones((6, 1)), 0)
        sel = self.selection(g, [0, 1, 4, 5])
        assert largest_connected_part(sel).node_indices() == [0, 1]

    def test_empty_selection_rejected(self):
        g = two_triangles()
        with pytest.raises(ValueError, match="empty"):
            largest_connected_part(self.selection(g, []))

    def test_component_count(self):
        g = two_triangles()
        assert len(connected_components(self.selection(g, [0, 1, 2, 3, 4, 5]))) == 2
        assert len(connected_components(self.selection(g, [0, 3]))) == 2


class TestSelectionRecords:
    def test_jsonl_round_trip(self, tmp_path):
        r = rng(8)
        gen = SubgraphGenerator(3, 8, r)
        records = []
        graphs = [random_graph(r, int(r.integers(3, 8))) for _ in range(4)]
        for i, g in enumerate(graphs):
            s = gen.assignment(GraphBatch([g]))[0].data
            records.append(selection_record(i, g, discretize(s, g), soft=s))
        path = str(tmp_path / "sel.jsonl")
        dump_selections(path, records)
        back = parse_selections(path)
        assert back == [json.loads(json.dumps(r)) for r in records]
        for rec, g in zip(back, graphs):
            assert len(rec["node_mask"]) == g.n
            for u, v in rec["kept_edges"]:
                assert rec["node_mask"][u] and rec["node_mask"][v]
