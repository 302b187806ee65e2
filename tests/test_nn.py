"""Graph convolution, attention readout, MLPs, and top-k selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gib.tensor as T
from gib.batch import GraphBatch
from gib.gradcheck import assert_gradients_match
from gib.graphs import Graph
from gib.nn import (
    AttentionHead,
    GcnEncoder,
    GcnLayer,
    Mlp,
    topk_subgraph_from_scores,
)
from gib.tensor import ShapeMismatch, Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


def random_graph(r, n, p=0.4, d=3) -> Graph:
    upper = np.triu((r.random((n, n)) < p).astype(float), 1)
    return Graph(upper + upper.T, r.normal(size=(n, d)), 0)


def node_batch(n) -> GraphBatch:
    """A batch of one edgeless n-node graph, to pool hand-made node rows."""
    return GraphBatch([Graph(np.zeros((n, n)), np.zeros((n, 1)), 0)])


class TestGcnForward:
    def test_isolated_node_scalar_case(self):
        # lone node: normalized adjacency is the 1x1 identity
        layer = GcnLayer(1, 1, rng())
        layer.weight.data[...] = [[2.0]]
        g = Graph(np.zeros((1, 1)), np.array([[1.0]]), 0)
        out = layer.forward(GraphBatch([g]), Tensor(g.features))
        assert out.data.item() == 2.0

    def test_two_connected_nodes_hand_evaluated(self):
        # with self-loops both degrees are 2, so propagation averages the pair
        layer = GcnLayer(2, 2, rng())
        layer.weight.data[...] = np.eye(2)
        g = Graph(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2), 0)
        out = layer.forward(GraphBatch([g]), Tensor(g.features))
        np.testing.assert_allclose(out.data, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_negative_preactivations_clamp_to_zero(self):
        layer = GcnLayer(1, 1, rng())
        layer.weight.data[...] = [[-3.0]]
        g = Graph(np.zeros((2, 2)), np.ones((2, 1)), 0)
        out = layer.forward(GraphBatch([g]), Tensor(g.features))
        assert np.all(out.data == 0.0)

    def test_width_mismatch_rejected(self):
        layer = GcnLayer(3, 2, rng())
        g = Graph(np.zeros((2, 2)), np.ones((2, 2)), 0)
        with pytest.raises(ShapeMismatch):
            layer.forward(GraphBatch([g]), Tensor(g.features))

    def test_permutation_equivariance(self):
        r = rng(1)
        encoder = GcnEncoder([3, 5, 4], r)
        for _ in range(10):
            g = random_graph(r, int(r.integers(3, 8)))
            perm = r.permutation(g.n)
            out = encoder.forward_graph(g).data
            pg = Graph(g.adjacency[np.ix_(perm, perm)], g.features[perm], 0)
            out_p = encoder.forward_graph(pg).data
            np.testing.assert_allclose(out_p, out[perm], atol=1e-10)


def forward_propagating_every_layer(encoder: GcnEncoder, batch: GraphBatch, graphs) -> T.Tensor:
    """The encoder as it ran before graphs kept their propagated features:
    every layer, the first included, runs segment_matmul on the tape."""
    h = T.constant(np.concatenate([g.features for g in graphs], axis=0))
    for layer in encoder.layers:
        h = layer.forward(batch, h)
    return h


class TestKeptFirstLayerInput:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 8), min_size=1, max_size=4),
           widths=st.lists(st.integers(1, 5), min_size=2, max_size=4))
    def test_forward_and_gradients_match_propagating_every_layer(self, seed, sizes, widths):
        r = rng(seed)
        graphs = [random_graph(r, n, d=widths[0]) for n in sizes]
        encoder = GcnEncoder(widths, r)
        batch = GraphBatch(graphs)
        weights = Tensor(r.normal(size=(sum(sizes), widths[-1])))
        grads = []
        for forward in (lambda: encoder.forward(batch),
                        lambda: forward_propagating_every_layer(encoder, batch, graphs)):
            for p in encoder.params():
                p.grad = None
            out = forward()
            T.tsum(out * weights).backward()
            grads.append((out.data.tobytes(), [p.grad.tobytes() for p in encoder.params()]))
        assert grads[0] == grads[1]

    def test_encoder_needs_a_layer(self):
        with pytest.raises(ShapeMismatch, match="GcnEncoder"):
            GcnEncoder([3], rng())


class TestAttention:
    def test_single_node_gets_unit_score(self):
        head = AttentionHead(3, 4, rng(2))
        emb = Tensor([[0.3, -0.2, 1.0]])
        graph_emb, scores = head.forward(emb, node_batch(1))
        assert scores.data.shape == (1, 1) and scores.data.item() == 1.0
        np.testing.assert_allclose(graph_emb.data, emb.data, atol=1e-12)

    def test_identical_embeddings_share_scores(self):
        head = AttentionHead(2, 4, rng(3))
        _, scores = head.forward(Tensor([[1.0, 2.0], [1.0, 2.0]]), node_batch(2))
        np.testing.assert_allclose(scores.data, [[0.5, 0.5]], atol=1e-12)

    def test_scores_sum_to_one(self):
        r = rng(4)
        head = AttentionHead(3, 4, r)
        for _ in range(20):
            n = int(r.integers(1, 9))
            _, scores = head.forward(Tensor(r.normal(size=(n, 3))), node_batch(n))
            assert abs(scores.data.sum() - 1.0) < 1e-12

    def test_graph_embedding_permutation_invariant(self):
        r = rng(5)
        head = AttentionHead(3, 4, r)
        for _ in range(10):
            x = r.normal(size=(6, 3))
            perm = r.permutation(6)
            e1, _ = head.forward(Tensor(x), node_batch(6))
            e2, _ = head.forward(Tensor(x[perm]), node_batch(6))
            np.testing.assert_allclose(e1.data, e2.data, atol=1e-10)


class TestMlp:
    def test_single_affine_layer(self):
        mlp = Mlp([1, 1], rng(6))
        mlp.weights[0].data[...] = [[1.0]]
        mlp.biases[0].data[...] = [[1.0]]
        assert mlp.forward(Tensor([[2.0]])).data.item() == 3.0

    def test_identity_stack(self):
        # identity weights: tanh after the hidden layer, nothing after the last
        mlp = Mlp([3, 3, 3], rng(7))
        for w, b in zip(mlp.weights, mlp.biases):
            w.data[...] = np.eye(3)
            b.data[...] = 0.0
        x = np.array([[0.1, -2.0, 5.0]])
        np.testing.assert_array_equal(mlp.forward(Tensor(x)).data, np.tanh(x))

    def test_gradcheck_two_layer(self):
        r = rng(8)
        for _ in range(5):
            mlp = Mlp([3, 4, 2], r)
            x = r.normal(size=(2, 3))
            arrays = [x] + [p.data.copy() for p in mlp.params()]

            def build(ts):
                h = T.tanh(ts[0] @ ts[1] + ts[2])
                return T.tsum(T.tanh(h @ ts[3] + ts[4]))

            assert_gradients_match(build, arrays)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            Mlp([3, 2], rng(9)).forward(Tensor(np.ones((1, 4))))


class TestTopK:
    def graph4(self):
        return Graph(np.zeros((4, 4)), np.ones((4, 1)), 0)

    def test_keep_half(self):
        mask = topk_subgraph_from_scores(self.graph4(), [0.4, 0.3, 0.2, 0.1], 0.5)
        np.testing.assert_array_equal(mask, [True, True, False, False])

    def test_ties_break_by_index(self):
        mask = topk_subgraph_from_scores(self.graph4(), [0.25] * 4, 0.5)
        np.testing.assert_array_equal(mask, [True, True, False, False])

    def test_keep_all(self):
        mask = topk_subgraph_from_scores(self.graph4(), [0.1, 0.2, 0.3, 0.4], 1.0)
        assert mask.all()

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            topk_subgraph_from_scores(self.graph4(), [1, 2, 3, 4], 0.0)
