"""Disjoint-union graph batches: the segment ops behind them, and batched
losses checked against one-graph batches."""

import ctypes
import gc
import platform
import types
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gib
import gib.batch
import gib.tensor as T
from gib.batch import GraphBatch, batches
from gib.gradcheck import max_relative_error
from gib.graphs import Graph, normalized_adjacency
from gib.models import AttentionClassifier, GibModel, MeanPoolClassifier
from gib.subgraph import connectivity_loss, discretize
from gib.tensor import ShapeMismatch, Tensor
from gib.train import classification_loss, output_loss

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2**32 - 1)
SEGMENTS = st.lists(st.integers(1, 5), min_size=1, max_size=4)
GRAPH_SIZES = st.lists(st.integers(1, 7), min_size=2, max_size=5)
GRAD_TOL = 1e-5
MATCH_TOL = 1e-12


def random_graphs(seed, sizes, d=3, continuous=False):
    r = np.random.default_rng(seed)
    graphs = []
    for n in sizes:
        upper = np.triu((r.random((n, n)) < 0.4).astype(float), 1)
        label = float(r.normal()) if continuous else int(r.integers(0, 2))
        graphs.append(Graph(upper + upper.T, r.normal(size=(n, d)), label))
    return graphs


def segments(sizes):
    return T.Segments(np.cumsum([0] + list(sizes)))


def block_diagonal(blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n))
    start = 0
    for b in blocks:
        out[start : start + b.shape[0], start : start + b.shape[0]] = b
        start += b.shape[0]
    return out


# -- the new tensor ops against finite differences ------------------------------


class TestSegmentOpGradients:
    @PROPERTY
    @given(sizes=SEGMENTS, width=st.integers(1, 3), seed=SEEDS)
    def test_segment_matmul(self, sizes, width, seed):
        r = np.random.default_rng(seed)
        segs = segments(sizes)
        blocks = [r.normal(size=(n, n)) for n in sizes]
        x = r.normal(size=(sum(sizes), width))
        np.testing.assert_allclose(
            T.segment_matmul(blocks, Tensor(x), segs).data,
            block_diagonal(blocks) @ x, atol=1e-12,
        )
        build = lambda ts: T.tsum(T.tanh(T.segment_matmul(blocks, ts[0], segs)))
        assert max_relative_error(build, [x]) <= GRAD_TOL

    @PROPERTY
    @given(sizes=SEGMENTS, seed=SEEDS)
    def test_segment_softmax(self, sizes, seed):
        r = np.random.default_rng(seed)
        segs = segments(sizes)
        x = r.normal(scale=2.0, size=(1, sum(sizes)))
        weights = Tensor(r.normal(size=(1, sum(sizes))))
        y = T.segment_softmax(Tensor(x), segs).data
        for start, end in segs.spans:
            expected = T.row_softmax(Tensor(x[:, start:end])).data
            np.testing.assert_allclose(y[:, start:end], expected, atol=1e-12)
        build = lambda ts: T.tsum(T.segment_softmax(ts[0], segs) * weights)
        assert max_relative_error(build, [x]) <= GRAD_TOL

    @PROPERTY
    @given(rows=st.integers(1, 4), cols=st.integers(1, 4), seed=SEEDS)
    def test_row_norms(self, rows, cols, seed):
        r = np.random.default_rng(seed)
        a = r.normal(size=(rows, cols))
        weights = Tensor(r.normal(size=(rows, 1)))
        for i in range(rows):
            expected = T.frobenius_norm(Tensor(a[i : i + 1])).data
            assert T.row_norms(Tensor(a)).data[i, 0] == pytest.approx(float(expected), abs=1e-12)
        build = lambda ts: T.tsum(T.row_norms(ts[0]) * weights)
        assert max_relative_error(build, [a]) <= GRAD_TOL

    @PROPERTY
    @given(rows=st.integers(1, 4), cols=st.integers(1, 4), seed=SEEDS)
    def test_row_logsumexp(self, rows, cols, seed):
        r = np.random.default_rng(seed)
        a = r.normal(scale=3.0, size=(rows, cols))
        weights = Tensor(r.normal(size=(rows, 1)))
        for i in range(rows):
            expected = T.logsumexp(Tensor(a[i : i + 1])).data
            assert T.row_logsumexp(Tensor(a)).data[i, 0] == pytest.approx(float(expected), abs=1e-12)
        build = lambda ts: T.tsum(T.row_logsumexp(ts[0]) * weights)
        assert max_relative_error(build, [a]) <= GRAD_TOL

    def test_zero_row_norm_has_zero_gradient(self):
        a = Tensor(np.array([[0.0, 0.0], [3.0, 4.0]]))
        T.tsum(T.row_norms(a)).backward()
        np.testing.assert_array_equal(a.grad, [[0.0, 0.0], [0.6, 0.8]])

    @pytest.mark.parametrize("offsets", [[0, 0, 3], [0, 2], [1, 3], [0, 2, 1, 3]])
    def test_bad_offsets_rejected(self, offsets):
        # an empty, out-of-order or not-from-0 segment fails when the segments
        # are built; segments that do not cover the input fail in the op
        with pytest.raises(ShapeMismatch, match="offsets"):
            T.segment_softmax(Tensor(np.zeros((1, 3))), T.Segments(np.array(offsets)))
        with pytest.raises(ShapeMismatch, match="offsets"):
            T.segment_matmul([np.eye(3)], Tensor(np.zeros((3, 1))), T.Segments(np.array(offsets)))


def random_bool_blocks(r, sizes):
    blocks = []
    for n in sizes:
        upper = np.triu(r.random((n, n)) < 0.3, 1)
        blocks.append(upper | upper.T)
    return blocks


class TestBoolBlocks:
    """A graph keeps its adjacency as bool. ``segment_matmul`` casts each
    0/1 block to float64 where it uses it, so its forward and backward are
    bitwise those of float blocks. numpy's mixed bool x float product is not
    bitwise the float one: into ``out=``, the transposed backward product of
    a narrow gradient differs in the last bits."""

    @staticmethod
    def forward_backward(blocks, x, g, segs):
        leaf = Tensor(x)
        y = T.segment_matmul(blocks, leaf, segs)
        T.tsum(y * Tensor(g, requires_grad=False)).backward()  # pushes g into the op
        return y.data.tobytes(), leaf.grad.tobytes()

    @PROPERTY
    @given(sizes=st.lists(st.integers(1, 90), min_size=1, max_size=4),
           width=st.integers(1, 3), seed=SEEDS)
    # line-graph-sized blocks and a 2-wide gradient, the connectivity loss's
    # backward: without the cast its bytes differ
    @example(sizes=[77, 80, 64], width=2, seed=31)
    def test_segment_matmul_matches_float_blocks(self, sizes, width, seed):
        r = np.random.default_rng(seed)
        blocks = random_bool_blocks(r, sizes)
        x, g = r.normal(size=(2, sum(sizes), width))  # g signed
        segs = segments(sizes)
        assert self.forward_backward(blocks, x, g, segs) == \
            self.forward_backward([b.astype(np.float64) for b in blocks], x, g, segs)

    @PROPERTY
    @given(sizes=st.lists(st.integers(1, 40), min_size=1, max_size=5), seed=SEEDS)
    def test_connectivity_loss_matches_float_blocks(self, sizes, seed):
        r = np.random.default_rng(seed)
        graphs = [Graph(a, np.ones((a.shape[0], 1)), 0) for a in random_bool_blocks(r, sizes)]
        batch = GraphBatch(graphs)
        float_batch = GraphBatch(graphs)
        float_batch.adjacency = [a.astype(np.float64) for a in batch.adjacency]
        logits = r.normal(size=(sum(sizes), 2))
        results = []
        for b in (batch, float_batch):
            s = Tensor(np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True))
            loss = connectivity_loss(s, b)
            loss.backward()
            results.append((loss.data.tobytes(), s.grad.tobytes()))
        assert all(a.dtype == bool for a in batch.adjacency)
        assert results[0] == results[1]


# -- the batch itself ----------------------------------------------------------


class TestGraphBatch:
    @PROPERTY
    @given(sizes=GRAPH_SIZES, seed=SEEDS)
    def test_propagation_matches_dense_normalized_adjacency(self, sizes, seed):
        graphs = random_graphs(seed, sizes)
        batch = GraphBatch(graphs)
        x = np.random.default_rng(seed).normal(size=(sum(sizes), 2))
        dense = []
        for g in graphs:
            a_hat = g.adjacency + np.eye(g.n)
            d = 1.0 / np.sqrt(a_hat.sum(axis=1))
            dense.append(a_hat * np.outer(d, d))
        for block, expected in zip(batch.propagation, dense):
            np.testing.assert_array_equal(block, expected)
        propagated = T.segment_matmul(batch.propagation, Tensor(x), batch.segments)
        np.testing.assert_allclose(propagated.data, block_diagonal(dense) @ x, atol=1e-12)

    def test_pooling_and_split(self, monkeypatch):
        graphs = random_graphs(0, [2, 3, 1])
        batch = GraphBatch(graphs)
        x = np.arange(12.0).reshape(6, 2)
        sum_pool, mean_pool = batch.segments.sum_pool, batch.segments.mean_pool
        np.testing.assert_array_equal(sum_pool @ x, [[2, 4], [18, 21], [10, 11]])
        # the filled 1/n is bitwise the divide of the sum pool by the sizes
        assert mean_pool.tobytes() == (sum_pool / np.array([[2.0], [3.0], [1.0]])).tobytes()
        assert not (sum_pool.flags.writeable or mean_pool.flags.writeable)
        np.testing.assert_allclose(batch.mean(Tensor(x)).data, [[1, 2], [6, 7], [10, 11]])
        np.testing.assert_array_equal(batch.sum(Tensor(x)).data, [[2, 4], [18, 21], [10, 11]])
        assert [b.shape[0] for b in batch.split(x)] == [2, 3, 1]
        monkeypatch.setattr(gib.batch, "EVAL_BATCH", 2)
        assert [len(b) for b in batches(graphs)] == [2, 1]

    @PROPERTY
    @given(sizes=st.lists(st.integers(1, 7), min_size=1, max_size=5), seed=SEEDS)
    def test_scattered_pools_match_graph_by_graph_fill(self, sizes, seed):
        # one-graph batches and single-node graphs included
        batch = GraphBatch(random_graphs(seed, sizes))
        sum_pool, mean_pool = np.zeros((2, len(sizes), sum(sizes)))
        for b, (start, end) in enumerate(batch.segments.spans):
            sum_pool[b, start:end] = 1.0
            mean_pool[b, start:end] = 1.0 / (end - start)
        assert batch.segments.sum_pool.tobytes() == sum_pool.tobytes()
        assert batch.segments.mean_pool.tobytes() == mean_pool.tobytes()
        x = np.random.default_rng(seed).normal(size=(sum(sizes), 3))
        assert batch.sum(Tensor(x)).data.tobytes() == (sum_pool @ x).tobytes()
        assert batch.mean(Tensor(x)).data.tobytes() == (mean_pool @ x).tobytes()

    def test_batches_share_each_graphs_kept_operators(self):
        graphs = random_graphs(4, [3, 5, 2])
        first, second = GraphBatch(graphs), GraphBatch([graphs[1], graphs[0]])
        assert second.propagation[0] is first.propagation[1]
        assert second.propagation[1] is first.propagation[0]
        for g, block in zip(graphs, first.propagation):
            assert block.tobytes() == normalized_adjacency(g).tobytes()
        rows = first.split(first.propagated_features)
        for g, kept in zip(graphs, rows):
            assert kept.tobytes() == (normalized_adjacency(g) @ g.features).tobytes()

    def test_graph_keeps_its_batch_of_one_without_a_cycle(self):
        graph = random_graphs(6, [4])[0]
        kept = graph.as_batch
        assert graph.as_batch is kept and len(kept) == 1
        assert kept.propagation[0] is graph.propagation
        # with the cyclic collector off, refcounting alone frees the graph
        # and its batch
        gone = weakref.ref(graph)
        gc.disable()
        try:
            del graph, kept
            assert gone() is None
        finally:
            gc.enable()

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError, match="at least one graph"):
            GraphBatch([])
        with pytest.raises(ValueError, match="without nodes"):
            GraphBatch([Graph(np.zeros((0, 0)), np.zeros((0, 3)), 0)])


# -- batched losses against one-graph batches -----------------------------------


def _model(seed, continuous):
    return GibModel(3, None if continuous else 2, np.random.default_rng(seed),
                    hidden=4, mlp_hidden=4)


def _outer_terms(model, graphs):
    """The batch of ``graphs`` and its batched (S, sub embeddings, graph
    embeddings, cls, con)."""
    batch = GraphBatch(graphs)
    s, x, sub = model.forward(batch)
    labels = [model.standardize_label(g.label) for g in graphs]
    cls = output_loss(model.logits(sub), labels, model.num_classes)
    return batch, (s, sub, batch.mean(x), cls, connectivity_loss(s, batch))


def _grads(model, loss):
    for p in model.outer_params():
        p.grad = None
    loss.backward()
    return [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
            for p in model.outer_params()]


class TestBatchInvariance:
    """A graph's S, subgraph embedding and loss terms do not depend on its
    batch-mates; the batched losses are the means of one-graph losses."""

    @PROPERTY
    @given(sizes=GRAPH_SIZES, seed=SEEDS, continuous=st.booleans())
    def test_matches_one_graph_batches(self, sizes, seed, continuous):
        graphs = random_graphs(seed, sizes, continuous=continuous)
        model = _model(seed % 1000, continuous)
        batch, (s, sub, graph_embs, cls, con) = _outer_terms(model, graphs)
        batch_grads = _grads(model, cls + con)

        cls_terms, con_terms, one_grads = [], [], []
        for b, (graph, s_rows) in enumerate(zip(graphs, batch.split(s.data))):
            s1, x1, sub1 = model.forward_graph(graph)
            np.testing.assert_allclose(s_rows, s1.data, atol=MATCH_TOL)
            # the one-graph batch against the dense formulas
            np.testing.assert_allclose(sub1.data[0], s1.data[:, 0] @ x1.data, atol=MATCH_TOL)
            quad = s1.data.T @ graph.adjacency @ s1.data
            sums = quad.sum(axis=1, keepdims=True)
            normalized = np.divide(quad, sums, out=np.zeros_like(quad), where=sums != 0)
            np.testing.assert_allclose(sub.data[b : b + 1], sub1.data, atol=MATCH_TOL)
            np.testing.assert_allclose(graph_embs.data[b : b + 1],
                                       model.statnet.graph_embedding(graph).data, atol=MATCH_TOL)
            label = model.standardize_label(graph.label)
            cls1 = classification_loss(model.classifier, sub1, label, model.num_classes)
            con1 = connectivity_loss(s1, graph.adjacency)
            assert float(con1.data) == pytest.approx(
                np.linalg.norm(normalized - np.eye(2)), abs=MATCH_TOL)
            cls_terms.append(float(cls1.data))
            con_terms.append(float(con1.data))
            one_grads.append(_grads(model, cls1 + con1))

        assert float(cls.data) == pytest.approx(np.mean(cls_terms), abs=MATCH_TOL)
        assert float(con.data) == pytest.approx(np.mean(con_terms), abs=MATCH_TOL)
        for got, per_graph in zip(batch_grads, zip(*one_grads)):
            np.testing.assert_allclose(got, np.mean(per_graph, axis=0), atol=MATCH_TOL)

    def test_baseline_outputs_match_one_graph_batches(self):
        graphs = random_graphs(5, [3, 6, 1, 4])
        batch = GraphBatch(graphs)
        att = AttentionClassifier(3, 2, np.random.default_rng(1), hidden=4, mlp_hidden=4)
        pool = MeanPoolClassifier(3, 2, np.random.default_rng(2), hidden=4, mlp_hidden=4)
        out, scores = att.forward(batch)
        mean_out = pool.outputs(batch)
        for b, (graph, score_rows) in enumerate(zip(graphs, batch.split(scores.data[0]))):
            one = GraphBatch([graph])
            np.testing.assert_allclose(out.data[b], att.outputs(one).data[0], atol=MATCH_TOL)
            np.testing.assert_allclose(score_rows, att.node_scores(graph), atol=MATCH_TOL)
            np.testing.assert_allclose(mean_out.data[b], pool.outputs(one).data[0], atol=MATCH_TOL)


class TestNodePermutation:
    """Relabelling one graph's nodes permutes its rows of S and changes no loss."""

    @PROPERTY
    @given(sizes=GRAPH_SIZES, seed=SEEDS, which=st.integers(0, 4))
    def test_relabelling_permutes_s_and_keeps_losses(self, sizes, seed, which):
        graphs = random_graphs(seed, sizes)
        which %= len(graphs)
        model = _model(seed % 1000, False)
        g = graphs[which]
        perm = np.random.default_rng(seed).permutation(g.n)
        relabelled = list(graphs)
        relabelled[which] = Graph(g.adjacency[np.ix_(perm, perm)], g.features[perm], g.label)

        base, (s, sub, graph_embs, cls, con) = _outer_terms(model, graphs)
        moved, (s_p, sub_p, graph_embs_p, cls_p, con_p) = _outer_terms(model, relabelled)
        np.testing.assert_allclose(moved.split(s_p.data)[which],
                                   base.split(s.data)[which][perm], atol=MATCH_TOL)
        np.testing.assert_allclose(sub_p.data, sub.data, atol=MATCH_TOL)
        np.testing.assert_allclose(graph_embs_p.data, graph_embs.data, atol=MATCH_TOL)
        assert float(cls_p.data) == pytest.approx(float(cls.data), abs=MATCH_TOL)
        assert float(con_p.data) == pytest.approx(float(con.data), abs=MATCH_TOL)

    @PROPERTY
    @given(sizes=GRAPH_SIZES, seed=SEEDS,
           model_class=st.sampled_from([GibModel, AttentionClassifier, MeanPoolClassifier]))
    def test_relabelling_every_graph_keeps_predictions_and_selections(self, sizes, seed,
                                                                      model_class):
        graphs = random_graphs(seed, sizes, continuous=True)
        r = np.random.default_rng(seed)
        perms = [r.permutation(g.n) for g in graphs]
        relabelled = [Graph(g.adjacency[np.ix_(p, p)], g.features[p], g.label)
                      for g, p in zip(graphs, perms)]
        model = model_class(3, None, np.random.default_rng(seed % 1000), hidden=4, mlp_hidden=4)
        np.testing.assert_allclose(model.predict_all(relabelled), model.predict_all(graphs),
                                   rtol=0.0, atol=MATCH_TOL)
        if model_class is not GibModel:
            return
        # node p[i] of a graph is node i of its relabelling; a node within
        # 1e-9 of the threshold may fall on either side
        for g, g_p, p in zip(graphs, relabelled, perms):
            s = model.assignment_matrix(g)
            kept = discretize(s, g, 0.5).node_mask[p]
            kept_p = discretize(model.assignment_matrix(g_p), g_p, 0.5).node_mask
            clear = np.abs(s[p, 0] - 0.5) > 1e-9
            np.testing.assert_array_equal(kept_p[clear], kept[clear])


class TestAllocator:
    """``import gib`` asks glibc to keep freed heap, and does nothing where
    the C library has no ``mallopt``."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
    def test_applied_on_glibc(self):
        assert gib._keep_freed_heap() is True

    def test_no_op_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert gib._keep_freed_heap() is False

    @pytest.mark.parametrize("mmap_result, calls", [(1, [-3, -1]), (0, [-3])])
    def test_trim_threshold_only_after_mmap_threshold(self, monkeypatch, mmap_result, calls):
        # a trim threshold alone would pin glibc's mmap threshold at 128 KiB
        seen = []

        def mallopt(param, value):
            seen.append(param)
            return mmap_result if param == -3 else 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        assert gib._keep_freed_heap() is bool(mmap_result)
        assert seen == calls

    @pytest.mark.parametrize("error", [OSError, TypeError])
    def test_no_op_without_a_loadable_libc(self, monkeypatch, error):
        def unloadable(name):
            raise error("no C library")

        monkeypatch.setattr(ctypes, "CDLL", unloadable)
        assert gib._keep_freed_heap() is False
