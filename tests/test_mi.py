"""The mutual-information estimator: batch loss, pairing, inner maximization."""

import numpy as np
import pytest

from gib.gradcheck import assert_gradients_match
from gib.graphs import Graph
from gib.mi import StatisticsNetwork, _dv_inputs, cyclic_shift, inner_maximize, mi_batch_loss
from gib.nn import GcnEncoder, Mlp
from gib.tensor import Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


D = 4  # embedding width of make_statnet's networks


def make_statnet(r, d=D) -> StatisticsNetwork:
    encoder = GcnEncoder([3, d], r)
    return StatisticsNetwork(encoder, d, r, hidden=6)


def random_graph(r, n=5, d=3) -> Graph:
    upper = np.triu((r.random((n, n)) < 0.5).astype(float), 1)
    return Graph(upper + upper.T, r.normal(size=(n, d)), 0)


def random_pairs(r, statnet, count):
    graph_embs = [Tensor(r.normal(size=(1, D))) for _ in range(count)]
    sub_embs = [Tensor(r.normal(size=(1, D))) for _ in range(count)]
    return graph_embs, sub_embs


class TestBatchLoss:
    def test_constant_statistic_gives_exactly_zero(self):
        r = rng(1)
        statnet = make_statnet(r)
        for p in statnet.head.params():
            p.data[...] = 0.0
        g, s = random_pairs(r, statnet, 5)
        estimate = mi_batch_loss(statnet, g, s)
        assert float(estimate.value.data) == 0.0
        assert float(estimate.joint_term.data) == 0.0

    def test_value_is_joint_minus_marginal_exactly(self):
        r = rng(2)
        statnet = make_statnet(r)
        g, s = random_pairs(r, statnet, 4)
        est = mi_batch_loss(statnet, g, s)
        assert float(est.value.data) == float(est.joint_term.data) - float(est.marginal_term.data)

    def test_batch_of_one_rejected(self):
        r = rng(3)
        statnet = make_statnet(r)
        g, s = random_pairs(r, statnet, 1)
        with pytest.raises(ValueError, match="at least 2"):
            mi_batch_loss(statnet, g, s)

    def test_cyclic_shift_preserves_terms(self):
        """Cyclically rotating the batch keeps both terms identical as sets."""
        r = rng(4)
        statnet = make_statnet(r)
        g, s = random_pairs(r, statnet, 6)
        base = mi_batch_loss(statnet, g, s)
        rot = mi_batch_loss(statnet, g[2:] + g[:2], s[2:] + s[:2])
        assert float(rot.joint_term.data) == pytest.approx(float(base.joint_term.data), abs=1e-12)
        assert float(rot.marginal_term.data) == pytest.approx(float(base.marginal_term.data), abs=1e-12)

    def test_only_the_subgraph_side_is_picked_by_index(self):
        # the graph side enters the mismatched rows as it is: one index node
        r = rng(5)
        statnet = make_statnet(r)
        g, s = (Tensor(r.normal(size=(6, D))) for _ in range(2))
        ops = [node.op for node in mi_batch_loss(statnet, g, s).value.tape()]
        assert ops.count("index") == 1

    def test_gradients_flow_to_head_and_embeddings(self):
        r = rng(6)
        statnet = make_statnet(r)
        head_arrays = [p.data.copy() for p in statnet.head.params()]
        emb_arrays = [r.normal(size=(1, D)) for _ in range(6)]

        def build(ts):
            statnet.head.weights[0], statnet.head.biases[0] = ts[0], ts[1]
            statnet.head.weights[1], statnet.head.biases[1] = ts[2], ts[3]
            embs = ts[len(head_arrays):]
            g_embs, s_embs = embs[:3], embs[3:]
            return mi_batch_loss(statnet, g_embs, s_embs).value

        assert_gradients_match(build, head_arrays + emb_arrays)


class TestMarginalPairs:
    def test_cyclic_shift_directions(self):
        # GIB shifts the right side, [l_i, r_{i+1}]; the case study the left, [l_{i+1}, r_i]
        assert cyclic_shift(5).tolist() == [1, 2, 3, 4, 0] and cyclic_shift(1).tolist() == [0]
        left, right = np.arange(5.0)[:, None], 10.0 + np.arange(5.0)[:, None]
        nxt = (np.arange(5) + 1) % 5
        for shift_left, expected in ((False, (left, right[nxt])), (True, (left[nxt], right))):
            joint, mismatched = _dv_inputs(left, right, cyclic_shift(5), shift_left)
            assert np.array_equal(joint.data, np.hstack([left, right]))
            assert np.array_equal(mismatched.data, np.hstack(expected))


class TestStatistic:
    def test_zero_head_scores_zero(self):
        r = rng(7)
        statnet = make_statnet(r)
        for p in statnet.head.params():
            p.data[...] = 0.0
        pair = np.hstack([r.normal(size=(1, 4)), r.normal(size=(1, 4))])
        assert statnet.head.forward(Tensor(pair)).item() == 0.0

    def test_deterministic_under_frozen_params(self):
        r = rng(8)
        statnet = make_statnet(r)
        g = random_graph(r)
        e1 = statnet.graph_embedding(g).data
        e2 = statnet.graph_embedding(g).data
        assert np.array_equal(e1, e2)

    def test_graph_embedding_is_node_mean(self):
        r = rng(9)
        statnet = make_statnet(r)
        g = random_graph(r)
        node_embs = statnet.encoder.forward_graph(g).data
        np.testing.assert_allclose(
            statnet.graph_embedding(g).data, node_embs.mean(axis=0, keepdims=True), atol=1e-12
        )


class TestInnerMaximize:
    def test_zero_steps_rejected(self):
        r = rng(10)
        statnet = make_statnet(r)
        with pytest.raises(ValueError, match="at least 1"):
            inner_maximize(statnet.head, np.zeros((4, 4)), np.zeros((4, 4)), steps=0, lr=1e-3)

    def test_estimate_trends_upward(self):
        r = rng(11)
        statnet = make_statnet(r)
        # correlated pairs: sub embedding = graph embedding + small noise
        g = r.normal(size=(64, 4))
        s = g + 0.1 * r.normal(size=(64, 4))
        trace = inner_maximize(statnet.head, g, s, steps=100, lr=1e-2)
        head = int(len(trace) * 0.2)
        assert np.mean(trace[-head:]) >= np.mean(trace[:head])

    def test_encoder_frozen_during_inner_loop(self):
        r = rng(12)
        statnet = make_statnet(r)
        encoder_before = [w.data.copy() for w in statnet.encoder.params()]
        g = r.normal(size=(16, 4))
        s = r.normal(size=(16, 4))
        inner_maximize(statnet.head, g, s, steps=20, lr=1e-2)
        for w, before in zip(statnet.encoder.params(), encoder_before):
            assert np.array_equal(w.data, before)

    def test_batch_of_the_whole_sample_is_the_full_batch(self):
        """batch_size == n takes the full-batch path: the trace of
        batch_size=None, bitwise, and no draw from the rng."""
        r = rng(14)
        g, s = r.normal(size=(6, D)), r.normal(size=(6, D))
        traces, draws = [], np.random.default_rng(7)
        for batch_size in (None, 6):
            traces.append(inner_maximize(make_statnet(rng(15)).head, g, s, steps=3, lr=1e-2,
                                         batch_size=batch_size, rng=draws))
        assert traces[1] == traces[0]
        assert draws.bit_generator.state == np.random.default_rng(7).bit_generator.state

    def test_independent_pairs_estimate_near_zero(self):
        """With sub embeddings independent of graphs, the trained estimate
        hovers at zero (small positive overfit bias allowed; a large sample
        keeps it well below the tolerance)."""
        r = rng(13)
        statnet = make_statnet(r)
        g = r.normal(size=(4096, 4))
        s = r.normal(size=(4096, 4))
        trace = inner_maximize(statnet.head, g, s, steps=250, lr=5e-3)
        assert abs(np.mean(trace[-20:])) <= 0.05

    def test_head_reinitialization_draws_fresh_values(self, tensors_made):
        r = rng(14)
        statnet = make_statnet(r)
        params = statnet.head.params()
        before = [p.data.copy() for p in params]
        tensors_made.clear()
        statnet.head.redraw(np.random.default_rng(99))
        assert not tensors_made
        after = statnet.head.params()
        assert all(a is p for a, p in zip(after, params)) and len(after) == len(params)
        assert any(not np.array_equal(b, a.data) for b, a in zip(before, after))
        fresh = Mlp([2 * D, 6, 1], np.random.default_rng(99))
        assert [a.data.tobytes() for a in after] == [f.data.tobytes() for f in fresh.params()]


class TestInnerTracePinned:
    """The vectorised inner loop reproduces, float for float, the traces of
    the earlier loop that built every pair from 1 x d tensor rows. The
    SkylakeX and Haswell kernels give the same traces."""

    TRACES = {
        None: [-0.2781801447256694, -0.2378497816987073,
               -0.20133446846770564, -0.16855655176233927],
        4: [-0.4195435414000379, 0.016458531060942694,
            -0.06241117462707735, -0.005563240640748479],
    }

    @pytest.mark.parametrize("batch_size", sorted(TRACES, key=str))
    def test_trace_is_exact(self, batch_size, kernel_pin):
        r = np.random.default_rng(2024)
        statnet = StatisticsNetwork(GcnEncoder([3, 4], r), 4, r, hidden=6)
        g = r.normal(size=(6, 4))
        s = r.normal(size=(6, 4))
        trace = inner_maximize(statnet.head, g, s, steps=4, lr=1e-2, batch_size=batch_size,
                               rng=np.random.default_rng(7))
        assert trace == kernel_pin({"SkylakeX": self.TRACES, "Haswell": self.TRACES})[batch_size]
