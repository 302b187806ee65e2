"""The mutual-information estimator: batch loss, pairing, inner maximization."""

import numpy as np
import pytest

from gib.gradcheck import assert_gradients_match
from gib.graphs import Graph
from gib.mi import StatisticsNetwork, inner_maximize, mi_batch_loss
from gib.nn import GcnEncoder
from gib.tensor import Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


def make_statnet(r, d=4) -> StatisticsNetwork:
    encoder = GcnEncoder([3, d], r)
    return StatisticsNetwork(encoder, d, r, hidden=6)


def random_graph(r, n=5, d=3) -> Graph:
    upper = np.triu((r.random((n, n)) < 0.5).astype(float), 1)
    return Graph(upper + upper.T, r.normal(size=(n, d)), 0)


def random_pairs(r, statnet, count):
    graph_embs = [Tensor(r.normal(size=(1, statnet.embed_dim))) for _ in range(count)]
    sub_embs = [Tensor(r.normal(size=(1, statnet.embed_dim))) for _ in range(count)]
    return graph_embs, sub_embs


class TestBatchLoss:
    def test_constant_statistic_gives_exactly_zero(self):
        r = rng(1)
        statnet = make_statnet(r)
        for p in statnet.head_params():
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

    def test_full_pairing_uses_all_mismatches(self):
        r = rng(5)
        statnet = make_statnet(r)
        g, s = random_pairs(r, statnet, 4)
        cyclic = mi_batch_loss(statnet, g, s, full_pairing=False)
        full = mi_batch_loss(statnet, g, s, full_pairing=True)
        # both are finite and share the joint term; marginals generally differ
        assert float(full.joint_term.data) == float(cyclic.joint_term.data)
        assert np.isfinite(float(full.value.data))

    def test_gradients_flow_to_head_and_embeddings(self):
        r = rng(6)
        statnet = make_statnet(r)
        head_arrays = [p.data.copy() for p in statnet.head_params()]
        emb_arrays = [r.normal(size=(1, statnet.embed_dim)) for _ in range(6)]

        def build(ts):
            statnet.head.weights[0], statnet.head.biases[0] = ts[0], ts[1]
            statnet.head.weights[1], statnet.head.biases[1] = ts[2], ts[3]
            embs = ts[len(head_arrays):]
            g_embs, s_embs = embs[:3], embs[3:]
            return mi_batch_loss(statnet, g_embs, s_embs).value

        assert_gradients_match(build, head_arrays + emb_arrays)


class TestStatistic:
    def test_zero_head_scores_zero(self):
        r = rng(7)
        statnet = make_statnet(r)
        for p in statnet.head_params():
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
            inner_maximize(statnet, np.zeros((4, 4)), np.zeros((4, 4)), steps=0, lr=1e-3)

    def test_estimate_trends_upward(self):
        r = rng(11)
        statnet = make_statnet(r)
        # correlated pairs: sub embedding = graph embedding + small noise
        g = r.normal(size=(64, 4))
        s = g + 0.1 * r.normal(size=(64, 4))
        trace = inner_maximize(statnet, g, s, steps=100, lr=1e-2)
        head = int(len(trace) * 0.2)
        assert np.mean(trace[-head:]) >= np.mean(trace[:head])

    def test_encoder_frozen_during_inner_loop(self):
        r = rng(12)
        statnet = make_statnet(r)
        encoder_before = [w.data.copy() for w in statnet.encoder.params()]
        g = r.normal(size=(16, 4))
        s = r.normal(size=(16, 4))
        inner_maximize(statnet, g, s, steps=20, lr=1e-2)
        for w, before in zip(statnet.encoder.params(), encoder_before):
            assert np.array_equal(w.data, before)

    def test_independent_pairs_estimate_near_zero(self):
        """With sub embeddings independent of graphs, the trained estimate
        hovers at zero (small positive overfit bias allowed; a large sample
        keeps it well below the tolerance)."""
        r = rng(13)
        statnet = make_statnet(r)
        g = r.normal(size=(4096, 4))
        s = r.normal(size=(4096, 4))
        trace = inner_maximize(statnet, g, s, steps=250, lr=5e-3)
        assert abs(np.mean(trace[-20:])) <= 0.05

    def test_head_reinitialization_draws_fresh_values(self):
        r = rng(14)
        statnet = make_statnet(r)
        before = [p.data.copy() for p in statnet.head_params()]
        statnet.reinitialize_head(np.random.default_rng(99))
        after = statnet.head_params()
        assert any(not np.array_equal(b, a.data) for b, a in zip(before, after))
        assert [a.data.shape for a in after] == [b.shape for b in before]


class TestInnerTracePinned:
    """The vectorised inner loop reproduces, float for float, the traces of
    the earlier loop that built every pair from 1 x d tensor rows."""

    TRACES = {
        (False, None): [-0.2781801447256694, -0.2378497816987073,
                        -0.20133446846770564, -0.16855655176233927],
        (False, 4): [-0.4195435414000379, 0.016458531060942694,
                     -0.06241117462707735, -0.005563240640748479],
        (True, None): [-0.2771821604024665, -0.23443995559456396,
                       -0.19545236940292385, -0.16033817056343028],
        (True, 4): [-0.39334777232874063, 0.008696843641107427,
                    -0.015312354870820943, -0.011742073196079256],
    }

    @pytest.mark.parametrize("full_pairing,batch_size", sorted(TRACES, key=str))
    def test_trace_is_exact(self, full_pairing, batch_size):
        r = np.random.default_rng(2024)
        statnet = StatisticsNetwork(GcnEncoder([3, 4], r), 4, r, hidden=6)
        g = r.normal(size=(6, 4))
        s = r.normal(size=(6, 4))
        trace = inner_maximize(statnet, g, s, steps=4, lr=1e-2, batch_size=batch_size,
                               rng=np.random.default_rng(7), full_pairing=full_pairing)
        assert trace == self.TRACES[(full_pairing, batch_size)]
