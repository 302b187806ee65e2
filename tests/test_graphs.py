"""Dataset loading, generators, noise injection, and the line-graph transform."""

import os

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gib.graphs import (
    ConfigError,
    Dataset,
    GenerationError,
    Graph,
    GraphFormatError,
    MotifConfig,
    add_noise_edges,
    dataset_hash,
    gen_planted_motif_dataset,
    kfold_splits,
    load_mask_sidecar,
    load_tu_dataset,
    random_splits,
    save_tu_dataset,
    to_line_graph,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "data")
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def triangle() -> Graph:
    a = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
    return Graph(a, np.ones((3, 1)), 0)


def path(n: int) -> Graph:
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return Graph(a, np.ones((n, 1)), 0)


class TestGraphInvariants:
    def test_asymmetric_rejected(self):
        a = np.zeros((2, 2))
        a[0, 1] = 1.0
        with pytest.raises(GraphFormatError, match="symmetric"):
            Graph(a, np.ones((2, 1)), 0)

    def test_self_loops_rejected(self):
        with pytest.raises(GraphFormatError, match="diagonal"):
            Graph(np.eye(2), np.ones((2, 1)), 0)

    def test_feature_row_count_checked(self):
        with pytest.raises(GraphFormatError, match="row per node"):
            Graph(np.zeros((3, 3)), np.ones((2, 1)), 0)

    def test_canonical_edge_order(self):
        g = triangle()
        assert g.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_arrays_are_read_only_views(self):
        a = triangle().adjacency.copy()
        x = np.ones((3, 2))
        g = Graph(a, x, 0)
        for kept in (g.adjacency, g.features, g.propagation, g.propagated_features):
            with pytest.raises(ValueError, match="read-only"):
                kept[0, 0] = 5.0
        # the caller's own arrays stay writable
        a[0, 1] = a[1, 0] = 0.0
        x[0, 0] = 2.0


class TestTuLoader:
    def test_golden_fixture(self):
        ds = load_tu_dataset(os.path.join(FIXTURES, "TOY"), "TOY")
        assert len(ds.graphs) == 2
        assert ds.num_classes == 2
        g0, g1 = ds.graphs
        np.testing.assert_array_equal(
            g0.adjacency, [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        )
        assert g1.n == 4 and g1.num_edges == 3
        # labels {1, -1} remap to contiguous ids sorted by raw value
        assert (g0.label, g1.label) == (1, 0)
        # node labels {0,1,2} become 3-wide one-hot features
        assert g0.features.shape == (3, 3)
        np.testing.assert_array_equal(g0.features[1], [0, 1, 0])

    def test_missing_file_named(self):
        with pytest.raises(FileNotFoundError, match="NOPE_graph_indicator.txt"):
            load_tu_dataset(FIXTURES, "NOPE")

    def test_out_of_range_edge_reports_line(self, tmp_path):
        d = tmp_path / "BAD"
        d.mkdir()
        (d / "BAD_A.txt").write_text("1, 2\n5, 1\n")
        (d / "BAD_graph_indicator.txt").write_text("1\n1\n1\n1\n")
        (d / "BAD_graph_labels.txt").write_text("0\n")
        with pytest.raises(GraphFormatError, match="line 2"):
            load_tu_dataset(str(d), "BAD")

    def test_all_ones_features_without_node_labels(self, tmp_path):
        d = tmp_path / "PLAIN"
        d.mkdir()
        (d / "PLAIN_A.txt").write_text("1, 2\n2, 1\n")
        (d / "PLAIN_graph_indicator.txt").write_text("1\n1\n")
        (d / "PLAIN_graph_labels.txt").write_text("0\n")
        ds = load_tu_dataset(str(d), "PLAIN")
        np.testing.assert_array_equal(ds.graphs[0].features, [[1.0], [1.0]])

    def test_continuous_detection_and_override(self, tmp_path):
        d = tmp_path / "CONT"
        d.mkdir()
        (d / "CONT_A.txt").write_text("1, 2\n2, 1\n3, 4\n4, 3\n")
        (d / "CONT_graph_indicator.txt").write_text("1\n1\n2\n2\n")
        (d / "CONT_graph_labels.txt").write_text("4.5\n5.0\n")
        ds = load_tu_dataset(str(d), "CONT")
        assert ds.continuous and ds.graphs[0].label == 4.5
        # decimal formatting marks continuity even for whole-number values
        (d / "CONT_graph_labels.txt").write_text("4.0\n5.0\n")
        assert load_tu_dataset(str(d), "CONT").continuous
        (d / "CONT_graph_labels.txt").write_text("4\n5\n")
        assert not load_tu_dataset(str(d), "CONT").continuous
        assert load_tu_dataset(str(d), "CONT", continuous=True).continuous

    def test_roundtrip_through_save(self, tmp_path):
        ds = gen_planted_motif_dataset(MotifConfig(num_graphs=5, background_nodes=(6, 9), seed=4))
        save_tu_dataset(ds, str(tmp_path), "RT", masks=ds.masks)
        back = load_tu_dataset(str(tmp_path), "RT")
        masks = load_mask_sidecar(str(tmp_path), "RT", 5)
        assert len(back.graphs) == 5 and back.num_classes == 2
        for a, b in zip(ds.graphs, back.graphs):
            np.testing.assert_array_equal(a.adjacency, b.adjacency)
            assert a.label == b.label
        assert masks == ds.masks

    def test_mask_sidecar_keeps_empty_masks(self, tmp_path):
        ds = gen_planted_motif_dataset(MotifConfig(num_graphs=3, background_nodes=(6, 9), seed=4))
        masks = [[], [0, 2], []]
        save_tu_dataset(ds, str(tmp_path), "RT", masks=masks)
        assert load_mask_sidecar(str(tmp_path), "RT", 3) == masks

    @pytest.mark.parametrize("missing", [1, 4])
    def test_mask_sidecar_count_checked(self, tmp_path, missing):
        ds = gen_planted_motif_dataset(MotifConfig(num_graphs=6, background_nodes=(6, 9), seed=4))
        save_tu_dataset(ds, str(tmp_path), "RT", masks=ds.masks[:-missing])
        path = os.path.join(str(tmp_path), "RT_mask.txt")
        with pytest.raises(ConfigError,
                           match=re.escape(f"{path} has {6 - missing} mask lines for 6 graphs")):
            load_mask_sidecar(str(tmp_path), "RT", 6)


def random_graph(seed: int, n: int, p: float, d: int) -> Graph:
    r = np.random.default_rng(seed)
    upper = np.triu((r.random((n, n)) < p).astype(float), 1)
    return Graph(upper + upper.T, r.normal(size=(n, d)), 0)


def add_noise_edges_loops(graph: Graph, fraction: float, seed: int):
    """The scan-by-loops add_noise_edges that the vectorised one replaced."""
    n_new = math.ceil(fraction * graph.num_edges)
    original = set(graph.edges())
    adjacency = graph.adjacency.copy()
    if n_new > 0:
        absent = [
            (i, j)
            for i in range(graph.n)
            for j in range(i + 1, graph.n)
            if graph.adjacency[i, j] == 0.0
        ]
        chosen = np.random.default_rng(seed).choice(len(absent), size=n_new, replace=False)
        for k in chosen:
            i, j = absent[int(k)]
            adjacency[i, j] = adjacency[j, i] = 1.0
    noisy = Graph(adjacency, graph.features.copy(), graph.label)
    return noisy, np.array([e in original for e in noisy.edges()], dtype=bool)


def line_graph_loops(graph: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Line adjacency and features by the O(m^2) double loop replaced by
    the incidence product."""
    edges = graph.edges()
    m = len(edges)
    adjacency = np.zeros((m, m))
    for a in range(m):
        ia, ja = edges[a]
        for b in range(a + 1, m):
            ib, jb = edges[b]
            if ia in (ib, jb) or ja in (ib, jb):
                adjacency[a, b] = adjacency[b, a] = 1.0
    features = np.array([graph.features[i] + graph.features[j] for i, j in edges])
    return adjacency, features


class TestAgainstLoops:
    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
           p=st.floats(0.05, 0.6), fraction=st.floats(0.0, 0.8))
    def test_add_noise_edges(self, seed, n, p, fraction):
        g = random_graph(seed, n, p, 2)
        free = n * (n - 1) // 2 - g.num_edges
        if math.ceil(fraction * g.num_edges) > free:
            with pytest.raises(GenerationError, match="free"):
                add_noise_edges(g, fraction, seed)
            return
        noisy, mask = add_noise_edges(g, fraction, seed)
        expected, expected_mask = add_noise_edges_loops(g, fraction, seed)
        assert noisy.adjacency.tobytes() == expected.adjacency.tobytes()
        assert mask.dtype == bool and mask.tolist() == expected_mask.tolist()

    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12),
           p=st.floats(0.05, 0.9), d=st.integers(1, 4))
    def test_to_line_graph(self, seed, n, p, d):
        g = random_graph(seed, n, p, d)
        if g.num_edges == 0:
            return
        line = to_line_graph(g)
        adjacency, features = line_graph_loops(g)
        assert line.adjacency.tobytes() == adjacency.tobytes()
        assert line.features.tobytes() == features.tobytes()


class TestNoise:
    def test_fraction_zero_is_identity(self):
        g = triangle()
        noisy, mask = add_noise_edges(g, 0.0, seed=1)
        np.testing.assert_array_equal(noisy.adjacency, g.adjacency)
        assert mask.all() and mask.shape == (3,)

    def test_thirty_percent_of_ten_edges(self):
        g = path(11)  # 10 edges, plenty of absent pairs
        noisy, mask = add_noise_edges(g, 0.3, seed=2)
        assert noisy.num_edges == 13
        assert int(mask.sum()) == 10

    def test_original_edges_preserved(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = int(rng.integers(5, 12))
            upper = np.triu((rng.random((n, n)) < 0.3).astype(float), 1)
            g = Graph(upper + upper.T, np.ones((n, 1)), 0)
            if g.num_edges == 0:
                continue
            noisy, mask = add_noise_edges(g, 0.5, seed=trial)
            assert np.all(noisy.adjacency >= g.adjacency)
            real = {e for e, keep in zip(noisy.edges(), mask) if keep}
            assert real == set(g.edges())

    def test_complete_graph_rejected(self):
        k4 = Graph(np.ones((4, 4)) - np.eye(4), np.ones((4, 1)), 0)
        with pytest.raises(GenerationError, match="free"):
            add_noise_edges(k4, 0.5, seed=0)


class TestLineGraph:
    def test_triangle_maps_to_triangle(self):
        line = to_line_graph(triangle())
        assert line.n == 3
        np.testing.assert_array_equal(
            line.adjacency, [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        )

    def test_path3_maps_to_single_edge(self):
        line = to_line_graph(path(3))
        assert line.n == 2 and line.num_edges == 1

    def test_star4_maps_to_k4(self):
        a = np.zeros((5, 5))
        a[0, 1:] = a[1:, 0] = 1.0
        line = to_line_graph(Graph(a, np.ones((5, 1)), 0))
        assert line.n == 4 and line.num_edges == 6

    def test_features_are_endpoint_sums(self):
        g = Graph(triangle().adjacency, np.array([[1.0], [2.0], [4.0]]), 0)
        line = to_line_graph(g)
        # canonical edges (0,1), (0,2), (1,2)
        np.testing.assert_array_equal(line.features, [[3.0], [5.0], [6.0]])

    def test_line_degree_identity(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            n = int(rng.integers(4, 10))
            upper = np.triu((rng.random((n, n)) < 0.4).astype(float), 1)
            g = Graph(upper + upper.T, np.ones((n, 1)), 0)
            if g.num_edges == 0:
                continue
            line = to_line_graph(g)
            deg = g.adjacency.sum(axis=1)
            for k, (i, j) in enumerate(g.edges()):
                assert line.adjacency[k].sum() == deg[i] + deg[j] - 2

    def test_edgeless_graph_rejected(self):
        with pytest.raises(ValueError, match="no edges"):
            to_line_graph(Graph(np.zeros((3, 3)), np.ones((3, 1)), 0))


class TestMotifGenerator:
    def test_masks_have_motif_size_entries(self):
        ds = gen_planted_motif_dataset(
            MotifConfig(num_graphs=100, motif_size=5, background_nodes=(15, 25), seed=0)
        )
        assert len(ds.graphs) == 100 and ds.num_classes == 2
        assert all(len(m) == 5 for m in ds.masks)

    def test_seed_determinism(self):
        cfg = MotifConfig(num_graphs=12, seed=9)
        h1 = dataset_hash(gen_planted_motif_dataset(cfg))
        h2 = dataset_hash(gen_planted_motif_dataset(MotifConfig(num_graphs=12, seed=9)))
        assert h1 == h2
        h3 = dataset_hash(gen_planted_motif_dataset(MotifConfig(num_graphs=12, seed=10)))
        assert h1 != h3

    def test_continuous_property_matches_mask_size_without_noise(self):
        ds = gen_planted_motif_dataset(
            MotifConfig(
                num_graphs=20, motif_kinds=("clique",), motif_sizes=(4, 5, 6),
                label_rule="size", property_noise=0.0, seed=2,
            )
        )
        assert ds.continuous
        for g, mask in zip(ds.graphs, ds.masks):
            assert g.label == float(len(mask))

    def test_motif_larger_than_background_rejected(self):
        with pytest.raises(ConfigError, match="does not fit"):
            gen_planted_motif_dataset(
                MotifConfig(num_graphs=2, motif_size=30, background_nodes=(5, 8))
            ).graphs

    def test_adjacency_invariants_hold(self):
        ds = gen_planted_motif_dataset(MotifConfig(num_graphs=30, seed=5))
        for g in ds.graphs:
            a = g.adjacency
            assert np.array_equal(a, a.T)
            assert np.all(np.diag(a) == 0)
            assert np.all((a == 0) | (a == 1))


class TestSplits:
    def test_ratio_split_partition(self):
        splits = random_splits(50, (0.7, 0.1, 0.2), seed=1)
        ds = Dataset([triangle() for _ in range(50)], 1, splits=splits)
        ds.validate_splits()
        assert len(splits["train"]) == 35

    def test_kfold_partition(self):
        for fold in range(5):
            splits = kfold_splits(23, fold, 5, seed=3)
            ds = Dataset([triangle() for _ in range(23)], 1, splits=splits)
            ds.validate_splits()
        with pytest.raises(ConfigError):
            kfold_splits(23, 5, 5, seed=3)

    def test_bad_ratios_rejected(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            random_splits(10, (0.5, 0.1, 0.1), seed=0)
