"""Dataset loading, generators, noise injection, and the line-graph transform."""

import dataclasses
import functools
import os

import math
import re
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gib.experiments import check_masks
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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, value):
        x = np.ones((3, 2))
        x[1, 0] = value
        with pytest.raises(GraphFormatError, match="^features must be finite$"):
            Graph(triangle().adjacency, x, 0)

    @pytest.mark.parametrize("label", [np.nan, np.inf, -np.inf])
    def test_non_finite_label_rejected(self, label):
        with pytest.raises(GraphFormatError, match="^label must be finite, got "):
            Graph(triangle().adjacency, np.ones((3, 1)), label)

    def test_canonical_edge_order(self):
        g = triangle()
        assert g.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_adjacency_is_read_only_bool(self):
        adjacency = triangle().adjacency
        assert adjacency.dtype == bool and not adjacency.flags.writeable

    def test_float_and_bool_inputs_build_the_same_graph(self):
        """A 0/1 adjacency given as float or as bool builds the same bytes,
        and the propagation block is the one built from the float matrix."""
        r = np.random.default_rng(4)
        upper = np.triu(r.random((9, 9)) < 0.4, 1)
        a, x = (upper | upper.T).astype(np.float64), r.normal(size=(9, 3))
        as_float, as_bool = Graph(a, x, 0), Graph(a.astype(bool), x, 0)
        for name in ("adjacency", "propagation", "propagated_features"):
            assert getattr(as_float, name).tobytes() == getattr(as_bool, name).tobytes(), name
        d = 1.0 / np.sqrt(a.sum(axis=1) + 1.0)
        float_propagation = a * d[:, None] * d[None, :]
        np.fill_diagonal(float_propagation, d * d)
        assert as_bool.propagation.tobytes() == float_propagation.tobytes()

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

    @pytest.mark.parametrize("file, lines, line", [
        ("graph_indicator", "1\n\n1\nx\n", "line 4: 'x'"),  # blank lines count
        ("node_labels", "0\n1.5\n0\n", "line 2: '1.5'"),
    ])
    def test_malformed_integer_line_names_file_and_line(self, tmp_path, file, lines, line):
        d = tmp_path / "BAD"
        d.mkdir()
        (d / "BAD_A.txt").write_text("1, 2\n")
        (d / "BAD_graph_indicator.txt").write_text("1\n1\n1\n")
        (d / "BAD_graph_labels.txt").write_text("0\n")
        (d / f"BAD_{file}.txt").write_text(lines)
        with pytest.raises(GraphFormatError,
                           match=re.escape(f"BAD_{file}.txt {line} is not an integer")):
            load_tu_dataset(str(d), "BAD")

    def test_graph_without_nodes_named(self, tmp_path):
        d = tmp_path / "GAP"
        d.mkdir()
        (d / "GAP_A.txt").write_text("1, 2\n3, 4\n")
        (d / "GAP_graph_indicator.txt").write_text("1\n1\n3\n3\n")  # graph 2 owns no node
        (d / "GAP_graph_labels.txt").write_text("0\n1\n0\n")
        with pytest.raises(GraphFormatError, match="GAP_graph_indicator.txt: graph 2 owns no node"):
            load_tu_dataset(str(d), "GAP")

    @pytest.mark.parametrize("indicator, message", [
        # nodes are placed graph by graph: a smaller id after a larger one
        # would put the edge 1, 3 out of its graph's bounds
        ("1\n2\n1\n", "line 3: graph id 1 follows graph id 2, but the ids must not decrease"),
        ("1\n\n0\n", "line 3: graph indicator 0 out of range"),  # blank lines count
        ("-1\n1\n", "line 1: graph indicator -1 out of range"),
    ])
    def test_bad_graph_id_names_file_line_and_ids(self, tmp_path, indicator, message):
        d = tmp_path / "IDS"
        d.mkdir()
        (d / "IDS_A.txt").write_text("1, 3\n")
        (d / "IDS_graph_indicator.txt").write_text(indicator)
        (d / "IDS_graph_labels.txt").write_text("0\n1\n")
        with pytest.raises(GraphFormatError, match=re.escape(f"IDS_graph_indicator.txt {message}")):
            load_tu_dataset(str(d), "IDS")

    @pytest.mark.parametrize("indicator", ["", "\n\n"])
    def test_empty_graph_indicator_named(self, tmp_path, indicator):
        d = tmp_path / "EMPTY"
        d.mkdir()
        for suffix in ("A", "graph_labels"):
            (d / f"EMPTY_{suffix}.txt").write_text("")
        (d / "EMPTY_graph_indicator.txt").write_text(indicator)
        with pytest.raises(GraphFormatError, match="EMPTY_graph_indicator.txt is empty"):
            load_tu_dataset(str(d), "EMPTY")

    @pytest.mark.parametrize("file, lines, message", [
        ("graph_labels", "0\n\nnan\n", "line 3: label 'nan' is not a finite number"),
        ("A", "1, 2\n\n\n5, 1\n", "line 4: node index out of range"),
        ("A", "\n1; 2\n", "line 2: cannot parse edge '1; 2'"),
    ])
    def test_line_numbers_count_blank_lines(self, tmp_path, file, lines, message):
        d = tmp_path / "BLANK"
        d.mkdir()
        (d / "BLANK_A.txt").write_text("1, 2\n3, 4\n")
        (d / "BLANK_graph_indicator.txt").write_text("1\n1\n2\n2\n")
        (d / "BLANK_graph_labels.txt").write_text("0\n1\n")
        (d / f"BLANK_{file}.txt").write_text(lines)
        with pytest.raises(GraphFormatError, match=re.escape(f"BLANK_{file}.txt {message}")):
            load_tu_dataset(str(d), "BLANK")

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

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf", "1e999", "four"])
    def test_non_finite_label_names_file_and_line(self, tmp_path, label):
        d = tmp_path / "NAN"
        d.mkdir()
        (d / "NAN_A.txt").write_text("1, 2\n2, 1\n3, 4\n4, 3\n")
        (d / "NAN_graph_indicator.txt").write_text("1\n1\n2\n2\n")
        (d / "NAN_graph_labels.txt").write_text(f"4.5\n{label}\n")
        with pytest.raises(GraphFormatError, match="NAN_graph_labels.txt line 2"):
            load_tu_dataset(str(d), "NAN")

    def test_roundtrip_through_save(self, tmp_path):
        ds = gen_planted_motif_dataset(MotifConfig(num_graphs=5, background_nodes=(6, 9), seed=4))
        save_tu_dataset(ds, str(tmp_path), "RT")
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
        save_tu_dataset(dataclasses.replace(ds, masks=masks), str(tmp_path), "RT")
        assert load_mask_sidecar(str(tmp_path), "RT", 3) == masks

    @pytest.mark.parametrize("missing", [1, 4])
    def test_mask_sidecar_count_checked(self, tmp_path, missing):
        ds = gen_planted_motif_dataset(MotifConfig(num_graphs=6, background_nodes=(6, 9), seed=4))
        save_tu_dataset(dataclasses.replace(ds, masks=ds.masks[:-missing]), str(tmp_path), "RT")
        path = os.path.join(str(tmp_path), "RT_mask.txt")
        with pytest.raises(ConfigError,
                           match=re.escape(f"{path} has {6 - missing} mask lines for 6 graphs")):
            load_mask_sidecar(str(tmp_path), "RT", 6)


# the four TU files and the mask sidecar, and one edit of each file
SWEPT = ("A", "graph_indicator", "graph_labels", "node_labels", "mask")
EDITS = ("truncate", "duplicate", "blank", "token", "drop", "add")
BAD_TOKENS = ("x", "1.5", "1e3", "nan", "inf", "-inf")


@functools.lru_cache(maxsize=None)
def _swept_dataset() -> tuple[Dataset, str]:
    """12 graphs of 6 to 9 nodes, so graph ids reach two digits, with
    class labels, node labels and motif masks of 3 nodes; and the hash of
    the dataset its saved files load as."""
    dataset = gen_planted_motif_dataset(
        MotifConfig(num_graphs=12, motif_size=3, background_nodes=(3, 6), seed=2))
    with tempfile.TemporaryDirectory() as path:
        save_tu_dataset(dataset, path, "SWEEP")
        loaded = load_tu_dataset(path, "SWEEP")
        loaded.masks = load_mask_sidecar(path, "SWEEP", len(loaded.graphs))
    return dataset, dataset_hash(loaded)


def _corrupt(lines: list[str], edit: str, at: int, other: int, token: str) -> list[str]:
    """``lines`` after one ``edit`` of line ``at`` (modulo the line count);
    ``other`` picks a token of that line or another line."""
    lines = list(lines)
    i = at % len(lines)
    if edit == "truncate":
        # cut at a token boundary: a cut inside a number can leave another
        # valid number (15 -> 1), which no loader can tell from the original
        lines[i] = lines[i][:lines[i].rfind(",") + 1]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    elif edit == "blank":
        lines[i] = ""
    elif edit == "token":
        tokens = lines[i].split(",")
        tokens[other % len(tokens)] = token
        lines[i] = ",".join(tokens)
    elif edit == "decrease":  # a graph id below the one before it
        later = [k for k in range(1, len(lines)) if int(lines[k - 1]) > 1]
        k = later[at % len(later)]
        lines[k] = str(int(lines[k - 1]) - 1)
    elif edit == "drop":
        del lines[i]
    else:  # "add": a copy of another line, put in elsewhere
        lines.insert(i, lines[other % len(lines)])
    return lines


class TestCorruptedFiles:
    """One edit of one saved file, swept: each load gives the dataset the
    unedited files load as, or raises GraphFormatError or ConfigError naming
    the edited file (or, for a mask, the graph it belongs to).

    Labels are classes here: in a file of decimal labels, 1.5 is another
    valid label. The masks go through ``check_masks``, as ``gib denoise``
    and ``gib interpret`` check them."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), at=st.integers(0, 10**4), other=st.integers(0, 10**4),
           token=st.sampled_from(BAD_TOKENS))
    def test_each_load_gives_the_dataset_or_names_the_file(self, tmp_path, data, at, other,
                                                            token):
        file = data.draw(st.sampled_from(SWEPT), label="file")
        extra = ("decrease",) if file == "graph_indicator" else ()
        edit = data.draw(st.sampled_from(EDITS + extra), label="edit")
        original, loads_as = _swept_dataset()
        save_tu_dataset(original, str(tmp_path), "SWEEP")
        path = tmp_path / f"SWEEP_{file}.txt"
        lines = _corrupt(path.read_text().splitlines(), edit, at, other, token)
        path.write_text("".join(line + "\n" for line in lines))
        try:
            loaded = load_tu_dataset(str(tmp_path), "SWEEP")
            loaded.masks = load_mask_sidecar(str(tmp_path), "SWEEP", len(loaded.graphs))
            check_masks(loaded, "motif")
        except (GraphFormatError, ConfigError) as err:
            # check_masks names the graph and dataset of a mask it rejects
            assert path.name in str(err) or (
                file == "mask" and re.match(r"graph \d+ of SWEEP ", str(err)))
        else:
            assert loaded.num_classes == original.num_classes
            assert dataset_hash(loaded) == loads_as


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
        assert line.adjacency.tobytes() == adjacency.astype(bool).tobytes()
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

    @pytest.mark.parametrize("fraction", [-0.1, float("nan"), float("inf")])
    def test_negative_or_non_finite_fraction_rejected(self, fraction):
        with pytest.raises(ConfigError, match="noise fraction"):
            add_noise_edges(path(5), fraction, seed=0)


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

    def test_dataset_hash_matches_its_recorded_value(self):
        """The hash manifest.json records, taken over each adjacency's
        float64 bytes, so the dtype a graph stores it in does not move it."""
        ds = gen_planted_motif_dataset(MotifConfig(num_graphs=6, seed=3))
        assert ds.masks is not None
        assert dataset_hash(ds) == \
            "c5a1c96965d48b05deee7d2d7e89558008efaf3c987dfce94ddf0e27ee685ae8"

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

    @pytest.mark.parametrize("noise", [-0.5, float("nan"), float("inf")])
    def test_negative_or_non_finite_property_noise_rejected(self, noise):
        with pytest.raises(ConfigError, match="property_noise"):
            gen_planted_motif_dataset(
                MotifConfig(num_graphs=2, label_rule="size", property_noise=noise))

    @pytest.mark.parametrize("key", ["seed"])
    def test_negative_count_or_seed_rejected_by_name(self, key):
        with pytest.raises(ConfigError, match=f"^{key} must be >= 0, got -1$"):
            gen_planted_motif_dataset(MotifConfig(num_graphs=2, **{key: -1}))

    @pytest.mark.parametrize("key", ["motif_kinds", "motif_sizes", "background_nodes"])
    def test_empty_tuple_rejected_by_name(self, key):
        with pytest.raises(ConfigError, match=f"^{key} must not be empty, got \\(\\)$"):
            gen_planted_motif_dataset(MotifConfig(num_graphs=4, **{key: ()}))

    @pytest.mark.parametrize("nodes", [(15,), (5, 10, 20)])
    def test_background_nodes_must_be_a_pair(self, nodes):
        with pytest.raises(ConfigError, match=r"^background_nodes must be a \(min, max\) pair"):
            MotifConfig(background_nodes=nodes)

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

    def test_kfold_validation_is_a_tenth_of_the_rest(self):
        # 100 graphs in 5 folds leave 80 outside the test fold; 80 // 10 validate
        splits = kfold_splits(100, 0, 5, seed=0)
        assert [len(splits[k]) for k in ("train", "val", "test")] == [72, 8, 20]

    def test_random_validation_never_rounds_to_empty(self):
        # 0.04 of 10 graphs rounds to 0, but validation keeps one graph
        splits = random_splits(10, (0.8, 0.04, 0.16), seed=0)
        assert [len(splits[k]) for k in ("train", "val", "test")] == [8, 1, 1]

    def test_bad_ratios_rejected(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            random_splits(10, (0.5, 0.1, 0.1), seed=0)
