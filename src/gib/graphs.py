"""Graphs, datasets, and generators.

Covers loading the TU Dortmund benchmark text format, writing synthetic
datasets back out in the same format (plus a ground-truth sidecar), the
line-graph transform used by the denoising experiment, and the planted-motif
generator that stands in for chemistry data in the interpretation experiment.

A ``Graph`` is fixed once built, so it also keeps the GCN operators derived
from it: its renormalized propagation block (``normalized_adjacency``) and
that block times its features, built on first use and shared by every batch
that holds the graph, and the one-graph batch of itself.

Edges are always kept in canonical order: the sorted list of pairs (i, j)
with i < j. Ground-truth edge masks index into that order.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

if TYPE_CHECKING:
    from .batch import GraphBatch


class GraphFormatError(ValueError):
    """Raised for malformed dataset files."""


class GenerationError(ValueError):
    """Raised when a generator cannot satisfy its configuration."""


class ConfigError(ValueError):
    """Raised for inconsistent generator or run configuration."""


def bounded(default: Any = dataclasses.MISSING, low: Any = None, high: Any = None,
            strict: bool = False, choices: tuple = ()) -> Any:
    """A config dataclass field limited to ``choices``, or to [low, high]
    ((low, high) when ``strict``; without ``high`` there is no upper end)."""
    return field(default=default, metadata=dict(low=low, high=high, strict=strict, choices=choices))


def bound_text(low: Any = None, high: Any = None, strict: bool = False, choices: tuple = ()) -> str:
    """The allowed values in words, e.g. ``in (0, 1)``, ``>= 2`` or ``'a' or 'b'``."""
    if choices:
        return " or ".join(map(repr, choices))
    if high is None:
        return f"{'>' if strict else '>='} {low}"
    return f"in {'(' if strict else '['}{low}, {high}{')' if strict else ']'}"


def check_value(name: str, value: Any, low: Any = None, high: Any = None,
                strict: bool = False, choices: tuple = ()) -> None:
    """Raise ConfigError naming ``name`` unless ``value`` is within the bounds
    :func:`bounded` takes; a float must also be finite."""
    is_float = isinstance(value, float) and not choices
    if choices:
        inside = value in choices
    else:  # NaN is never inside
        inside = ((value > low if strict else value >= low)
                  and (high is None or (value < high if strict else value <= high)))
    if not inside or (is_float and not math.isfinite(value)):
        raise ConfigError(f"{name} must be {'finite and ' if is_float else ''}"
                          f"{bound_text(low, high, strict, choices)}, got {value!r}")


def check_fields(config: Any) -> None:
    """Check each :func:`bounded` field of a config dataclass, each item of a
    tuple or list on its own (an empty one is rejected); None is skipped. An
    int bound takes only integers."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.metadata and value is not None:
            items = value if isinstance(value, (tuple, list)) else (value,)
            if not items:
                raise ConfigError(f"{f.name} must not be empty, got {value!r}")
            for item in items:
                if isinstance(f.metadata["low"], int) and not isinstance(item, (int, np.integer)):
                    raise ConfigError(f"{f.name} must be an integer, got {item!r}")
                check_value(f.name, item, **f.metadata)


@dataclass
class Graph:
    """An undirected graph with node features and one label.

    adjacency is a symmetric 0/1 float matrix with zero diagonal; features
    has one finite row per node; label is an int class index or a finite
    float property.

    Both arrays are fixed after construction: the graph keeps read-only
    views of them (the caller's own arrays stay writable), because the GCN
    operators built from them on first use are kept with the graph.
    """

    adjacency: np.ndarray
    features: np.ndarray
    label: float | int

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise GraphFormatError(f"adjacency must be square, got {a.shape}")
        if not np.array_equal(a, a.T):
            raise GraphFormatError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0.0):
            raise GraphFormatError("adjacency must have zero diagonal")
        if not np.all((a == 0.0) | (a == 1.0)):
            raise GraphFormatError("adjacency entries must be 0 or 1")
        # C-ordered, so every first-layer product is the same BLAS call
        x = np.ascontiguousarray(self.features, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != a.shape[0]:
            raise GraphFormatError(
                f"features must have one row per node: {x.shape} vs n={a.shape[0]}"
            )
        if not np.isfinite(x).all():
            raise GraphFormatError("features must be finite")
        if not math.isfinite(self.label):
            raise GraphFormatError(f"label must be finite, got {self.label!r}")
        self.adjacency = _read_only(a)
        self.features = _read_only(x)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @functools.cached_property
    def propagation(self) -> np.ndarray:
        """The GCN's propagation block ``normalized_adjacency(self)``; kept."""
        return _read_only(normalized_adjacency(self))

    @functools.cached_property
    def propagated_features(self) -> np.ndarray:
        """``propagation @ features``, the first GCN layer's input; kept."""
        return _read_only(self.propagation @ self.features)

    @functools.cached_property
    def as_batch(self) -> GraphBatch:
        """This graph alone as a ``GraphBatch``, the batch of the one-graph
        entry points (predictions, node scores, assignments); kept."""
        from .batch import GraphBatch  # gib.batch imports this module

        return GraphBatch([self])

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edges in canonical sorted (i < j) order."""
        i, j = np.nonzero(np.triu(self.adjacency, k=1))
        return list(zip(i.tolist(), j.tolist()))

    @property
    def num_edges(self) -> int:
        return int(np.triu(self.adjacency, k=1).sum())


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


def normalized_adjacency(graph: Graph) -> np.ndarray:
    """D^{-1/2} (A + I) D^{-1/2} with D the degree matrix of A + I (A has a
    zero diagonal): the renormalized propagation of a GCN layer."""
    d = 1.0 / np.sqrt(graph.adjacency.sum(axis=1) + 1.0)
    out = graph.adjacency * d[:, None] * d[None, :]
    np.fill_diagonal(out, d * d)
    return out


@dataclass
class Dataset:
    """A list of graphs with split indices and label metadata.

    masks holds optional per-graph ground truth: node indices of a planted
    motif, or indices (into the canonical edge order) of real edges in a
    noisy graph, depending on how the dataset was built.
    """

    graphs: list[Graph]
    num_classes: Optional[int]  # None for continuous labels
    splits: dict[str, list[int]] = field(default_factory=dict)
    masks: Optional[list[list[int]]] = None
    name: str = "dataset"

    @property
    def continuous(self) -> bool:
        return self.num_classes is None

    def subset(self, split: str) -> list[Graph]:
        """The graphs of a split; a missing or empty split is rejected by name."""
        if not self.splits.get(split):
            raise ConfigError(f"dataset needs a nonempty {split!r} split")
        return [self.graphs[i] for i in self.splits[split]]

    def validate_splits(self) -> None:
        seen: set[int] = set()
        for part in self.splits.values():
            if seen & set(part):
                raise ConfigError("splits overlap")
            seen |= set(part)
        if seen != set(range(len(self.graphs))):
            raise ConfigError("splits do not cover all graphs")


# -- TU Dortmund format -------------------------------------------------------


def _read_lines(path: str) -> list[str]:
    """Every line of ``path``, stripped, blank lines included."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"missing dataset file: {path}")
    with open(path) as fh:
        return [line.strip() for line in fh]


def _numbered_lines(path: str) -> list[tuple[int, str]]:
    """The nonempty lines of ``path`` with their line numbers, counted from 1
    with blank lines included, as every error about a line names them."""
    return [(i, s) for i, s in enumerate(_read_lines(path), start=1) if s]


def _parse_int(text: str, where: str, error: type[ValueError] = GraphFormatError) -> int:
    """``int(text)``, or ``error`` naming ``where`` (a file and line)."""
    try:
        return int(text)
    except ValueError:
        raise error(f"{where}: {text!r} is not an integer") from None


def _read_ints(path: str) -> list[int]:
    """One integer per nonempty line of ``path``; errors name the file and line."""
    file = os.path.basename(path)
    return [_parse_int(s, f"{file} line {i}") for i, s in _numbered_lines(path)]


def load_tu_dataset(path: str, name: str) -> Dataset:
    """Load a dataset in the TU benchmark text format.

    Expects ``<name>_A.txt`` (1-indexed comma-separated edge list over global
    node ids), ``<name>_graph_indicator.txt``, ``<name>_graph_labels.txt``
    and, optionally, ``<name>_node_labels.txt``. Node labels become one-hot
    features; without them every node gets a single all-ones feature. Integer
    graph labels are remapped to contiguous 0-based ids; decimal-formatted
    labels (a ``.`` or an exponent, as ``save_tu_dataset`` writes them) mark
    the dataset as continuous, even where every value is integral, and a
    file may not mix the two. Nodes are numbered graph by graph, so the
    graph ids must not decrease. Errors that compare two files name both.
    """
    prefix = os.path.join(path, name)
    file = f"{name}_graph_indicator.txt"
    indicator: list[int] = []
    for lineno, text in _numbered_lines(prefix + "_graph_indicator.txt"):
        g = _parse_int(text, f"{file} line {lineno}")
        if g < 1:
            raise GraphFormatError(f"{file} line {lineno}: graph indicator {g} out of range")
        if indicator and g < indicator[-1]:
            raise GraphFormatError(
                f"{file} line {lineno}: graph id {g} follows graph id {indicator[-1]}, "
                "but the ids must not decrease"
            )
        indicator.append(g)
    if not indicator:
        raise GraphFormatError(f"{file} is empty")
    n_nodes = len(indicator)
    n_graphs = indicator[-1]
    sizes = [0] * n_graphs
    for g in indicator:
        sizes[g - 1] += 1
    if 0 in sizes:
        raise GraphFormatError(f"{file}: graph {sizes.index(0) + 1} owns no node")
    offsets = np.cumsum([0] + sizes[:-1])

    label_lines = _numbered_lines(prefix + "_graph_labels.txt")
    if len(label_lines) != n_graphs:
        raise GraphFormatError(f"{name}_graph_labels.txt has {len(label_lines)} lines for "
                               f"the {n_graphs} graphs of {file}")
    raw_labels = []
    for lineno, text in label_lines:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise GraphFormatError(
                f"{name}_graph_labels.txt line {lineno}: label {text!r} is not a finite number"
            )
        raw_labels.append(value)
    # decimal-formatted labels mark a continuous property; bare integers
    # mark classes (a zero-noise property would otherwise be ambiguous)
    decimal = ["." in s or "e" in s.lower() for _, s in label_lines]
    if len(set(decimal)) > 1:
        (i, a), (j, b) = label_lines[0], label_lines[decimal.index(not decimal[0])]
        raise GraphFormatError(f"{name}_graph_labels.txt mixes integer and decimal labels: "
                               f"line {i} has {a!r}, line {j} has {b!r}")
    if decimal[0]:
        labels: list[float | int] = raw_labels
        num_classes = None
    else:
        distinct = sorted({int(v) for v in raw_labels})
        remap = {v: i for i, v in enumerate(distinct)}
        labels = [remap[int(v)] for v in raw_labels]
        num_classes = len(distinct)

    adjacency = [np.zeros((m, m)) for m in sizes]
    for lineno, text in _numbered_lines(prefix + "_A.txt"):
        try:
            u_str, v_str = text.split(",")
            u, v = int(u_str), int(v_str)
        except ValueError:
            raise GraphFormatError(
                f"{name}_A.txt line {lineno}: cannot parse edge {text!r}"
            ) from None
        if not (1 <= u <= n_nodes and 1 <= v <= n_nodes):
            raise GraphFormatError(
                f"{name}_A.txt line {lineno}: node index out of range in {text!r} "
                f"({file} has {n_nodes} nodes)"
            )
        gu, gv = indicator[u - 1], indicator[v - 1]
        if gu != gv:
            raise GraphFormatError(
                f"{name}_A.txt line {lineno}: edge crosses graphs {gu} and {gv} of {file}"
            )
        lu = u - 1 - offsets[gu - 1]
        lv = v - 1 - offsets[gu - 1]
        if lu != lv:  # ignore accidental self-loops
            adjacency[gu - 1][lu, lv] = 1.0
            adjacency[gu - 1][lv, lu] = 1.0

    node_label_path = prefix + "_node_labels.txt"
    if os.path.exists(node_label_path):
        node_labels = _read_ints(node_label_path)
        if len(node_labels) != n_nodes:
            raise GraphFormatError(f"{name}_node_labels.txt has {len(node_labels)} lines for "
                                   f"the {n_nodes} nodes of {file}")
        distinct_nl = sorted(set(node_labels))
        nl_remap = {v: i for i, v in enumerate(distinct_nl)}
        width = len(distinct_nl)
        features = [np.zeros((m, width)) for m in sizes]
        for node, nl in enumerate(node_labels):
            g = indicator[node] - 1
            features[g][node - offsets[g], nl_remap[nl]] = 1.0
    else:
        features = [np.ones((m, 1)) for m in sizes]

    graphs = [Graph(a, x, y) for a, x, y in zip(adjacency, features, labels)]
    return Dataset(graphs=graphs, num_classes=num_classes, name=name)


def save_tu_dataset(dataset: Dataset, path: str, name: Optional[str] = None) -> None:
    """Write a dataset in the TU text format, plus its masks as a sidecar.

    Features that are exact one-hot rows are stored as node labels; anything
    else (e.g. the all-ones default) omits the node-label file. The sidecar
    ``<name>_mask.txt``, written when the dataset has masks, holds one
    comma-separated index list per graph.
    """
    name = name or dataset.name
    os.makedirs(path, exist_ok=True)
    prefix = os.path.join(path, name)

    one_hot = all(
        np.all((g.features == 0.0) | (g.features == 1.0))
        and np.all(g.features.sum(axis=1) == 1.0)
        and g.features.shape[1] > 1
        for g in dataset.graphs
    )

    with open(prefix + "_A.txt", "w") as fa, open(
        prefix + "_graph_indicator.txt", "w"
    ) as fi:
        offset = 0
        for gi, g in enumerate(dataset.graphs, start=1):
            for _ in range(g.n):
                fi.write(f"{gi}\n")
            for u, v in g.edges():
                fa.write(f"{offset + u + 1}, {offset + v + 1}\n")
                fa.write(f"{offset + v + 1}, {offset + u + 1}\n")
            offset += g.n

    with open(prefix + "_graph_labels.txt", "w") as fl:
        for g in dataset.graphs:
            fl.write(f"{float(g.label)!r}\n" if dataset.continuous else f"{int(g.label)}\n")

    if one_hot:
        with open(prefix + "_node_labels.txt", "w") as fn:
            for g in dataset.graphs:
                for r in range(g.n):
                    fn.write(f"{int(np.argmax(g.features[r]))}\n")

    if dataset.masks is not None:
        with open(prefix + "_mask.txt", "w") as fm:
            for idx in dataset.masks:
                fm.write(",".join(str(i) for i in idx) + "\n")


def load_mask_sidecar(path: str, name: str, num_graphs: int) -> list[list[int]]:
    """Read ``<name>_mask.txt``: one index list per graph, empty lines included."""
    file = os.path.join(path, name + "_mask.txt")
    lines = _read_lines(file)
    if len(lines) != num_graphs:
        raise ConfigError(f"{file} has {len(lines)} mask lines for {num_graphs} graphs")
    return [[_parse_int(s, f"{file} line {i}", ConfigError) for s in line.split(",")] if line
            else [] for i, line in enumerate(lines, start=1)]


def dataset_hash(dataset: Dataset) -> str:
    """Content hash over adjacency, features, labels, and masks."""
    h = hashlib.sha256()
    for g in dataset.graphs:
        h.update(g.adjacency.astype(np.float64).tobytes())
        h.update(g.features.astype(np.float64).tobytes())
        h.update(repr(g.label).encode())
    if dataset.masks is not None:
        for m in dataset.masks:
            h.update((",".join(map(str, m)) + ";").encode())
    return h.hexdigest()


# -- noise injection ----------------------------------------------------------


def add_noise_edges(
    graph: Graph, fraction: float, seed: int
) -> tuple[Graph, np.ndarray]:
    """Add ``ceil(fraction * |E|)`` uniformly chosen absent edges.

    Returns the noisy graph and a boolean mask over its canonical edge order
    marking which edges are original. Original edges are never removed.
    """
    check_value("noise fraction", fraction, low=0)
    n_new = math.ceil(fraction * graph.num_edges)
    adjacency = graph.adjacency.copy()
    if n_new > 0:
        # free node pairs in row-major (i < j) order
        rows, cols = np.triu_indices(graph.n, k=1)
        free = graph.adjacency[rows, cols] == 0.0
        rows, cols = rows[free], cols[free]
        if len(rows) < n_new:
            raise GenerationError(
                f"cannot place {n_new} new edges: only {len(rows)} node pairs are free"
            )
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(rows), size=n_new, replace=False)
        adjacency[rows[chosen], cols[chosen]] = 1.0
        adjacency[cols[chosen], rows[chosen]] = 1.0
    noisy = Graph(adjacency, graph.features.copy(), graph.label)
    rows, cols = np.nonzero(np.triu(noisy.adjacency, k=1))
    mask = graph.adjacency[rows, cols] == 1.0
    return noisy, mask


# -- line graph ----------------------------------------------------------------


def to_line_graph(graph: Graph) -> Graph:
    """Line graph: one node per edge, adjacent when edges share an endpoint.

    Line node k is edge k of ``graph.edges()``, the canonical order.
    Line-node features are the sum of the two endpoint feature vectors
    (permutation-invariant in the endpoints); the label carries over.
    """
    edges = graph.edges()
    if not edges:
        raise ValueError("to_line_graph: graph has no edges")
    ends = np.array(edges)
    m = len(edges)
    incidence = np.zeros((m, graph.n))
    incidence[np.arange(m)[:, None], ends] = 1.0
    adjacency = (incidence @ incidence.T > 0.0).astype(np.float64)
    np.fill_diagonal(adjacency, 0.0)
    features = graph.features[ends[:, 0]] + graph.features[ends[:, 1]]
    return Graph(adjacency, features, graph.label)


# -- planted motifs -------------------------------------------------------------

ATTACH_EDGES = 2  # random edges wiring each planted motif into its background
MAX_DEGREE_FEATURE = 8  # node features one-hot encode min(degree, this)


@dataclass(frozen=True)
class MotifConfig:
    """Configuration for the planted-motif generator.

    For categorical datasets the label is the index of the motif kind; for
    continuous ones (``label_rule="size"``) it is the motif size plus uniform
    noise bounded by ``property_noise``.
    """

    num_graphs: int = bounded(200, low=1)
    motif_kinds: tuple[str, ...] = bounded(("clique", "cycle"), choices=("clique", "cycle"))
    motif_size: int = bounded(5, low=3)
    motif_sizes: Optional[tuple[int, ...]] = bounded(None, low=3)  # overrides motif_size if set
    background_nodes: tuple[int, int] = bounded((15, 25), low=1)
    edge_prob: float = bounded(0.25, low=0.0, high=1.0)
    label_rule: str = bounded("kind", choices=("kind", "size"))
    property_noise: float = bounded(0.0, low=0.0)
    seed: int = bounded(0, low=0)

    def __post_init__(self) -> None:
        check_fields(self)
        if len(self.background_nodes) != 2:
            raise ConfigError("background_nodes must be a (min, max) pair, "
                              f"got {self.background_nodes!r}")
        lo, hi = self.background_nodes
        if lo > hi:
            raise ConfigError(f"bad background node range {self.background_nodes}")
        k = max(self.motif_sizes or (self.motif_size,))
        if k > hi:
            raise ConfigError(f"motif of size {k} does not fit a background of at most {hi} nodes")


def _motif_adjacency(kind: str, k: int) -> np.ndarray:
    a = np.zeros((k, k))
    if kind == "clique":
        a = np.ones((k, k)) - np.eye(k)
    elif kind == "cycle":
        for i in range(k):
            a[i, (i + 1) % k] = a[(i + 1) % k, i] = 1.0
    return a


def gen_planted_motif_dataset(config: MotifConfig) -> Dataset:
    """Random background graphs, each with one planted motif.

    Every graph is an Erdos-Renyi background plus a clique or cycle wired in
    with a few attachment edges; the motif's node indices are recorded as the
    ground-truth mask. A pure function of the config (including its seed).
    """
    rng = np.random.default_rng(config.seed)
    graphs: list[Graph] = []
    masks: list[list[int]] = []
    sizes = config.motif_sizes or (config.motif_size,)

    # balanced, shuffled kind sequence keeps tiny datasets from degenerating
    kinds = [config.motif_kinds[i % len(config.motif_kinds)] for i in range(config.num_graphs)]
    rng.shuffle(kinds)

    for gi in range(config.num_graphs):
        kind = kinds[gi]
        k = int(rng.choice(sizes))
        n_bg = int(rng.integers(config.background_nodes[0], config.background_nodes[1] + 1))
        n = n_bg + k
        adjacency = np.zeros((n, n))
        upper = rng.random((n_bg, n_bg)) < config.edge_prob
        bg = np.triu(upper, k=1).astype(np.float64)
        adjacency[:n_bg, :n_bg] = bg + bg.T
        adjacency[n_bg:, n_bg:] = _motif_adjacency(kind, k)
        for _ in range(ATTACH_EDGES):
            u = int(rng.integers(0, n_bg))
            v = n_bg + int(rng.integers(0, k))
            adjacency[u, v] = adjacency[v, u] = 1.0

        if config.label_rule == "kind":
            label: float | int = config.motif_kinds.index(kind)
        else:
            noise = config.property_noise * float(rng.uniform(-1.0, 1.0))
            label = float(k) + noise

        features = np.zeros((n, MAX_DEGREE_FEATURE + 1))
        for i, d in enumerate(adjacency.sum(axis=1).astype(int)):
            features[i, min(d, MAX_DEGREE_FEATURE)] = 1.0
        graphs.append(Graph(adjacency, features, label))
        masks.append(list(range(n_bg, n)))

    num_classes = len(config.motif_kinds) if config.label_rule == "kind" else None
    return Dataset(graphs=graphs, num_classes=num_classes, masks=masks, name="planted_motif")


# -- splits ---------------------------------------------------------------------


def random_splits(
    n: int, ratios: tuple[float, float, float], seed: int
) -> dict[str, list[int]]:
    """Seeded shuffle into train/val/test with the given ratios."""
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {ratios}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n).tolist()
    n_train = int(round(ratios[0] * n))
    n_val = max(1, int(round(ratios[1] * n))) if n >= 3 else 0
    train = sorted(order[:n_train])
    val = sorted(order[n_train : n_train + n_val])
    test = sorted(order[n_train + n_val :])
    return {"train": train, "val": val, "test": test}


def kfold_splits(n: int, fold: int, n_folds: int, seed: int) -> dict[str, list[int]]:
    """Seeded k-fold: held-out fold is the test set, one chunk of the rest
    becomes validation."""
    if not 0 <= fold < n_folds:
        raise ConfigError(f"fold_index {fold} out of range for {n_folds} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n).tolist()
    folds = [order[i::n_folds] for i in range(n_folds)]
    test = sorted(folds[fold])
    rest = [i for f, part in enumerate(folds) if f != fold for i in part]
    n_val = max(1, len(rest) // 10)
    val = sorted(rest[:n_val])
    train = sorted(rest[n_val:])
    return {"train": train, "val": val, "test": test}
