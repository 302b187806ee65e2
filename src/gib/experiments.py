"""Experiment drivers: classification, denoising, and interpretation runs.

Every driver follows one protocol: :func:`select_and_score` trains each
method once and selects a subgraph on every test graph, and the driver only
scores the selections. Each driver is a pure function of (dataset, config,
seed) so seed sweeps are embarrassingly parallel and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence, TypeVar

import numpy as np

from .batch import GraphBatch
from .graphs import ConfigError, Dataset, Graph, to_line_graph
from .metrics import (
    accuracy,
    count_components,
    edge_scores,
    mean_std,
    motif_property_bias,
    node_recall,
)
from .models import AttentionClassifier, MeanPoolClassifier, Predictor
from .optim import Adam
from .subgraph import (SELECTION_THRESHOLD, SubgraphSelection, discretize, selection_record,
                       topk_subgraph_from_scores)
from .train import TrainConfig, fit, output_loss, train


# -- single-level baselines ------------------------------------------------------


@dataclass
class BaselineResult:
    model: AttentionClassifier | MeanPoolClassifier
    best_epoch: int
    best_val: float


def train_baseline(dataset: Dataset, config: TrainConfig, kind: str) -> BaselineResult:
    """Train an aggregation baseline (attention or mean pooling) end to end."""
    if kind not in ("attention", "meanpool"):
        raise ConfigError(f"unknown baseline kind {kind!r}")
    ss = np.random.SeedSequence(config.seed)
    init_rng, shuffle_rng = (np.random.default_rng(c) for c in ss.spawn(2))
    model_class = AttentionClassifier if kind == "attention" else MeanPoolClassifier
    model = model_class(dataset.graphs[0].features.shape[1], dataset.num_classes, init_rng)
    optimizer = Adam(model.params(), config.lr_outer)
    val_graphs = dataset.subset("val")

    def run_epoch(epoch: int, minibatches: list[list[Graph]]) -> float:
        for batch_index, graphs in enumerate(minibatches):
            labels = [model.standardize_label(graph.label) for graph in graphs]
            loss = output_loss(model.outputs(GraphBatch(graphs)), labels, dataset.num_classes)
            optimizer.minimize(
                loss, lambda: f"epoch {epoch}, batch {batch_index}: baseline {kind} diverged")
        preds = model.predict_all(val_graphs)
        if dataset.continuous:
            return float(np.mean([(p - float(g.label)) ** 2 for p, g in zip(preds, val_graphs)]))
        return accuracy(preds, [int(g.label) for g in val_graphs])

    best_epoch, best_val = fit(model, dataset, config, shuffle_rng, run_epoch)
    return BaselineResult(model=model, best_epoch=best_epoch, best_val=best_val)


# -- one protocol: train each method, select a subgraph on every test graph -----


R = TypeVar("R")


class Method(NamedTuple):
    label: str  # row label in every results table
    keep: Optional[float] = None  # node share an attention baseline keeps (top-k)
    losses: Optional[tuple[str, ...]] = None  # loss weights a GIB variant sets to 0


METHODS = {
    "gcn": Method("GCN"),
    "att05": Method("GCN+Att05", keep=0.5),
    "att07": Method("GCN+Att07", keep=0.7),
    "gib": Method("GCN+GIB", losses=()),
    "gib_no_con": Method("GCN+GIB w/o con", losses=("con_weight",)),
    "gib_no_mi": Method("GCN+GIB w/o mi", losses=("beta",)),
    "gib_plain": Method("GCN+subgraph (no con, no mi)", losses=("con_weight", "beta")),
}


def select_and_score(
    dataset: Dataset, config: TrainConfig, methods: Sequence[str], task: str,
    score: Callable[[str, Predictor, Optional[list[SubgraphSelection]], list], R],
    allow_gcn: bool = False,
) -> list[R]:
    """Train each method once, select a subgraph on every test graph and
    return ``score(row label, model, test selections, soft S)`` per method.

    Checks every method name and the test split before any training (the
    drivers check the masks with :func:`check_masks`). The attention
    baselines share one trained model and select top-k nodes; GIB variants
    discretize their assignment S and also pass it; ``gcn`` (only with
    ``allow_gcn``) selects nothing and passes None.
    The selections are arguments, not locals, so none outlives its score.
    """
    for name in methods:
        if name not in METHODS or (name == "gcn" and not allow_gcn):
            raise ConfigError(f"unknown {task} method {name!r}")
    test_graphs = dataset.subset("test")
    attention = None
    rows = []
    for name in methods:
        label, keep, zeroed = METHODS[name]
        if keep is not None:
            if attention is None:
                attention = train_baseline(dataset, config, kind="attention").model
            rows.append(score(label, attention, [
                topk_subgraph_from_scores(g, attention.node_scores(g), keep)
                for g in test_graphs
            ], [None] * len(test_graphs)))
        elif zeroed is not None:
            model = train(dataset, replace(config, **dict.fromkeys(zeroed, 0.0))).model
            soft = [model.assignment_matrix(g) for g in test_graphs]
            rows.append(score(label, model, [
                discretize(s, g, SELECTION_THRESHOLD) for s, g in zip(soft, test_graphs)
            ], soft))
        else:
            rows.append(score(label, train_baseline(dataset, config, kind="meanpool").model,
                              None, None))
    return rows


def check_masks(dataset: Dataset, kind: str) -> None:
    """One nonempty ground-truth mask per graph, each within its graph: a
    "real-edge" mask indexes the canonical edges (so its graph has edges), a
    "motif" mask the nodes. A ConfigError names the first graph at fault,
    numbered from 1 as in the TU files and the mask sidecar."""
    if dataset.masks is None:
        raise ConfigError(f"{dataset.name} needs ground-truth {kind} masks")
    if len(dataset.masks) != len(dataset.graphs):
        raise ConfigError(f"{len(dataset.masks)} {kind} masks for {len(dataset.graphs)} graphs")
    unit = "edges" if kind == "real-edge" else "nodes"
    for gi, (graph, mask) in enumerate(zip(dataset.graphs, dataset.masks), start=1):
        size = graph.num_edges if kind == "real-edge" else graph.n
        if not mask:
            raise ConfigError(f"graph {gi} of {dataset.name} has {size} {unit} and an empty "
                              f"{kind} mask")
        if not 0 <= min(mask) <= max(mask) < size:
            raise ConfigError(f"graph {gi} of {dataset.name}: {kind} mask spans "
                              f"{min(mask)}..{max(mask)}, but the graph has {size} {unit}")


# -- denoising ---------------------------------------------------------------------


def build_line_dataset(noisy: Dataset) -> Dataset:
    """Turn a noisy dataset (with real-edge masks) into its line-graph twin.

    Line node k of graph i corresponds to edge k in the canonical edge order,
    which is exactly what the real-edge masks index.
    """
    check_masks(noisy, "real-edge")
    return Dataset(
        graphs=[to_line_graph(g) for g in noisy.graphs],
        num_classes=noisy.num_classes,
        splits=dict(noisy.splits),
        masks=[list(m) for m in noisy.masks],
        name=noisy.name + "_line",
    )


@dataclass
class DenoisingRun:
    method: str
    recall: float
    precision: float
    accuracy: float
    structure_capable: bool = True
    empty_rate: float = 0.0


def run_denoising(
    noisy: Dataset, config: TrainConfig, methods: tuple[str, ...] = ("gcn", "att05", "att07", "gib")
) -> list[DenoisingRun]:
    """Train each method on the line graphs and score edge recovery on test."""
    line_ds = build_line_dataset(noisy)
    test_graphs = line_ds.subset("test")
    labels = [int(g.label) for g in test_graphs]
    real = [np.isin(np.arange(g.n), line_ds.masks[gi])
            for g, gi in zip(test_graphs, line_ds.splits["test"])]

    def score(label, model, selections, _) -> DenoisingRun:
        acc = accuracy(model.predict_all(test_graphs), labels)
        if selections is None:
            return DenoisingRun(label, float("nan"), float("nan"), acc, structure_capable=False)
        scores = [edge_scores(sel.node_mask, r) for sel, r in zip(selections, real)]
        return DenoisingRun(
            label, float(np.mean([s["recall"] for s in scores])),
            float(np.mean([s["precision"] for s in scores])), acc,
            empty_rate=sum(s["empty_selection"] for s in scores) / len(scores),
        )

    return select_and_score(line_ds, config, methods, "denoising", score, allow_gcn=True)


# -- interpretation ------------------------------------------------------------------


@dataclass
class InterpretationRun:
    method: str
    bias_mean: float
    bias_std: float
    components_per_graph: float
    degenerate_rate: float
    records: list[dict]


def run_interpretation(
    dataset: Dataset,
    config: TrainConfig,
    methods: tuple[str, ...] = ("att05", "att07", "gib_no_con", "gib_no_mi", "gib"),
) -> list[InterpretationRun]:
    """Property-bias evaluation of attention baselines, ablations, and the
    full model on a continuous-property dataset."""
    if not dataset.continuous:
        raise ConfigError("interpretation needs a continuous-property dataset")
    check_masks(dataset, "motif")

    def score(label, _, selections, soft) -> InterpretationRun:
        biases, comp_counts, records = [], [], []
        for sel, s, gi in zip(selections, soft, dataset.splits["test"]):
            graph = dataset.graphs[gi]
            biases.append(motif_property_bias(dataset.masks[gi], graph, sel))
            if not sel.empty:
                comp_counts.append(count_components(sel))
            records.append(selection_record(gi, graph, sel, soft=s))
        return InterpretationRun(
            label, *mean_std(biases),
            float(np.mean(comp_counts)) if comp_counts else float("nan"),
            sum(sel.degenerate for sel in selections) / len(selections), records,
        )

    return select_and_score(dataset, config, methods, "interpretation", score)


# -- motif recovery (classification + explanation quality) ----------------------------


@dataclass
class MotifRecoveryRun:
    method: str
    accuracy: float
    motif_recall: float


def run_motif_recovery(
    dataset: Dataset, config: TrainConfig, methods: tuple[str, ...] = ("att05", "gib")
) -> list[MotifRecoveryRun]:
    """Classification accuracy plus recall of planted-motif nodes on test."""
    check_masks(dataset, "motif")
    test_graphs = dataset.subset("test")
    labels = [int(g.label) for g in test_graphs]

    def score(label, model, selections, _) -> MotifRecoveryRun:
        recalls = [node_recall(dataset.masks[gi], sel.node_indices())
                   for sel, gi in zip(selections, dataset.splits["test"])]
        acc = accuracy(model.predict_all(test_graphs), labels)
        return MotifRecoveryRun(label, acc, float(np.mean(recalls)))

    return select_and_score(dataset, config, methods, "motif-recovery", score)
