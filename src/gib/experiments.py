"""Experiment drivers: classification, denoising, and interpretation runs.

These wire datasets, training, and metrics into the protocols reported by
the command-line tools. Each driver is a pure function of (dataset, config,
seed) so seed sweeps are embarrassingly parallel and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

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
from .models import AttentionClassifier, MeanPoolClassifier
from .nn import topk_subgraph_from_scores
from .optim import make_optimizer
from .subgraph import SubgraphSelection, discretize, selection_record
from .tensor import zero_grads
from .train import TrainConfig, build_model, fit, output_loss, train


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
    model = build_model(model_class, dataset, config, init_rng)
    optimizer = make_optimizer(config.optimizer, model.params(), config.lr_outer)
    val_graphs = dataset.subset("val")

    def step(epoch: int, batch_index: int, graphs: list[Graph]) -> None:
        zero_grads(model.params())
        labels = [model.standardize_label(graph.label) for graph in graphs]
        loss = output_loss(model.outputs(GraphBatch(graphs)), labels, dataset.num_classes)
        loss.backward()
        if not np.isfinite(float(loss.data)):
            raise FloatingPointError(
                f"epoch {epoch}, batch {batch_index}: baseline {kind} diverged")
        optimizer.step()

    def validate(epoch: int) -> float:
        preds = model.predict_all(val_graphs)
        if dataset.continuous:
            return float(np.mean([(p - float(g.label)) ** 2 for p, g in zip(preds, val_graphs)]))
        return accuracy(preds, [int(g.label) for g in val_graphs])

    best_epoch, best_val = fit(model, dataset, config, shuffle_rng, step, validate)
    return BaselineResult(model=model, best_epoch=best_epoch, best_val=best_val)


# -- denoising ---------------------------------------------------------------------


def build_line_dataset(noisy: Dataset) -> Dataset:
    """Turn a noisy dataset (with real-edge masks) into its line-graph twin.

    Line node k of graph i corresponds to edge k in the canonical edge order,
    which is exactly what the real-edge masks index.
    """
    if noisy.masks is None:
        raise ConfigError("denoising needs ground-truth real-edge masks")
    pairs = [to_line_graph(g) for g in noisy.graphs]
    return Dataset(
        graphs=[p.line for p in pairs],
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


def _edge_metrics_for_masks(
    line_dataset: Dataset, split: str, keep_masks: list[np.ndarray]
) -> tuple[float, float, float]:
    recalls, precisions, empties = [], [], 0
    for mask, gi in zip(keep_masks, line_dataset.splits[split]):
        real = np.zeros(line_dataset.graphs[gi].n, dtype=bool)
        real[line_dataset.masks[gi]] = True
        scores = edge_scores(mask, real)
        recalls.append(scores["recall"])
        precisions.append(scores["precision"])
        empties += int(scores["empty_selection"])
    return float(np.mean(recalls)), float(np.mean(precisions)), empties / len(keep_masks)


def run_denoising(
    noisy: Dataset, config: TrainConfig, methods: tuple[str, ...] = ("gcn", "att05", "att07", "gib")
) -> list[DenoisingRun]:
    """Train each method on the line graphs and score edge recovery on test."""
    line_ds = build_line_dataset(noisy)
    test_ids = line_ds.splits["test"]
    test_graphs = [line_ds.graphs[i] for i in test_ids]
    labels = [int(g.label) for g in test_graphs]
    runs: list[DenoisingRun] = []

    att_result: Optional[BaselineResult] = None
    for method in methods:
        if method == "gcn":
            base = train_baseline(line_ds, config, kind="meanpool")
            acc = accuracy(base.model.predict_all(test_graphs), labels)
            runs.append(DenoisingRun("GCN", float("nan"), float("nan"), acc, structure_capable=False))
        elif method in ("att05", "att07"):
            if att_result is None:
                att_result = train_baseline(line_ds, config, kind="attention")
            keep = 0.5 if method == "att05" else 0.7
            masks = [
                topk_subgraph_from_scores(g, att_result.model.node_scores(g), keep)
                for g in test_graphs
            ]
            recall, precision, empty = _edge_metrics_for_masks(line_ds, "test", masks)
            acc = accuracy(att_result.model.predict_all(test_graphs), labels)
            runs.append(DenoisingRun(f"GCN+Att{int(keep*10):02d}", recall, precision, acc,
                                     empty_rate=empty))
        elif method == "gib":
            result = train(line_ds, config)
            masks = []
            for g in test_graphs:
                sel = discretize(result.model.assignment_matrix(g), g, config.threshold)
                masks.append(sel.node_mask)
            recall, precision, empty = _edge_metrics_for_masks(line_ds, "test", masks)
            acc = accuracy(result.model.predict_all(test_graphs), labels)
            runs.append(DenoisingRun("GCN+GIB", recall, precision, acc, empty_rate=empty))
        else:
            raise ConfigError(f"unknown denoising method {method!r}")
    return runs


# -- interpretation ------------------------------------------------------------------


@dataclass
class InterpretationRun:
    method: str
    bias_mean: float
    bias_std: float
    components_per_graph: float
    degenerate_rate: float
    records: list[dict]


def _score_selections(
    dataset: Dataset, split: str, selections: list[SubgraphSelection], soft: list[Optional[np.ndarray]]
) -> tuple[list[float], float, float, list[dict]]:
    biases, comp_counts, records = [], [], []
    degenerate = 0
    for sel, s, gi in zip(selections, soft, dataset.splits[split]):
        graph = dataset.graphs[gi]
        motif = dataset.masks[gi]
        biases.append(motif_property_bias(motif, graph, sel))
        if sel.empty or sel.node_mask.all():
            degenerate += 1
        if not sel.empty:
            comp_counts.append(count_components(sel))
        records.append(selection_record(gi, graph, sel, soft=s))
    comps = float(np.mean(comp_counts)) if comp_counts else float("nan")
    return biases, comps, degenerate / len(selections), records


def run_interpretation(
    dataset: Dataset,
    config: TrainConfig,
    methods: tuple[str, ...] = ("att05", "att07", "gib_no_con", "gib_no_mi", "gib"),
) -> list[InterpretationRun]:
    """Property-bias evaluation of attention baselines, ablations, and the
    full model on a continuous-property dataset."""
    if not dataset.continuous:
        raise ConfigError("interpretation needs a continuous-property dataset")
    if dataset.masks is None:
        raise ConfigError("interpretation needs ground-truth motif masks")
    test_ids = dataset.splits["test"]
    test_graphs = [dataset.graphs[i] for i in test_ids]
    runs: list[InterpretationRun] = []

    att_result: Optional[BaselineResult] = None
    for method in methods:
        if method in ("att05", "att07"):
            if att_result is None:
                att_result = train_baseline(dataset, config, kind="attention")
            keep = 0.5 if method == "att05" else 0.7
            selections, soft = [], []
            for g in test_graphs:
                mask = topk_subgraph_from_scores(g, att_result.model.node_scores(g), keep)
                induced = g.adjacency * np.outer(mask, mask)
                selections.append(SubgraphSelection(mask, induced, threshold=keep))
                soft.append(None)
            label = f"GCN+Att{int(keep*10):02d}"
        elif method in ("gib", "gib_no_con", "gib_no_mi", "gib_plain"):
            variant = replace(
                config,
                use_con=method not in ("gib_no_con", "gib_plain"),
                use_mi=method not in ("gib_no_mi", "gib_plain"),
            )
            result = train(dataset, variant)
            selections, soft = [], []
            for g in test_graphs:
                s = result.model.assignment_matrix(g)
                selections.append(discretize(s, g, config.threshold))
                soft.append(s)
            label = {
                "gib": "GCN+GIB",
                "gib_no_con": "GCN+GIB w/o con",
                "gib_no_mi": "GCN+GIB w/o mi",
                "gib_plain": "GCN+subgraph (no con, no mi)",
            }[method]
        else:
            raise ConfigError(f"unknown interpretation method {method!r}")

        biases, comps, degenerate, records = _score_selections(dataset, "test", selections, soft)
        bias_mean, bias_std = mean_std(biases)
        runs.append(
            InterpretationRun(label, bias_mean, bias_std, comps, degenerate, records)
        )
    return runs


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
    if dataset.masks is None:
        raise ConfigError("motif recovery needs ground-truth motif masks")
    test_ids = dataset.splits["test"]
    test_graphs = [dataset.graphs[i] for i in test_ids]
    labels = [int(g.label) for g in test_graphs]
    runs: list[MotifRecoveryRun] = []
    for method in methods:
        if method == "att05":
            base = train_baseline(dataset, config, kind="attention")
            recalls = []
            for g, gi in zip(test_graphs, test_ids):
                mask = topk_subgraph_from_scores(g, base.model.node_scores(g), 0.5)
                recalls.append(node_recall(dataset.masks[gi], np.nonzero(mask)[0].tolist()))
            acc = accuracy(base.model.predict_all(test_graphs), labels)
            runs.append(MotifRecoveryRun("GCN+Att05", acc, float(np.mean(recalls))))
        elif method == "gib":
            result = train(dataset, config)
            recalls = []
            for g, gi in zip(test_graphs, test_ids):
                sel = discretize(result.model.assignment_matrix(g), g, config.threshold)
                recalls.append(node_recall(dataset.masks[gi], sel.node_indices()))
            acc = accuracy(result.model.predict_all(test_graphs), labels)
            runs.append(MotifRecoveryRun("GCN+GIB", acc, float(np.mean(recalls))))
        else:
            raise ConfigError(f"unknown motif-recovery method {method!r}")
    return runs
