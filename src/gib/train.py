"""The bi-level training loop, on the epoch loop every model shares.

Each epoch first redraws the statistics head and trains it alone for T
ascent steps on embeddings of the whole training split, cached from the
current generator; with the head then frozen (the model's frozen copy), the
generator and classifier take one gradient step per minibatch on

    classification loss + beta * MI estimate + con_weight * connectivity loss.

A zero weight switches its term off; ``beta = 0`` also skips the inner phase,
and ``con_weight = 0`` records the connectivity loss off the tape.

One inner phase per epoch is how every shipped result reads the paper's
alternation. Phases own disjoint parameter groups: the inner loop touches
only the head, the outer loop only the generator and classifier.

Each minibatch is one :class:`GraphBatch` and one tape: the shared encoder
runs once per batch, and its node embeddings feed the subgraph embeddings,
the graph embeddings and every loss term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import tensor as T
from .batch import GraphBatch, batches
from .graphs import ConfigError, Dataset, Graph, bounded, check_fields
from .metrics import accuracy, motif_property_bias
from .mi import inner_maximize, mi_batch_loss
from .models import GibModel, Predictor
from .nn import Mlp
from .optim import Adam
from .subgraph import SELECTION_THRESHOLD, connectivity_loss, discretize
from .tensor import Tensor


@dataclass(frozen=True)
class TrainConfig:
    beta: float = bounded(0.1, low=0.0)
    con_weight: float = bounded(1.0, low=0.0)
    inner_steps: int = bounded(20, low=1)
    outer_steps: int = bounded(100, low=1)
    lr_inner: float = bounded(1e-3, low=0.0, strict=True)
    lr_outer: float = bounded(1e-3, low=0.0, strict=True)
    batch_size: int = bounded(32, low=2)  # mismatched pairs need company
    seed: int = bounded(0, low=0)
    patience: int = bounded(20, low=1)

    __post_init__ = check_fields


@dataclass
class LossBreakdown:
    cls: float
    mi: float
    con: float
    total: float


# metrics.csv's header: one column per EpochRecord field, in field order
METRICS_COLUMNS = ("outer_step", "loss_cls", "loss_mi", "loss_con", "loss_total",
                   "val_metric", "degenerate_rate")


@dataclass
class EpochRecord:
    epoch: int
    cls: float
    mi: float
    con: float
    total: float
    val_metric: float
    degenerate_rate: float


@dataclass
class TrainResult:
    model: GibModel
    history: list[EpochRecord]
    mi_trace: list[tuple[int, float]]  # (epoch, converged estimate)
    best_epoch: int
    best_val: float


def output_loss(
    out: Tensor, labels: Sequence[float | int], num_classes: Optional[int]
) -> Tensor:
    """Mean cross entropy of B x C logit rows, or mean squared error of B x 1 outputs."""
    if num_classes is not None:
        classes = [int(label) for label in labels]
        for c in classes:
            if not 0 <= c < num_classes:
                raise ValueError(f"label {c} out of range for {num_classes} classes")
        # each row's own label logit, B x 1: one entry per row
        picked = T.index(out, (np.arange(len(classes))[:, None], np.array(classes)[:, None]))
        return T.tmean(T.row_logsumexp(out) - picked)
    diff = out - T.constant([[float(label)] for label in labels])
    return T.tmean(diff * diff)


def classification_loss(
    classifier: Mlp, sub_emb: Tensor, label: float | int, num_classes: Optional[int]
) -> Tensor:
    """Cross entropy for class labels, squared error for continuous ones."""
    return output_loss(classifier.forward(sub_emb), [label], num_classes)


def _batches(indices: list[int], batch_size: int) -> list[list[int]]:
    """Contiguous chunks; a trailing singleton is merged into its neighbor so
    every batch can form mismatched pairs."""
    out = [indices[i : i + batch_size] for i in range(0, len(indices), batch_size)]
    if len(out) > 1 and len(out[-1]) < 2:
        out[-2].extend(out[-1])
        out.pop()
    return out


def _cached_embeddings(model: GibModel, graphs: list[Graph]) -> tuple[np.ndarray, np.ndarray]:
    """(graph, subgraph) embedding pairs under the current generator, off the tape."""
    g_rows, s_rows = [], []
    for batch in batches(graphs):
        _, x, sub_emb = model.frozen.forward(batch)
        g_rows.append(batch.mean(x).data)
        s_rows.append(sub_emb.data)
    return np.concatenate(g_rows), np.concatenate(s_rows)


def run_inner_phase(
    model: GibModel,
    graphs: list[Graph],
    config: TrainConfig,
    phi2_rng: np.random.Generator,
) -> list[float]:
    """Fresh head, T ascent steps on cached embeddings; returns the per-step estimate trace."""
    model.statnet.head.redraw(phi2_rng)
    graph_embs, sub_embs = _cached_embeddings(model, graphs)
    return inner_maximize(
        model.statnet.head,
        graph_embs,
        sub_embs,
        steps=config.inner_steps,
        lr=config.lr_inner,
    )


def outer_step(
    model: GibModel,
    outer_optimizer: Adam,
    graphs: list[Graph],
    config: TrainConfig,
) -> LossBreakdown:
    """One minimization step on generator + classifier; the head is frozen."""
    batch = GraphBatch(graphs)
    s, x, sub_embs = model.forward(batch)
    labels = [model.standardize_label(graph.label) for graph in graphs]
    cls_loss = output_loss(model.logits(sub_embs), labels, model.num_classes)
    con_loss = connectivity_loss(s if config.con_weight > 0 else T.constant(s.data), batch)
    if config.beta > 0:
        mi_est = mi_batch_loss(model.frozen.statnet, batch.mean(x), sub_embs)
        mi_loss = mi_est.value
    else:
        mi_loss = T.constant(0.0)

    total = cls_loss + config.beta * mi_loss + config.con_weight * con_loss
    cls_value, mi_value, con_value = (float(t.data) for t in (cls_loss, mi_loss, con_loss))
    outer_optimizer.minimize(
        total, lambda: f"outer step diverged: cls={cls_value} mi={mi_value} con={con_value}")
    return LossBreakdown(cls_value, mi_value, con_value, float(total.data))


def _param_norms(model: GibModel, params: list[Tensor]) -> str:
    """Frobenius norm of each of ``params``, by name."""
    wanted = {id(p) for p in params}
    return ", ".join(
        f"{name}={float(np.linalg.norm(p.data)):.4g}"
        for name, p in model.named_params() if id(p) in wanted
    )


def evaluate_split(model: GibModel, dataset: Dataset, split: str, threshold: float) -> dict:
    """Prediction quality plus assignment health on one split. Each graph is
    cut once (:func:`discretize`); the degenerate rate and, for continuous
    labels with motif masks, the property bias read those cuts."""
    graphs = dataset.subset(split)
    preds: list[float | int] = []
    assignments: list[np.ndarray] = []
    for batch in batches(graphs):
        s, _, sub_embs = model.frozen.forward(batch)
        preds += model.decode(model.frozen.logits(sub_embs).data)
        assignments += batch.split(s.data)
    selections = [discretize(s, graph, threshold) for s, graph in zip(assignments, graphs)]
    out = {"degenerate_rate": sum(sel.degenerate for sel in selections) / len(graphs)}
    if not dataset.continuous:
        out["accuracy"] = accuracy(preds, [int(graph.label) for graph in graphs])
        return out
    out["mse"] = sum((pred - float(graph.label)) ** 2
                     for pred, graph in zip(preds, graphs)) / len(graphs)
    if dataset.masks is not None:
        out["property_bias"] = float(np.mean([
            motif_property_bias(dataset.masks[gi], graph, sel)
            for gi, graph, sel in zip(dataset.splits[split], graphs, selections)]))
    return out

def fit(
    model: Predictor,
    dataset: Dataset,
    config: TrainConfig,
    shuffle_rng: np.random.Generator,
    run_epoch: Callable[[int, list[list[Graph]]], float],
) -> tuple[int, float]:
    """The epoch loop of every model: checks the splits, standardizes
    continuous labels, then each epoch hands ``run_epoch(epoch, batches)``
    the training split in shuffled minibatches and takes back a validation
    value (higher is better for classes, lower for continuous labels). Stops
    after ``patience`` stale epochs and restores the best-validation
    parameters; returns (best epoch, value)."""
    dataset.validate_splits()
    train_graphs = dataset.subset("train")
    dataset.subset("val")  # an empty validation split fails before any epoch
    if dataset.continuous:
        model.fit_label_scale([g.label for g in train_graphs])
    best_val = None
    best_epoch = 0
    best_state: list[np.ndarray] = []
    stale = 0
    for epoch in range(1, config.outer_steps + 1):
        order = shuffle_rng.permutation(len(train_graphs)).tolist()
        value = run_epoch(epoch, [[train_graphs[i] for i in batch_ids]
                                  for batch_ids in _batches(order, config.batch_size)])
        if best_val is None or (value < best_val if dataset.continuous else value > best_val):
            best_val, best_epoch, stale = value, epoch, 0
            best_state = [p.data.copy() for _, p in model.named_params()]
        else:
            stale += 1
            if stale >= config.patience:
                break

    for (_, live), saved in zip(model.named_params(), best_state):
        live.data[...] = saved
    return best_epoch, float(best_val)


def train(dataset: Dataset, config: TrainConfig) -> TrainResult:
    """Run the full bi-level optimization and return the best-validation model."""
    n_train = len(dataset.splits.get("train", ()))
    if config.beta > 0 and n_train < 2:
        raise ConfigError(
            "the mutual-information estimate needs at least 2 graphs in the 'train' "
            f"split, got {n_train}"
        )

    ss = np.random.SeedSequence(config.seed)
    init_rng, phi2_rng, shuffle_rng = (np.random.default_rng(child) for child in ss.spawn(3))
    model = GibModel(dataset.graphs[0].features.shape[1], dataset.num_classes, init_rng)
    outer_opt = Adam(model.outer_params(), config.lr_outer)

    train_graphs = dataset.subset("train")
    history: list[EpochRecord] = []
    mi_trace: list[tuple[int, float]] = []

    def run_epoch(epoch: int, minibatches: list[list[Graph]]) -> float:
        if config.beta > 0:
            try:
                trace = run_inner_phase(model, train_graphs, config, phi2_rng)
            except FloatingPointError as err:
                raise FloatingPointError(
                    f"epoch {epoch}: {err}; statistics-head parameter norms "
                    f"{_param_norms(model, model.phi2_params())}"
                ) from err
            mi_trace.append((epoch, trace[-1]))
        losses: list[LossBreakdown] = []
        for batch_index, batch in enumerate(minibatches):
            try:
                losses.append(outer_step(model, outer_opt, batch, config))
            except FloatingPointError as err:
                raise FloatingPointError(
                    f"epoch {epoch}, batch {batch_index}: {err}; "
                    f"outer-parameter norms {_param_norms(model, model.outer_params())}"
                ) from err
        val_stats = evaluate_split(model, dataset, "val", SELECTION_THRESHOLD)
        # continuous labels: the property bias where motif masks exist, else the MSE
        val_value = val_stats["mse"] if dataset.continuous else val_stats["accuracy"]
        val_value = val_stats.get("property_bias", val_value)
        history.append(EpochRecord(
            epoch=epoch,
            cls=float(np.mean([b.cls for b in losses])),
            mi=float(np.mean([b.mi for b in losses])),
            con=float(np.mean([b.con for b in losses])),
            total=float(np.mean([b.total for b in losses])),
            val_metric=val_value,
            degenerate_rate=val_stats["degenerate_rate"],
        ))
        return val_value

    best_epoch, best_val = fit(model, dataset, config, shuffle_rng, run_epoch)
    return TrainResult(
        model=model,
        history=history,
        mi_trace=mi_trace,
        best_epoch=best_epoch,
        best_val=best_val,
    )

