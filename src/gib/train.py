"""The bi-level training loop.

Each outer step (an epoch over minibatches by default) first re-initializes
the statistics head and trains it alone for T ascent steps on embeddings
cached from the current generator; with the head then frozen, the generator
and classifier take gradient steps on

    classification loss + beta * MI estimate + connectivity loss.

Phases own disjoint parameter groups: the inner loop touches only the head,
the outer loop only the generator and classifier. ``per_batch_inner`` runs a
fresh inner loop before every outer minibatch instead of once per epoch,
which is the literal alternation at a much higher cost.

Each minibatch is one :class:`GraphBatch` and one tape: the shared encoder
runs once per batch, and its node embeddings feed the subgraph embeddings,
the graph embeddings and every loss term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .batch import GraphBatch, batches
from .graphs import ConfigError, Dataset, Graph
from .metrics import motif_property_bias
from .mi import inner_maximize, mi_batch_loss
from .models import GibModel
from .nn import Mlp
from .optim import make_optimizer
from .subgraph import connectivity_loss, discretize
from .tensor import Tensor, zero_grads


@dataclass
class TrainConfig:
    beta: float = 0.1
    con_weight: float = 1.0
    inner_steps: int = 20
    outer_steps: int = 100
    lr_inner: float = 1e-3
    lr_outer: float = 1e-3
    batch_size: int = 32
    seed: int = 0
    optimizer: str = "adam"
    hidden: int = 16
    gcn_layers: int = 2
    mlp_hidden: int = 16
    patience: int = 20
    threshold: float = 0.5
    use_mi: bool = True
    use_con: bool = True
    per_batch_inner: bool = False
    full_pairing: bool = False
    inner_batch_size: Optional[int] = None
    debug_freeze_checks: bool = False

    def validate(self) -> None:
        if self.beta < 0:
            raise ConfigError(f"beta must be nonnegative, got {self.beta}")
        if self.inner_steps < 1:
            raise ConfigError(f"inner_steps must be >= 1, got {self.inner_steps}")
        if self.outer_steps < 1:
            raise ConfigError(f"outer_steps must be >= 1, got {self.outer_steps}")
        if self.lr_inner <= 0 or self.lr_outer <= 0:
            raise ConfigError("learning rates must be positive")
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 (mismatched pairs need company)")
        if self.inner_batch_size is not None and self.inner_batch_size < 2:
            raise ConfigError(
                "inner_batch_size must be >= 2 (a cyclic shift of one pair pairs it "
                f"with itself), got {self.inner_batch_size}"
            )
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must be in (0, 1), got {self.threshold}")

    def effective_con_weight(self) -> float:
        return self.con_weight if self.use_con else 0.0


@dataclass
class LossBreakdown:
    cls: float
    mi: float
    con: float
    beta: float
    con_weight: float
    total: float

    @classmethod
    def build(cls_, cls_value: float, mi_value: float, con_value: float,
              beta: float, con_weight: float) -> "LossBreakdown":
        total = cls_value + beta * mi_value + con_weight * con_value
        return cls_(cls_value, mi_value, con_value, beta, con_weight, total)


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
    higher_is_better: bool

    def history_rows(self) -> list[dict]:
        return [
            {
                "outer_step": r.epoch,
                "loss_cls": r.cls,
                "loss_mi": r.mi,
                "loss_con": r.con,
                "loss_total": r.total,
                "val_metric": r.val_metric,
                "degenerate_rate": r.degenerate_rate,
            }
            for r in self.history
        ]


def output_loss(
    out: Tensor, labels: Sequence[float | int], num_classes: Optional[int]
) -> Tensor:
    """Mean cross entropy of B x C logit rows, or mean squared error of B x 1 outputs."""
    if num_classes is not None:
        onehot = np.zeros((len(labels), num_classes))
        for row, label in enumerate(labels):
            if not 0 <= int(label) < num_classes:
                raise ValueError(f"label {int(label)} out of range for {num_classes} classes")
            onehot[row, int(label)] = 1.0
        picked = (out * T.constant(onehot)) @ T.constant(np.ones((num_classes, 1)))
        return T.tmean(T.row_logsumexp(out) - picked)
    diff = out - T.constant([[float(label)] for label in labels])
    return T.tmean(diff * diff)


def classification_loss(
    classifier: Mlp, sub_emb: Tensor, label: float | int, num_classes: Optional[int]
) -> Tensor:
    """Cross entropy for class labels, squared error for continuous ones."""
    return output_loss(classifier.forward(sub_emb), [label], num_classes)


def _snapshot(params: list[Tensor]) -> list[np.ndarray]:
    return [p.data.copy() for p in params]


def _assert_unchanged(params: list[Tensor], before: list[np.ndarray], what: str) -> None:
    for p, b in zip(params, before):
        if not np.array_equal(p.data, b):
            raise AssertionError(f"{what} parameters changed during a frozen phase")


def _batches(indices: list[int], batch_size: int) -> list[list[int]]:
    """Contiguous chunks; a trailing singleton is merged into its neighbor so
    every batch can form mismatched pairs."""
    out = [indices[i : i + batch_size] for i in range(0, len(indices), batch_size)]
    if len(out) > 1 and len(out[-1]) < 2:
        out[-2].extend(out[-1])
        out.pop()
    return out


def _cached_embeddings(model: GibModel, graphs: list[Graph]) -> tuple[np.ndarray, np.ndarray]:
    """Detached (graph, subgraph) embedding pairs under the current generator."""
    g_rows, s_rows = [], []
    for batch in batches(graphs):
        _, x, sub_emb = model.forward(batch)
        g_rows.append(batch.mean(x).data)
        s_rows.append(sub_emb.data)
    return np.concatenate(g_rows), np.concatenate(s_rows)


def run_inner_phase(
    model: GibModel,
    graphs: list[Graph],
    config: TrainConfig,
    phi2_rng: np.random.Generator,
    inner_rng: np.random.Generator,
) -> float:
    """Fresh head, T ascent steps on cached embeddings; returns the final estimate."""
    model.statnet.reinitialize_head(phi2_rng)
    graph_embs, sub_embs = _cached_embeddings(model, graphs)
    trace = inner_maximize(
        model.statnet,
        graph_embs,
        sub_embs,
        steps=config.inner_steps,
        lr=config.lr_inner,
        optimizer_kind=config.optimizer,
        batch_size=config.inner_batch_size,
        rng=inner_rng,
        full_pairing=config.full_pairing,
    )
    return trace[-1]


def outer_step(
    model: GibModel,
    outer_optimizer,
    graphs: list[Graph],
    config: TrainConfig,
) -> LossBreakdown:
    """One minimization step on generator + classifier; the head is frozen."""
    if config.debug_freeze_checks:
        phi2_before = _snapshot(model.phi2_params())

    zero_grads(model.outer_params() + model.phi2_params())
    batch = GraphBatch(graphs)
    s, x, sub_embs = model.forward(batch)
    labels = [model.standardize_label(graph.label) for graph in graphs]
    cls_loss = output_loss(model.logits(sub_embs), labels, model.num_classes)
    con_loss = connectivity_loss(s, batch)
    if config.use_mi and len(batch) >= 2:
        mi_est = mi_batch_loss(model.statnet, batch.mean(x), sub_embs, config.full_pairing)
        mi_loss = mi_est.value
    else:
        mi_loss = T.constant(0.0)

    con_weight = config.effective_con_weight()
    total = cls_loss + config.beta * mi_loss + con_weight * con_loss
    total.backward()
    total_value = float(total.data)
    if not np.isfinite(total_value):
        raise FloatingPointError(
            f"outer step diverged: cls={float(cls_loss.data)} "
            f"mi={float(mi_loss.data)} con={float(con_loss.data)}"
        )
    outer_optimizer.step()

    if config.debug_freeze_checks:
        _assert_unchanged(model.phi2_params(), phi2_before, "statistics-head")

    return LossBreakdown.build(
        float(cls_loss.data), float(mi_loss.data), float(con_loss.data),
        config.beta, con_weight,
    )


def _label_scale(dataset: Dataset) -> tuple[float, float]:
    """Mean and std of the training labels (std floored away from zero)."""
    values = np.array([float(dataset.graphs[i].label) for i in dataset.splits["train"]])
    return float(values.mean()), float(max(values.std(), 1e-8))


def evaluate_split(model: GibModel, dataset: Dataset, split: str, threshold: float) -> dict:
    """Prediction quality plus assignment health on one split."""
    graphs = dataset.subset(split)
    if not graphs:
        raise ConfigError(f"split {split!r} is empty")
    correct = 0
    sq_err = 0.0
    degenerate = 0
    bias_terms: list[float] = []
    mask_lookup = None
    if dataset.masks is not None:
        mask_lookup = {i: dataset.masks[i] for i in dataset.splits[split]}
    preds: list[float | int] = []
    assignments: list[np.ndarray] = []
    for batch in batches(graphs):
        s, _, sub_embs = model.forward(batch)
        preds += model.decode(model.logits(sub_embs).data)
        assignments += batch.split(s.data)
    for gi, graph, pred, s_graph in zip(dataset.splits[split], graphs, preds, assignments):
        if dataset.continuous:
            sq_err += (pred - float(graph.label)) ** 2
        elif pred == int(graph.label):
            correct += 1
        sel = discretize(s_graph, graph, threshold)
        if sel.empty or sel.node_mask.all():
            degenerate += 1
        if mask_lookup is not None and dataset.continuous:
            bias_terms.append(motif_property_bias(mask_lookup[gi], graph, sel))
    out = {"degenerate_rate": degenerate / len(graphs)}
    if dataset.continuous:
        out["mse"] = sq_err / len(graphs)
        if bias_terms:
            out["property_bias"] = float(np.mean(bias_terms))
    else:
        out["accuracy"] = correct / len(graphs)
    return out


def _val_metric(metrics: dict, continuous: bool) -> tuple[float, bool]:
    """Returns (value, higher_is_better)."""
    if not continuous:
        return metrics["accuracy"], True
    if "property_bias" in metrics:
        return metrics["property_bias"], False
    return metrics["mse"], False


def train(dataset: Dataset, config: TrainConfig) -> TrainResult:
    """Run the full bi-level optimization and return the best-validation model."""
    config.validate()
    dataset.validate_splits()
    for split in ("train", "val"):
        if not dataset.splits.get(split):
            raise ConfigError(f"dataset needs a nonempty {split!r} split")
    if config.use_mi and len(dataset.splits["train"]) < 2:
        raise ConfigError(
            "the mutual-information estimate needs at least 2 graphs in the 'train' "
            f"split, got {len(dataset.splits['train'])}"
        )

    ss = np.random.SeedSequence(config.seed)
    init_rng, phi2_rng, shuffle_rng, inner_rng = (
        np.random.default_rng(child) for child in ss.spawn(4)
    )
    feature_dim = dataset.graphs[0].features.shape[1]
    model = GibModel(
        feature_dim,
        dataset.num_classes,
        init_rng,
        hidden=config.hidden,
        gcn_layers=config.gcn_layers,
        mlp_hidden=config.mlp_hidden,
    )
    if dataset.continuous:
        model.label_mean, model.label_std = _label_scale(dataset)
    outer_opt = make_optimizer(config.optimizer, model.outer_params(), config.lr_outer)

    train_graphs = dataset.subset("train")
    train_indices = list(range(len(train_graphs)))
    history: list[EpochRecord] = []
    mi_trace: list[tuple[int, float]] = []
    best_val = None
    best_epoch = 0
    best_state: list[tuple[str, np.ndarray]] = []
    higher_is_better = dataset.num_classes is not None
    stale = 0

    for epoch in range(1, config.outer_steps + 1):
        if config.use_mi and not config.per_batch_inner:
            outer_before = _snapshot(model.outer_params()) if config.debug_freeze_checks else None
            mi_estimate = run_inner_phase(model, train_graphs, config, phi2_rng, inner_rng)
            if outer_before is not None:
                _assert_unchanged(model.outer_params(), outer_before, "generator/classifier")
            mi_trace.append((epoch, mi_estimate))

        order = [train_indices[i] for i in shuffle_rng.permutation(len(train_indices))]
        epoch_losses: list[LossBreakdown] = []
        for batch_ids in _batches(order, config.batch_size):
            batch = [train_graphs[i] for i in batch_ids]
            if config.use_mi and config.per_batch_inner:
                outer_before = _snapshot(model.outer_params()) if config.debug_freeze_checks else None
                mi_estimate = run_inner_phase(model, batch, config, phi2_rng, inner_rng)
                if outer_before is not None:
                    _assert_unchanged(model.outer_params(), outer_before, "generator/classifier")
                mi_trace.append((epoch, mi_estimate))
            breakdown = outer_step(model, outer_opt, batch, config)
            epoch_losses.append(breakdown)

        val_stats = evaluate_split(model, dataset, "val", config.threshold)
        val_value, higher_is_better = _val_metric(val_stats, dataset.continuous)
        record = EpochRecord(
            epoch=epoch,
            cls=float(np.mean([b.cls for b in epoch_losses])),
            mi=float(np.mean([b.mi for b in epoch_losses])),
            con=float(np.mean([b.con for b in epoch_losses])),
            total=float(np.mean([b.total for b in epoch_losses])),
            val_metric=val_value,
            degenerate_rate=val_stats["degenerate_rate"],
        )
        history.append(record)

        improved = (
            best_val is None
            or (higher_is_better and val_value > best_val)
            or (not higher_is_better and val_value < best_val)
        )
        if improved:
            best_val = val_value
            best_epoch = epoch
            best_state = [(name, p.data.copy()) for name, p in model.named_params()]
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

    for (_, live), (_, saved) in zip(model.named_params(), best_state):
        live.data[...] = saved

    return TrainResult(
        model=model,
        history=history,
        mi_trace=mi_trace,
        best_epoch=best_epoch,
        best_val=float(best_val),
        higher_is_better=higher_is_better,
    )


def write_metrics_csv(path: str, result: TrainResult) -> None:
    rows = result.history_rows()
    columns = ["outer_step", "loss_cls", "loss_mi", "loss_con", "loss_total",
               "val_metric", "degenerate_rate"]
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                              for c in columns) + "\n")


def write_mi_trace_csv(path: str, result: TrainResult) -> None:
    with open(path, "w") as fh:
        fh.write("outer_step,mi_estimate\n")
        for epoch, value in result.mi_trace:
            fh.write(f"{epoch},{value!r}\n")
