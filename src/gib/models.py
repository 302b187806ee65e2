"""Model assemblies: the subgraph-bottleneck model and the baselines.

Parameter groups follow the roles in the bi-level scheme: the generator's
encoder and assignment MLP plus the classifier are trained in the outer
phase, the statistics-network head in the inner phase. The attention
classifier is the self-attentive aggregation baseline whose node scores feed
the top-k selections. Every model maps a :class:`GraphBatch` to one output
row per graph and shares the label handling of :class:`Predictor`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .batch import GraphBatch, batches
from .graphs import Graph
from .mi import StatisticsNetwork
from .nn import AttentionHead, GcnEncoder, Mlp, frozen_copy
from .subgraph import SubgraphGenerator, subgraph_embedding
from .tensor import Tensor, constant


class Predictor:
    """Label handling shared by the models.

    ``outputs`` maps a batch to B x C logits, or to B x 1 outputs in
    standardized label units for continuous labels. The label mean and std
    live in the named constant ``label_scale``, so checkpoints carry them.
    """

    def __init__(self, num_classes: Optional[int]):
        self.num_classes = num_classes
        self.out_width = num_classes if num_classes is not None else 1
        self.label_scale = constant([[0.0, 1.0]])

    @property
    def label_mean(self) -> float:
        return float(self.label_scale.data[0, 0])

    @property
    def label_std(self) -> float:
        return float(self.label_scale.data[0, 1])

    def fit_label_scale(self, labels: Sequence[float | int]) -> None:
        """Standardize against the mean and std of these (training) labels,
        the std floored away from zero."""
        values = np.array([float(label) for label in labels])
        self.label_scale.data[0] = values.mean(), max(values.std(), 1e-8)

    def outputs(self, batch: GraphBatch) -> Tensor:
        raise NotImplementedError

    def named_params(self) -> list[tuple[str, Tensor]]:
        raise NotImplementedError

    def params(self) -> list[Tensor]:
        """The trained parameters: every named one but the label scale."""
        return [p for name, p in self.named_params() if name != "label_scale"]

    @cached_property
    def frozen(self) -> Predictor:
        """This model with its named parameters as constants sharing their arrays,
        built once: every pass that trains nothing runs through it."""
        return frozen_copy(self, [p for _, p in self.named_params()])

    def standardize_label(self, label: float | int) -> float | int:
        if self.num_classes is not None:
            return label
        return (float(label) - self.label_mean) / self.label_std

    def decode(self, out: np.ndarray) -> list[float | int]:
        """One prediction per output row: a class index or a label value."""
        if self.num_classes is None:
            return [float(v) * self.label_std + self.label_mean for v in out[:, 0]]
        return [int(c) for c in np.argmax(out, axis=1)]

    def predict_all(self, graphs: Sequence[Graph]) -> list[float | int]:
        """One prediction per graph."""
        out: list[float | int] = []
        for batch in batches(graphs):
            out += self.decode(self.frozen.outputs(batch).data)
        return out


class GibModel(Predictor):
    """Subgraph generator + classifier + statistics network."""

    def __init__(
        self,
        feature_dim: int,
        num_classes: Optional[int],
        rng: np.random.Generator,
        hidden: int = 16,
        gcn_layers: int = 2,
        mlp_hidden: int = 16,
    ):
        super().__init__(num_classes)
        self.generator = SubgraphGenerator(
            feature_dim, hidden, rng, gcn_layers=gcn_layers, mlp_hidden=mlp_hidden
        )
        self.classifier = Mlp([hidden, mlp_hidden, self.out_width], rng)
        self.statnet = StatisticsNetwork(self.generator.encoder, hidden, rng, hidden=mlp_hidden)

    # parameter groups ------------------------------------------------------

    def phi2_params(self) -> list[Tensor]:
        """Statistics-network head parameters."""
        return self.statnet.head.params()

    def outer_params(self) -> list[Tensor]:
        """Generator (encoder + assignment MLP) and classifier parameters."""
        generator = self.generator
        return generator.encoder.params() + generator.assign_mlp.params() + self.classifier.params()

    def named_params(self) -> list[tuple[str, Tensor]]:
        return (
            self.generator.named_params()
            + self.classifier.named_params("classifier")
            + self.statnet.named_params()
            + [("label_scale", self.label_scale)]
        )

    # forward pieces ----------------------------------------------------------

    def forward(self, batch: GraphBatch) -> tuple[Tensor, Tensor, Tensor]:
        """Returns (assignment S, node embeddings), both stacked over the
        batch's nodes, and the B x d subgraph embeddings."""
        s, x = self.generator.assignment(batch)
        return s, x, subgraph_embedding(s, x, batch)

    def forward_graph(self, graph: Graph) -> tuple[Tensor, Tensor, Tensor]:
        """Returns (assignment S, node embeddings, subgraph embedding)."""
        return self.forward(graph.as_batch)

    def logits(self, sub_emb: Tensor) -> Tensor:
        return self.classifier.forward(sub_emb)

    def outputs(self, batch: GraphBatch) -> Tensor:
        return self.logits(self.forward(batch)[2])

    def assignment_matrix(self, graph: Graph) -> np.ndarray:
        s, _ = self.frozen.generator.assignment(graph.as_batch)
        return s.data


class AttentionClassifier(Predictor):
    """GCN encoder + self-attentive readout + MLP classifier.

    The readout's node scores are exposed so top-k node selections can be
    carved out of a trained model.
    """

    def __init__(
        self,
        feature_dim: int,
        num_classes: Optional[int],
        rng: np.random.Generator,
        hidden: int = 16,
        gcn_layers: int = 2,
        mlp_hidden: int = 16,
    ):
        super().__init__(num_classes)
        widths = [feature_dim] + [hidden] * gcn_layers
        self.encoder = GcnEncoder(widths, rng)
        self.attention = AttentionHead(hidden, mlp_hidden, rng)
        self.classifier = Mlp([hidden, mlp_hidden, self.out_width], rng)

    def forward(self, batch: GraphBatch) -> tuple[Tensor, Tensor]:
        """Returns (B output rows, attention scores 1 x N)."""
        x = self.encoder.forward(batch)
        graph_emb, scores = self.attention.forward(x, batch)
        return self.classifier.forward(graph_emb), scores

    def outputs(self, batch: GraphBatch) -> Tensor:
        return self.forward(batch)[0]

    def node_scores(self, graph: Graph) -> np.ndarray:
        _, scores = self.frozen.forward(graph.as_batch)
        return scores.data.reshape(-1)

    def named_params(self) -> list[tuple[str, Tensor]]:
        return (
            self.encoder.named_params("att.encoder")
            + self.attention.named_params("att.head")
            + self.classifier.named_params("att.classifier")
            + [("label_scale", self.label_scale)]
        )


class MeanPoolClassifier(Predictor):
    """GCN encoder + mean readout + MLP classifier (plain aggregation)."""

    def __init__(
        self,
        feature_dim: int,
        num_classes: Optional[int],
        rng: np.random.Generator,
        hidden: int = 16,
        gcn_layers: int = 2,
        mlp_hidden: int = 16,
    ):
        super().__init__(num_classes)
        widths = [feature_dim] + [hidden] * gcn_layers
        self.encoder = GcnEncoder(widths, rng)
        self.classifier = Mlp([hidden, mlp_hidden, self.out_width], rng)

    def outputs(self, batch: GraphBatch) -> Tensor:
        return self.classifier.forward(batch.mean(self.encoder.forward(batch)))

    def named_params(self) -> list[tuple[str, Tensor]]:
        return (
            self.encoder.named_params("pool.encoder")
            + self.classifier.named_params("pool.classifier")
            + [("label_scale", self.label_scale)]
        )
