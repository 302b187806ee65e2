"""Model assemblies: the subgraph-bottleneck model and the baselines.

Every model is one GCN encoder, a readout and an MLP classifier, built by
:class:`Predictor`, which owns the encoder and the only copy of the model
sizes; a subclass adds its readout and its forward passes. In GIB the one
encoder serves three parameter groups of the bi-level scheme: the
generator (encoder plus assignment MLP) and the classifier are trained in
the outer phase, the statistics-network head in the inner phase. The
attention classifier is the self-attentive aggregation baseline whose node
scores feed the top-k selections. Every model maps a :class:`GraphBatch`
to one output row per graph and shares the label handling of
:class:`Predictor`.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter
from typing import Optional, Sequence

import numpy as np

from .batch import GraphBatch, batches
from .graphs import Graph
from .mi import StatisticsNetwork
from .nn import AttentionHead, GcnEncoder, Mlp, frozen_copy
from .subgraph import SubgraphGenerator, subgraph_embedding
from .tensor import Tensor, constant


class Predictor:
    """The encoder -> readout -> classifier layout and the label handling the
    models share.

    ``__init__`` is the one model constructor and holds the only copy of the
    model sizes. It builds the label scale, the GCN encoder, the subclass's
    readout (``_build_readout``), the MLP classifier, then any part drawn
    after the classifier (``_build_heads``), in that order of RNG draws.
    ``PARTS`` names each parameterized part by its checkpoint prefix and its
    attribute path, in checkpoint order.

    ``outputs`` maps a batch to B x C logits, or to B x 1 outputs in
    standardized label units for continuous labels. The label mean and std
    live in the named constant ``label_scale``, so checkpoints carry them.
    """

    PARTS: tuple[tuple[str, str], ...]

    def __init__(
        self,
        feature_dim: int,
        num_classes: Optional[int],
        rng: np.random.Generator,
        hidden: int = 16,
        gcn_layers: int = 2,
        mlp_hidden: int = 16,
    ):
        self.num_classes = num_classes
        self.out_width = num_classes if num_classes is not None else 1
        self.label_scale = constant([[0.0, 1.0]])
        self.encoder = GcnEncoder([feature_dim] + [hidden] * gcn_layers, rng)
        self._build_readout(hidden, mlp_hidden, rng)
        self.classifier = Mlp([hidden, mlp_hidden, self.out_width], rng)
        self._build_heads(hidden, mlp_hidden, rng)

    def _build_readout(self, hidden: int, mlp_hidden: int, rng: np.random.Generator) -> None:
        """The parts between the encoder and the classifier; none by default."""

    def _build_heads(self, hidden: int, mlp_hidden: int, rng: np.random.Generator) -> None:
        """The parts drawn after the classifier; none by default."""

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
        """Every named tensor, the checkpoint's layout: ``PARTS`` in order, then
        the label scale."""
        named = [pair for prefix, path in self.PARTS
                 for pair in attrgetter(path)(self).named_params(prefix)]
        return named + [("label_scale", self.label_scale)]

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
    """Subgraph generator + classifier + statistics network, on one encoder."""

    PARTS = (("generator.encoder", "encoder"), ("generator.assign", "generator.assign_mlp"),
             ("classifier", "classifier"), ("statnet.head", "statnet.head"))

    def _build_readout(self, hidden: int, mlp_hidden: int, rng: np.random.Generator) -> None:
        self.generator = SubgraphGenerator(self.encoder, hidden, rng, mlp_hidden)

    def _build_heads(self, hidden: int, mlp_hidden: int, rng: np.random.Generator) -> None:
        self.statnet = StatisticsNetwork(self.encoder, hidden, rng, mlp_hidden)

    # parameter groups ------------------------------------------------------

    def phi2_params(self) -> list[Tensor]:
        """Statistics-network head parameters."""
        return self.statnet.head.params()

    def outer_params(self) -> list[Tensor]:
        """Generator (encoder + assignment MLP) and classifier parameters."""
        return self.encoder.params() + self.generator.assign_mlp.params() + self.classifier.params()

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

    PARTS = (("att.encoder", "encoder"), ("att.head", "attention"),
             ("att.classifier", "classifier"))

    def _build_readout(self, hidden: int, mlp_hidden: int, rng: np.random.Generator) -> None:
        self.attention = AttentionHead(hidden, mlp_hidden, rng)

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


class MeanPoolClassifier(Predictor):
    """GCN encoder + mean readout + MLP classifier (plain aggregation)."""

    PARTS = (("pool.encoder", "encoder"), ("pool.classifier", "classifier"))

    def outputs(self, batch: GraphBatch) -> Tensor:
        return self.classifier.forward(batch.mean(self.encoder.forward(batch)))
