"""Per-layer metrics of the traced run, and what each one should move.

Every metric is computed for one workload call and the run reports the median
over its traced calls. "Per epoch" divides the call's total by the epochs
the call runs; the ``graphs`` metrics are per set-up instead, because input
generation happens there, except ``graphs.to_line_graph_call_s``, the line
graphs that ``run_denoising`` rebuilds in every call. A layer a workload never enters reads 0.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    how: str  # "span", "self", "count", "ratio", "mean", "call", "setup"
    source: tuple[str, ...]
    moves: str  # the end-to-end metric and workload it should move


SEL = "epoch_s_p50/work_per_s on line_denoise"
LAYER_METRICS = [
    LayerMetric("tensor.nodes_per_epoch", "count/epoch", "lower", "count", ("tensor.nodes.calls",),
                SEL + "; flat on case_study"),
    LayerMetric("tensor.backward_calls", "count/epoch", "lower", "count", ("tensor.backward.calls",),
                SEL + "; flat on case_study"),
    LayerMetric("tensor.backward_s", "s/epoch", "lower", "span", ("tensor.backward",),
                SEL + "; flat on case_study"),
    LayerMetric("tensor.tape_len_mean", "count", "lower", "mean", ("tensor.tape_nodes", "tensor.tapes"),
                SEL + "; flat on case_study"),
    LayerMetric("nn.gcn_forward_calls", "count/epoch", "lower", "count", ("nn.gcn_forward.calls",),
                "epoch_s_p50 on line_denoise"),
    LayerMetric("nn.gcn_forward_s", "s/epoch", "lower", "span", ("nn.gcn_forward",),
                "epoch_s_p50 on line_denoise"),
    LayerMetric("nn.gcn_forward_useful", "ratio", "higher", "ratio",
                ("nn.gcn_forward", "nn.gcn_forward.calls"), "epoch_s_p50 on line_denoise"),
    LayerMetric("nn.normalized_adjacency_calls", "count/epoch", "lower", "count",
                ("nn.normalized_adjacency.calls",), "epoch_s_p50 on line_denoise"),
    LayerMetric("nn.normalized_adjacency_s", "s/epoch", "lower", "span", ("nn.normalized_adjacency",),
                "epoch_s_p50 on line_denoise"),
    LayerMetric("nn.normalized_adjacency_useful", "ratio", "higher", "ratio",
                ("nn.normalized_adjacency", "nn.normalized_adjacency.calls"),
                "epoch_s_p50 on line_denoise"),
    LayerMetric("nn.mlp_forward_s", "s/epoch", "lower", "span", ("nn.mlp_forward",),
                "epoch_s_p50/work_per_s on case_study"),
    LayerMetric("subgraph.connectivity_loss_s", "s/epoch", "lower", "span",
                ("subgraph.connectivity_loss",), "epoch_s_p50 on line_denoise"),
    LayerMetric("subgraph.discretize_s", "s/epoch", "lower", "span", ("subgraph.discretize",),
                "epoch_s_p50 on line_denoise"),
    LayerMetric("mi.inner_maximize_s", "s/epoch", "lower", "span", ("mi.inner_maximize",),
                "epoch_s_p50 on line_denoise"),
    LayerMetric("mi.inner_steps", "count/epoch", "lower", "count", ("mi.inner_steps",),
                "epoch_s_p50 on line_denoise (fixed by the config)"),
    LayerMetric("mi.batch_loss_s", "s/epoch", "lower", "span", ("mi.batch_loss",),
                "epoch_s_p50 on line_denoise"),
    LayerMetric("optim.step_calls", "count/epoch", "lower", "count", ("optim.step.calls",),
                "epoch_s_p50 on both workloads (small)"),
    LayerMetric("optim.step_s", "s/epoch", "lower", "span", ("optim.step",),
                "epoch_s_p50 on both workloads (small)"),
    LayerMetric("train.inner_phase_s", "s/epoch", "lower", "span", ("train.inner_phase",),
                "epoch_s_p50 on line_denoise"),
    LayerMetric("train.cached_embeddings_s", "s/epoch", "lower", "span", ("train.cached_embeddings",),
                "epoch_s_p50 on line_denoise"),
    LayerMetric("train.outer_step_self_s", "s/epoch", "lower", "self", ("train.outer_step",),
                "epoch_s_p50 on line_denoise"),
    LayerMetric("train.evaluate_split_s", "s/epoch", "lower", "span", ("train.evaluate_split",),
                "epoch_s_p50 on line_denoise"),
    LayerMetric("experiments.train_baseline_s", "s/call", "lower", "call",
                ("experiments.train_baseline",), "run_s on line_denoise"),
    LayerMetric("graphs.gen_planted_motif_dataset_s", "s/setup", "lower", "setup",
                ("graphs.gen_planted_motif_dataset",), "setup_s on line_denoise"),
    LayerMetric("graphs.add_noise_edges_s", "s/setup", "lower", "setup", ("graphs.add_noise_edges",),
                "setup_s on line_denoise"),
    LayerMetric("graphs.to_line_graph_s", "s/setup", "lower", "setup", ("graphs.to_line_graph",),
                "setup_s on line_denoise"),
    LayerMetric("graphs.to_line_graph_call_s", "s/call", "lower", "call", ("graphs.to_line_graph",),
                "run_s on line_denoise (run_denoising rebuilds the line graphs in every call)"),
    LayerMetric("case_study.inner_ascend_s", "s/epoch", "lower", "span", ("case_study.inner_ascend",),
                "epoch_s_p50/work_per_s on case_study"),
    LayerMetric("case_study.dv_estimate_s", "s/epoch", "lower", "span", ("case_study.dv_estimate",),
                "epoch_s_p50/work_per_s on case_study"),
    LayerMetric("case_study.mi_oracle_s", "s/epoch", "lower", "span", ("case_study.mi_oracle",),
                "epoch_s_p50/work_per_s on case_study"),
    LayerMetric("case_study.sample_pairs_s", "s/epoch", "lower", "span", ("case_study.sample_pairs",),
                "epoch_s_p50/work_per_s on case_study"),
    LayerMetric("trace.overhead_s", "s/call", "lower", "overhead", (),
                "none: traced minus untraced run_s in the same process"),
]


def window_values(
    metric: LayerMetric,
    spans: dict[str, tuple[float, float]],
    counts: dict[str, int],
    distinct: dict[str, int],
    epochs: int,
) -> float:
    """The metric over one window of the trace (one call or one set-up)."""
    if metric.how == "span":
        return spans.get(metric.source[0], (0.0, 0.0))[0] / epochs
    if metric.how == "self":
        return spans.get(metric.source[0], (0.0, 0.0))[1] / epochs
    if metric.how in ("call", "setup"):
        return spans.get(metric.source[0], (0.0, 0.0))[0]
    if metric.how == "count":
        return counts.get(metric.source[0], 0) / epochs
    if metric.how == "ratio":
        calls = counts.get(metric.source[1], 0)
        return distinct.get(metric.source[0], 0) / calls if calls else 0.0
    if metric.how == "mean":
        n = counts.get(metric.source[1], 0)
        return counts.get(metric.source[0], 0) / n if n else 0.0
    raise ValueError(f"{metric.name}: no window value for {metric.how!r}")
