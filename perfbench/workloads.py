"""The benchmark's workloads: inputs from a seed, one call, checks.

Each workload builds its inputs from the workload seed alone (set-up), then
makes the same call again and again in a closed loop. Every call does
a fixed amount of work: early stopping is disabled by a patience above the
epoch count, so a faster program finishes the same epochs sooner.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import astuple, dataclass
from typing import Any

import numpy as np

# Functions are looked up on their modules at call time, never bound here by
# a from-import, so that the wrappers the tracer puts on the modules see the
# benchmark's own calls too. (``gib.train`` as an attribute is the function.)
case_study = importlib.import_module("gib.case_study")
experiments = importlib.import_module("gib.experiments")
graphs = importlib.import_module("gib.graphs")
training = importlib.import_module("gib.train")

# the training settings of acceptance criterion 6
GRAPH_TRAIN = dict(beta=0.1, inner_steps=15, batch_size=32, lr_inner=1e-3, lr_outer=3e-3)


def _seeds(seed: int, k: int) -> list[int]:
    """k independent child seeds of the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


def _chance(dataset, split: str) -> float:
    """Accuracy of always predicting the split's most common label."""
    labels = [int(dataset.graphs[i].label) for i in dataset.splits[split]]
    return max(labels.count(c) for c in set(labels)) / len(labels)


def _all_finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(values, dtype=np.float64))))


@dataclass(frozen=True)
class LineDenoise:
    """``run_denoising`` (attention top-half and GIB) on noisy planted-motif
    graphs turned into line graphs."""

    name = "line_denoise"
    work_unit = "graph-epochs"
    marks = [("gib.train:train", "enter"), ("gib.train:evaluate_split", "exit")]
    warmup_intervals = 0
    mark_call_end = False
    num_graphs: int = 120
    epochs: int = 60  # as in acceptance criterion 6; fewer leave GIB at chance on some seeds
    noise = 0.3  # share of noise edges added to each graph

    def build(self, seed: int):
        data_seed, noise_seed, split_seed, train_seed = _seeds(seed, 4)
        base = graphs.gen_planted_motif_dataset(graphs.MotifConfig(
            num_graphs=self.num_graphs, motif_kinds=("clique", "cycle"), motif_size=5,
            background_nodes=(15, 25), edge_prob=0.25, seed=data_seed,
        ))
        rng = np.random.default_rng(noise_seed)
        noisy_graphs, masks = [], []
        for g in base.graphs:
            noisy, mask = graphs.add_noise_edges(g, self.noise, int(rng.integers(2**32)))
            noisy_graphs.append(noisy)
            masks.append(np.nonzero(mask)[0].tolist())
        dataset = graphs.Dataset(noisy_graphs, base.num_classes, masks=masks, name="noisy_motif")
        # a larger validation split than criterion 6's 5% steadies the choice
        # of the best epoch, and with it the accuracy check
        dataset.splits = graphs.random_splits(self.num_graphs, (0.6, 0.15, 0.25), seed=split_seed)
        # the line graphs are built here to count as set-up and to size the
        # work; run_denoising builds its own copy inside every call
        line = experiments.build_line_dataset(dataset)
        config = training.TrainConfig(seed=train_seed, outer_steps=self.epochs,
                             patience=self.epochs + 1, **GRAPH_TRAIN)
        return dataset, config, line

    def work_per_call(self, inputs) -> int:
        # the attention baseline and GIB each train `epochs` epochs
        return len(inputs[0].splits["train"]) * self.epochs * 2

    def call(self, inputs):
        dataset, config, _ = inputs
        return experiments.run_denoising(dataset, config, methods=("att05", "gib"))

    def fingerprint(self, runs) -> Any:
        return [astuple(r) for r in runs]

    def check(self, inputs, runs) -> list[str]:
        _, _, line = inputs
        problems = []
        chance = _chance(line, "test")
        for r in runs:
            if not _all_finite([r.recall, r.precision, r.accuracy, r.empty_rate]):
                problems.append(f"{r.method}: scores not finite")
            if not r.accuracy > chance:
                problems.append(f"{r.method}: accuracy {r.accuracy:.3f} not above chance {chance:.3f}")
        return problems


@dataclass(frozen=True)
class CaseStudy:
    """``run_case_study`` on the toy channel X -> X + sigma * noise."""

    name = "case_study"
    work_unit = "pair-steps"
    marks = [("gib.case_study:sample_pairs", "enter")]
    warmup_intervals = 1  # the first sample feeds the warmup, not an epoch
    mark_call_end = True
    epochs: int = 20
    inner_steps: int = 30
    samples_per_epoch: int = 20000
    inner_batch: int = 4096
    hidden = 64
    warmup_steps: int = 300

    def build(self, seed: int):
        return case_study.CaseStudyConfig(
            epochs=self.epochs, inner_steps=self.inner_steps,
            samples_per_epoch=self.samples_per_epoch, inner_batch=self.inner_batch,
            hidden=self.hidden, warmup_steps=self.warmup_steps, seed=_seeds(seed, 1)[0],
        )

    def work_per_call(self, config) -> int:
        steps = config.warmup_steps + config.epochs * config.inner_steps
        return steps * min(config.inner_batch, config.samples_per_epoch)

    def call(self, config):
        return case_study.run_case_study(config)

    def fingerprint(self, trace) -> Any:
        return [astuple(r) for r in trace]

    def check(self, config, trace) -> list[str]:
        problems = []
        if len(trace) != config.epochs:
            problems.append(f"trace has {len(trace)} epochs, expected {config.epochs}")
        if not _all_finite([astuple(r) for r in trace]):
            problems.append("trace is not finite")
        last = trace[-1]
        # acceptance criterion 3's band around the oracle
        low, high = last.oracle_mi - 0.2, last.oracle_mi + 0.1
        if not (math.isfinite(last.mi_estimate) and low <= last.mi_estimate <= high):
            problems.append(f"final estimate {last.mi_estimate:.4f} outside [{low:.4f}, {high:.4f}]")
        return problems


WORKLOADS = {w.name: w for w in (LineDenoise(), CaseStudy())}
