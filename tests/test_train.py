"""Bi-level training: losses, phase ownership, determinism, checkpoints."""

import math
import os

import numpy as np
import pytest

import gib.batch
from gib.checkpoint import load_params, restore_into, save_params
from gib.experiments import build_line_dataset
from gib.graphs import (
    ConfigError,
    Dataset,
    MotifConfig,
    add_noise_edges,
    gen_planted_motif_dataset,
    random_splits,
)
from gib.models import GibModel
from gib.nn import Mlp
from gib.optim import make_optimizer
from gib.tensor import Tensor
from gib.train import (
    TrainConfig,
    classification_loss,
    evaluate_split,
    outer_step,
    train,
    write_metrics_csv,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def tiny_dataset(seed=1, n=24, continuous=False):
    cfg = MotifConfig(
        num_graphs=n,
        background_nodes=(8, 12),
        edge_prob=0.25,
        seed=seed,
        motif_kinds=("clique",) if continuous else ("clique", "cycle"),
        motif_sizes=(4, 5) if continuous else None,
        label_rule="size" if continuous else "kind",
    )
    ds = gen_planted_motif_dataset(cfg)
    ds.splits = random_splits(n, (0.7, 0.1, 0.2), seed=seed)
    return ds


class TestClassificationLoss:
    def test_uniform_logits_give_log_classes(self):
        mlp = Mlp([2, 2], rng())
        mlp.weights[0].data[...] = 0.0
        mlp.biases[0].data[...] = 0.0
        loss = classification_loss(mlp, Tensor([[1.0, 2.0]]), 0, 2)
        assert float(loss.data) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_exact_regression_hit_is_zero(self):
        mlp = Mlp([1, 1], rng())
        mlp.weights[0].data[...] = [[1.0]]
        mlp.biases[0].data[...] = 0.0
        loss = classification_loss(mlp, Tensor([[3.5]]), 3.5, None)
        assert float(loss.data) == 0.0

    def test_cross_entropy_decays_with_margin(self):
        mlp = Mlp([1, 2], rng())
        mlp.weights[0].data[...] = [[1.0, -1.0]]
        mlp.biases[0].data[...] = 0.0
        previous = None
        for margin in (0.5, 2.0, 8.0):
            loss = float(classification_loss(mlp, Tensor([[margin]]), 0, 2).data)
            if previous is not None:
                assert loss < previous
            previous = loss
        assert previous < 1e-3

    def test_label_out_of_range_rejected(self):
        mlp = Mlp([2, 2], rng())
        with pytest.raises(ValueError, match="out of range"):
            classification_loss(mlp, Tensor([[0.0, 0.0]]), 2, 2)


class TestOuterStep:
    def test_loss_breakdown_identity(self):
        ds = tiny_dataset()
        config = TrainConfig(batch_size=8, seed=0)
        model = GibModel(ds.graphs[0].features.shape[1], ds.num_classes, rng(0))
        opt = make_optimizer("adam", model.outer_params(), 1e-3)
        breakdown = outer_step(model, opt, ds.subset("train")[:6], config)
        expected = breakdown.cls + breakdown.beta * breakdown.mi + breakdown.con_weight * breakdown.con
        assert breakdown.total == expected

    def test_statistics_head_untouched(self):
        ds = tiny_dataset()
        config = TrainConfig(batch_size=8, seed=0, debug_freeze_checks=True)
        model = GibModel(ds.graphs[0].features.shape[1], ds.num_classes, rng(0))
        opt = make_optimizer("adam", model.outer_params(), 1e-3)
        before = [p.data.copy() for p in model.phi2_params()]
        outer_step(model, opt, ds.subset("train")[:6], config)
        for p, b in zip(model.phi2_params(), before):
            assert np.array_equal(p.data, b)

    def test_generator_and_classifier_do_change(self):
        ds = tiny_dataset()
        config = TrainConfig(batch_size=8, seed=0)
        model = GibModel(ds.graphs[0].features.shape[1], ds.num_classes, rng(0))
        opt = make_optimizer("adam", model.outer_params(), 1e-3)
        before = [p.data.copy() for p in model.outer_params()]
        outer_step(model, opt, ds.subset("train")[:6], config)
        assert any(not np.array_equal(p.data, b) for p, b in zip(model.outer_params(), before))


class TestEvaluateSplit:
    @pytest.mark.parametrize("continuous", [False, True])
    def test_batch_size_does_not_change_the_metrics(self, continuous, monkeypatch):
        ds = tiny_dataset(continuous=continuous)
        ds.splits = random_splits(24, (0.3, 0.5, 0.2), seed=2)
        model = GibModel(ds.graphs[0].features.shape[1], ds.num_classes, rng(3))
        whole = evaluate_split(model, ds, "val", 0.5)
        for size in (1, 5):
            monkeypatch.setattr(gib.batch, "EVAL_BATCH", size)
            chunked = evaluate_split(model, ds, "val", 0.5)
            assert chunked.keys() == whole.keys()
            for key, value in whole.items():
                assert chunked[key] == pytest.approx(value, abs=1e-12), key


class TestTrain:
    def test_seed_reproducibility(self):
        ds = tiny_dataset()
        config = TrainConfig(outer_steps=3, inner_steps=4, batch_size=8, seed=5)
        h1 = train(ds, config).history
        h2 = train(ds, config).history
        assert [r.total for r in h1] == [r.total for r in h2]
        assert [r.val_metric for r in h1] == [r.val_metric for r in h2]

    def test_freeze_contracts_hold_in_debug_mode(self):
        ds = tiny_dataset()
        config = TrainConfig(outer_steps=2, inner_steps=3, batch_size=8, seed=3,
                             debug_freeze_checks=True)
        train(ds, config)  # raises AssertionError on any phase violation

    def test_loss_decreases_in_trend_without_regularizers(self):
        ds = tiny_dataset(n=40)
        config = TrainConfig(outer_steps=40, batch_size=16, seed=1, lr_outer=3e-3,
                             use_mi=False, use_con=False, patience=100)
        history = train(ds, config).history
        first = np.mean([r.cls for r in history[:4]])
        last = np.mean([r.cls for r in history[-4:]])
        assert last < first

    def test_ablation_without_connectivity_runs(self):
        ds = tiny_dataset()
        config = TrainConfig(outer_steps=2, inner_steps=3, batch_size=8, seed=2,
                             use_con=False)
        result = train(ds, config)
        for record in result.history:
            assert record.total == pytest.approx(
                record.cls + config.beta * record.mi, abs=1e-12
            )

    def test_continuous_labels_train_against_standardized_targets(self):
        ds = tiny_dataset(continuous=True)
        config = TrainConfig(outer_steps=2, inner_steps=3, batch_size=8, seed=4)
        result = train(ds, config)
        labels = [float(ds.graphs[i].label) for i in ds.splits["train"]]
        assert result.model.label_mean == pytest.approx(np.mean(labels))
        pred = result.model.predict(ds.graphs[0])
        assert np.isfinite(pred)

    def test_per_batch_inner_mode(self):
        ds = tiny_dataset()
        config = TrainConfig(outer_steps=2, inner_steps=2, batch_size=8, seed=6,
                             per_batch_inner=True, debug_freeze_checks=True)
        result = train(ds, config)
        # one inner run per outer batch instead of one per epoch
        assert len(result.mi_trace) > len(result.history)

    def test_single_step_smoke_emits_all_artifacts(self, tmp_path):
        from gib.train import write_mi_trace_csv

        ds = tiny_dataset(n=8)
        ds.splits = random_splits(8, (0.7, 0.15, 0.15), seed=0)
        config = TrainConfig(outer_steps=1, inner_steps=1, batch_size=4, seed=0)
        result = train(ds, config)
        assert len(result.history) == 1 and len(result.mi_trace) == 1
        write_metrics_csv(str(tmp_path / "m.csv"), result)
        write_mi_trace_csv(str(tmp_path / "t.csv"), result)
        save_params(str(tmp_path / "c.bin"),
                    [(n, p.data) for n, p in result.model.named_params()])
        for name in ("m.csv", "t.csv", "c.bin"):
            assert os.path.getsize(str(tmp_path / name)) > 0

    def test_non_finite_loss_aborts_with_diagnostics(self):
        ds = tiny_dataset()
        config = TrainConfig(outer_steps=1, inner_steps=2, batch_size=8, seed=0)
        model = GibModel(ds.graphs[0].features.shape[1], ds.num_classes, rng(0))
        model.classifier.weights[0].data[0, 0] = np.nan
        opt = make_optimizer("adam", model.outer_params(), 1e-3)
        with pytest.raises(FloatingPointError, match="diverged"):
            outer_step(model, opt, ds.subset("train")[:4], config)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(beta=-1.0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(inner_steps=0).validate()
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=1).validate()

    @pytest.mark.parametrize("size", [1, 0, -4])
    def test_inner_batch_below_two_named(self, size):
        # a cyclic shift of one pair pairs it with itself, so the MI term reads 0
        with pytest.raises(ConfigError, match="inner_batch_size"):
            TrainConfig(inner_batch_size=size).validate()
        TrainConfig(inner_batch_size=2).validate()
        TrainConfig(inner_batch_size=None).validate()

    @pytest.mark.parametrize("threshold", [1.5, 1.0, 0.0, -0.2, float("nan")])
    def test_threshold_outside_unit_interval_named(self, threshold):
        with pytest.raises(ConfigError, match="threshold"):
            TrainConfig(threshold=threshold).validate()
        TrainConfig(threshold=0.3).validate()

    def test_mi_with_one_train_graph_names_the_split(self):
        ds = tiny_dataset()
        ds.splits = {"train": [0], "val": [1, 2], "test": list(range(3, 24))}
        with pytest.raises(ConfigError, match="'train'"):
            train(ds, TrainConfig(outer_steps=1, inner_steps=1, batch_size=8))
        # without the estimate one training graph is enough
        train(ds, TrainConfig(outer_steps=1, batch_size=8, use_mi=False))

    def test_metrics_csv_shape(self, tmp_path):
        ds = tiny_dataset()
        config = TrainConfig(outer_steps=3, inner_steps=2, batch_size=8, seed=7)
        result = train(ds, config)
        path = str(tmp_path / "metrics.csv")
        write_metrics_csv(path, result)
        lines = open(path).read().splitlines()
        assert lines[0].startswith("outer_step,loss_cls,loss_mi,loss_con,loss_total")
        assert len(lines) == len(result.history) + 1

    def test_line_graph_history_pinned_bitwise(self):
        # recorded with every leaf on the tape and zero-filled gradient
        # buffers; leaving constants off the tape must not move a single bit
        motif = gen_planted_motif_dataset(MotifConfig(num_graphs=12, background_nodes=(6, 8), seed=3))
        noise_rng = rng(4)
        graphs, masks = [], []
        for g in motif.graphs:
            noisy, mask = add_noise_edges(g, 0.3, int(noise_rng.integers(2**32)))
            graphs.append(noisy)
            masks.append(np.nonzero(mask)[0].tolist())
        ds = build_line_dataset(Dataset(graphs, motif.num_classes, masks=masks))
        ds.splits = random_splits(len(ds.graphs), (0.6, 0.2, 0.2), seed=5)
        config = TrainConfig(outer_steps=3, inner_steps=4, batch_size=4, seed=6, patience=100)
        history = train(ds, config).history
        assert [(r.cls, r.mi, r.con, r.total, r.val_metric, r.degenerate_rate)
                for r in history] == [
            (0.4963187472104016, -0.15867542311042288, 1.0185094986587728,
             1.498960703558132, 0.5, 1.0),
            (0.4151750196796631, -0.04137858788822435, 1.0147978870554661,
             1.4258350479463067, 0.5, 1.0),
            (0.36274942432256563, -0.06769138720309892, 1.0115173795522479,
             1.3674976651545037, 0.5, 1.0),
        ]


class TestCheckpoints:
    def test_round_trip_reproduces_validation_bitwise(self, tmp_path):
        ds = tiny_dataset()
        config = TrainConfig(outer_steps=3, inner_steps=2, batch_size=8, seed=8)
        result = train(ds, config)
        val_before = evaluate_split(result.model, ds, "val", 0.5)

        path = str(tmp_path / "ckpt.bin")
        save_params(path, [(n, p.data) for n, p in result.model.named_params()])

        fresh = GibModel(ds.graphs[0].features.shape[1], ds.num_classes, rng(123))
        restore_into(fresh.named_params(), load_params(path))
        val_after = evaluate_split(fresh, ds, "val", 0.5)
        assert val_before == val_after

    def test_corrupt_header_rejected(self, tmp_path):
        path = str(tmp_path / "bad.bin")
        with open(path, "wb") as fh:
            fh.write(b"not a checkpoint")
        with pytest.raises(IOError, match="header"):
            load_params(path)

    def test_truncated_file_names_path_and_parameter(self, tmp_path):
        path = str(tmp_path / "ckpt.bin")
        save_params(path, [("first", np.ones((2, 2))), ("second", np.ones((4, 4)))])
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) - 40])
        with pytest.raises(IOError, match="truncated") as info:
            load_params(path)
        assert path in str(info.value) and "'second'" in str(info.value)

    def test_missing_parameter_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.bin")
        save_params(path, [("only.one", np.zeros((2, 2)))])
        model = GibModel(3, 2, rng(1))
        with pytest.raises(IOError, match="missing"):
            restore_into(model.named_params(), load_params(path))
