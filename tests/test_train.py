"""Bi-level training: losses, phase ownership, determinism, checkpoints."""

import importlib
import math
import os
import re
from dataclasses import astuple

import numpy as np
import pytest

import gib.batch
from gib import tensor as T
from gib.batch import GraphBatch
from gib.case_study import CaseStudyConfig, run_case_study
from gib.checkpoint import MAGIC, load_params, restore_into, save_params
from gib.experiments import build_line_dataset, train_baseline
from gib.graphs import (
    ConfigError,
    Dataset,
    MotifConfig,
    add_noise_edges,
    gen_planted_motif_dataset,
    random_splits,
)
from gib.metrics import motif_property_bias, write_csv
from gib.mi import inner_maximize, mi_batch_loss
from gib.models import AttentionClassifier, GibModel, MeanPoolClassifier
from gib.nn import Mlp
from gib.optim import Adam
from gib.subgraph import connectivity_loss, discretize
from gib.tensor import Tensor
from gib.train import (
    METRICS_COLUMNS,
    TrainConfig,
    _cached_embeddings,
    classification_loss,
    evaluate_split,
    output_loss,
    outer_step,
    train,
)


def rng(seed=0):
    return np.random.default_rng(seed)


def check_phase_freezes(monkeypatch) -> dict[str, int]:
    """Wrap both phases of ``train``: the inner phase must leave the generator
    and classifier as they were, the outer step the statistics head. Returns
    the count of checked calls per phase."""
    module = importlib.import_module("gib.train")  # gib.train is the function
    calls = {"inner": 0, "outer": 0}

    def frozen(phase, name, group):
        def checked(model, *args):
            before = [p.data.copy() for p in group(model)]
            out = phase(model, *args)
            assert all(np.array_equal(p.data, b) for p, b in zip(group(model), before)), name
            calls[name] += 1
            return out
        return checked

    monkeypatch.setattr(module, "run_inner_phase",
                        frozen(module.run_inner_phase, "inner", GibModel.outer_params))
    monkeypatch.setattr(module, "outer_step",
                        frozen(module.outer_step, "outer", GibModel.phi2_params))
    return calls


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


def _reference_adam(params, grads_per_step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The per-parameter Adam expressions, on copies of ``params``."""
    values = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        b1t, b2t = 1.0 - b1**t, 1.0 - b2**t
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * g**2
            values[i] = values[i] - lr * (m[i] / b1t) / (np.sqrt(v[i] / b2t) + eps)
    return values


class TestAdam:
    def test_flat_update_is_bitwise_the_per_parameter_one(self):
        r = rng(3)
        # a matrix, a row, a 0-d scalar (as the case study's rho) and a
        # matrix whose gradient is a transposed view
        shapes = [(4, 3), (1, 3), (), (3, 2)]
        start = [r.normal(size=shape) for shape in shapes]
        steps = []
        for _ in range(6):
            grads = [r.normal(size=shape) for shape in shapes]
            grads[3] = r.normal(size=(2, 3)).T
            steps.append(grads)
        params = [Tensor(a.copy()) for a in start]
        opt = Adam(params, 0.01)
        for grads in steps:
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
        for p, expected in zip(params, _reference_adam(start, steps, 0.01)):
            assert p.data.shape == expected.shape
            assert p.data.tobytes() == expected.tobytes()

    def test_parameter_without_gradient_raises_before_any_update(self):
        params = [Tensor(np.ones((2, 2))), Tensor(np.ones(3))]
        opt = Adam(params, 0.1)
        params[0].grad, params[1].grad = np.ones((2, 2)), np.ones(3)
        opt.step()
        before = ([p.data.copy() for p in params], opt.m.copy(), opt.v.copy(), opt.t)
        params[1].grad = None
        with pytest.raises(ValueError, match=r"^Adam step: parameter 1 \(shape \(3,\)\) has no gradient$"):
            opt.step()
        for p, value in zip(params, before[0]):
            np.testing.assert_array_equal(p.data, value)
        np.testing.assert_array_equal(opt.m, before[1])
        np.testing.assert_array_equal(opt.v, before[2])
        assert opt.t == before[3] == 1

    def test_minimize_rejects_a_non_finite_loss_before_any_update(self):
        p = Tensor(np.arange(3.0))
        opt = Adam([p], 0.1)
        opt.minimize(T.tmean(p * p), lambda: "unused")
        before = (p.data.copy(), opt.m.copy(), opt.v.copy(), opt.t)
        with pytest.raises(FloatingPointError, match="^step 2 diverged$"):
            opt.minimize(T.tmean(p * float("nan")), lambda: "step 2 diverged")
        np.testing.assert_array_equal(p.data, before[0])
        np.testing.assert_array_equal(opt.m, before[1])
        np.testing.assert_array_equal(opt.v, before[2])
        assert opt.t == before[3] == 1

    def test_minimize_is_bitwise_step_and_leaves_no_gradient(self):
        r = rng(5)
        start = [r.normal(size=(3, 2)), r.normal(size=(1, 2))]
        fresh = [[Tensor(a.copy()) for a in start] for _ in range(2)]
        by_step, by_minimize = (Adam(params, 0.01) for params in fresh)
        for _ in range(3):
            for opt in (by_step, by_minimize):
                w, b = opt.params
                loss = T.tmean(w * w) + T.tmean(b * b * b)
                if opt is by_step:
                    for q in opt.params:
                        q.grad = None
                    loss.backward()
                    opt.step()
                else:
                    opt.minimize(loss, lambda: "unused")
                    assert all(q.grad is None for q in opt.params)
        for p, q in zip(*fresh):
            assert p.data.tobytes() == q.data.tobytes()
        assert by_step.m.tobytes() == by_minimize.m.tobytes()
        assert by_step.v.tobytes() == by_minimize.v.tobytes()


@pytest.mark.parametrize("phase", ["outer_step", "inner_maximize", "train_baseline",
                                   "run_case_study"])
def test_no_gradient_outlives_its_step(phase, monkeypatch):
    made = []

    class Recorded(Adam):
        def __init__(self, params, lr):
            super().__init__(params, lr)
            made.append(self)

    for module in ("gib.train", "gib.mi", "gib.experiments", "gib.case_study"):
        monkeypatch.setattr(importlib.import_module(module), "Adam", Recorded)
    ds = tiny_dataset()
    config = TrainConfig(outer_steps=2, inner_steps=3, batch_size=8)
    if phase == "outer_step":
        model = GibModel(ds.graphs[0].features.shape[1], ds.num_classes, rng(0))
        outer_step(model, Recorded(model.outer_params(), 1e-3), ds.subset("train")[:6], config)
    elif phase == "inner_maximize":
        r = rng(1)
        inner_maximize(Mlp([4, 8, 1], r), r.normal(size=(10, 2)), r.normal(size=(10, 2)),
                       steps=3, lr=1e-2)
    elif phase == "train_baseline":
        train_baseline(ds, config, "attention")
    else:
        run_case_study(CaseStudyConfig(epochs=2, inner_steps=3, samples_per_epoch=600,
                                       inner_batch=256, warmup_steps=2, seed=23))
    assert made and all(p.grad is None for opt in made for p in opt.params)


class TestOuterStep:
    def test_loss_breakdown_identity(self):
        ds = tiny_dataset()
        config = TrainConfig(batch_size=8, seed=0)
        model = GibModel(ds.graphs[0].features.shape[1], ds.num_classes, rng(0))
        opt = Adam(model.outer_params(), 1e-3)
        breakdown = outer_step(model, opt, ds.subset("train")[:6], config)
        expected = breakdown.cls + config.beta * breakdown.mi + config.con_weight * breakdown.con
        assert breakdown.total == expected

    def test_zero_weight_connectivity_is_recorded_off_the_tape(self, monkeypatch):
        # the term is 13 tape nodes and its weight one more; at weight 0 the
        # recorded value is the same, computed from a constant S
        ds = tiny_dataset()
        graphs = ds.subset("train")[:6]
        batch = GraphBatch(graphs)
        tapes, backward = [], Tensor.backward

        def recorded(loss):
            tapes.append([node.op for node in loss.tape()])
            backward(loss)

        monkeypatch.setattr(Tensor, "backward", recorded)
        for con_weight in (1.0, 0.0):
            model = GibModel(ds.graphs[0].features.shape[1], ds.num_classes, rng(0))
            expected = float(connectivity_loss(model.forward(batch)[0], batch).data)
            breakdown = outer_step(model, Adam(model.outer_params(), 1e-3),
                                   graphs, TrainConfig(batch_size=8, seed=0, con_weight=con_weight))
            assert breakdown.con == expected
        weighted, unweighted = tapes
        assert len(weighted) - len(unweighted) == 14
        assert "row_norms" in weighted and "row_norms" not in unweighted

    def test_statistics_head_untouched(self):
        ds = tiny_dataset()
        config = TrainConfig(batch_size=8, seed=0)
        model = GibModel(ds.graphs[0].features.shape[1], ds.num_classes, rng(0))
        opt = Adam(model.outer_params(), 1e-3)
        before = [p.data.copy() for p in model.phi2_params()]
        outer_step(model, opt, ds.subset("train")[:6], config)
        for p, b in zip(model.phi2_params(), before):
            assert np.array_equal(p.data, b)

    def test_statistics_head_gets_no_gradient(self):
        ds = tiny_dataset()
        model = GibModel(ds.graphs[0].features.shape[1], ds.num_classes, rng(0))
        outer_step(model, Adam(model.outer_params(), 1e-3), ds.subset("train")[:6],
                   TrainConfig(batch_size=8, seed=0))
        assert all(p.grad is None for p in model.phi2_params())

    def test_generator_and_classifier_do_change(self):
        ds = tiny_dataset()
        config = TrainConfig(batch_size=8, seed=0)
        model = GibModel(ds.graphs[0].features.shape[1], ds.num_classes, rng(0))
        opt = Adam(model.outer_params(), 1e-3)
        before = [p.data.copy() for p in model.outer_params()]
        outer_step(model, opt, ds.subset("train")[:6], config)
        assert any(not np.array_equal(p.data, b) for p, b in zip(model.outer_params(), before))


class TestFrozenHeadOuterGradient:
    """The outer step's MI term runs through the frozen copy of the head: the
    outer parameters' gradients are bitwise those a live head gives."""

    def test_outer_gradients_are_the_live_head_ones(self):
        ds = tiny_dataset()
        graphs = ds.subset("train")[:8]
        batch = GraphBatch(graphs)
        model = GibModel(ds.graphs[0].features.shape[1], ds.num_classes, rng(4))

        def outer_grads(statnet):
            s, x, sub_embs = model.forward(batch)
            cls = output_loss(model.logits(sub_embs), [g.label for g in graphs], ds.num_classes)
            mi = mi_batch_loss(statnet, batch.mean(x), sub_embs).value
            (cls + 0.5 * mi + connectivity_loss(s, batch)).backward()
            grads = [p.grad.copy() for p in model.outer_params()]
            head_grads = [p.grad for p in model.phi2_params()]
            T.zero_grads(model.params())
            return grads, head_grads

        frozen, no_head_grads = outer_grads(model.frozen.statnet)
        live, head_grads = outer_grads(model.statnet)
        assert no_head_grads == [None] * 4 and all(g is not None for g in head_grads)
        assert [g.tobytes() for g in frozen] == [g.tobytes() for g in live]


class TestForwardOnlyPasses:
    def test_build_no_backward(self, tensors_made):
        ds = tiny_dataset()
        width = ds.graphs[0].features.shape[1]
        gib_model = GibModel(width, ds.num_classes, rng(0))
        attention = AttentionClassifier(width, ds.num_classes, rng(1))
        graphs = ds.subset("train")
        tensors_made.clear()
        _cached_embeddings(gib_model, graphs)
        evaluate_split(gib_model, ds, "val", 0.5)
        gib_model.predict_all(graphs)
        gib_model.assignment_matrix(graphs[0])
        attention.node_scores(graphs[0])
        with_backward = [t.op for t in tensors_made if t.grad_fn is not None]
        assert tensors_made and not with_backward, \
            f"{len(with_backward)} of {len(tensors_made)} nodes have a backward"

    @pytest.mark.parametrize("after", ["train", "train_baseline", "restore_into"])
    def test_frozen_copy_shares_every_parameter(self, after, tmp_path):
        ds = tiny_dataset()
        config = TrainConfig(outer_steps=3, inner_steps=2, batch_size=8, seed=8, patience=1)
        if after == "train":
            model = train(ds, config).model
        elif after == "train_baseline":
            model = train_baseline(ds, config, "attention").model
        else:
            path = str(tmp_path / "ckpt.bin")
            saved = GibModel(ds.graphs[0].features.shape[1], ds.num_classes, rng(5))
            save_params(path, [(n, p.data) for n, p in saved.named_params()])
            model = GibModel(ds.graphs[0].features.shape[1], ds.num_classes, rng(6))
            model.frozen  # built before the restore
            restore_into(model.named_params(), load_params(path))
        for (name, live), (_, frozen) in zip(model.named_params(), model.frozen.named_params()):
            assert np.shares_memory(live.data, frozen.data) and not frozen.requires_grad, name


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

    @pytest.mark.parametrize("continuous", [False, True])
    def test_threshold_outside_unit_interval_named(self, continuous):
        # every graph is cut by discretize, which checks the threshold
        ds = tiny_dataset(continuous=continuous)
        model = GibModel(ds.graphs[0].features.shape[1], ds.num_classes, rng(3))
        with pytest.raises(ValueError, match=r"^threshold must be in \(0, 1\), got 1.5$"):
            evaluate_split(model, ds, "val", 1.5)

    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.7])
    def test_degenerate_rate_and_bias_read_each_graphs_cut(self, threshold):
        ds = tiny_dataset(continuous=True)
        ds.splits = random_splits(24, (0.3, 0.5, 0.2), seed=2)
        model = GibModel(ds.graphs[0].features.shape[1], ds.num_classes, rng(3))
        val = ds.splits["val"]
        cuts = [discretize(model.assignment_matrix(ds.graphs[gi]), ds.graphs[gi], threshold)
                for gi in val]
        stats = evaluate_split(model, ds, "val", threshold)
        assert stats["degenerate_rate"] == sum(cut.degenerate for cut in cuts) / len(val)
        assert stats["property_bias"] == pytest.approx(np.mean([
            motif_property_bias(ds.masks[gi], ds.graphs[gi], cut) for gi, cut in zip(val, cuts)
        ]), abs=1e-12)


class TestTrain:
    def test_seed_reproducibility(self):
        ds = tiny_dataset()
        config = TrainConfig(outer_steps=3, inner_steps=4, batch_size=8, seed=5)
        h1 = train(ds, config).history
        h2 = train(ds, config).history
        assert [r.total for r in h1] == [r.total for r in h2]
        assert [r.val_metric for r in h1] == [r.val_metric for r in h2]

    def test_freeze_contracts_hold_in_debug_mode(self, monkeypatch):
        calls = check_phase_freezes(monkeypatch)
        config = TrainConfig(outer_steps=2, inner_steps=3, batch_size=8, seed=3)
        train(tiny_dataset(), config)  # raises AssertionError on any phase violation
        # 17 training graphs make batches of 8 and 9: per epoch, one inner
        # phase and two outer steps
        assert calls == {"inner": 2, "outer": 4}

    @pytest.mark.parametrize("beta,inner_phases", [(0.0, 0), (0.1, 3)])
    def test_inner_phase_runs_once_per_epoch_only_with_positive_beta(self, monkeypatch, beta,
                                                                     inner_phases):
        calls = check_phase_freezes(monkeypatch)
        config = TrainConfig(outer_steps=3, inner_steps=2, batch_size=8, seed=3, beta=beta,
                             patience=100)
        result = train(tiny_dataset(), config)
        assert calls == {"inner": inner_phases, "outer": 6}
        assert len(result.mi_trace) == inner_phases

    def test_loss_decreases_in_trend_without_regularizers(self):
        ds = tiny_dataset(n=40)
        config = TrainConfig(outer_steps=40, batch_size=16, seed=1, lr_outer=3e-3,
                             beta=0.0, con_weight=0.0, patience=100)
        history = train(ds, config).history
        first = np.mean([r.cls for r in history[:4]])
        last = np.mean([r.cls for r in history[-4:]])
        assert last < first

    def test_ablation_without_connectivity_runs(self):
        ds = tiny_dataset()
        config = TrainConfig(outer_steps=2, inner_steps=3, batch_size=8, seed=2,
                             con_weight=0.0)
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
        pred = result.model.predict_all([ds.graphs[0]])[0]
        assert np.isfinite(pred)

    def test_single_step_smoke_emits_all_artifacts(self, tmp_path):
        ds = tiny_dataset(n=8)
        ds.splits = random_splits(8, (0.7, 0.15, 0.15), seed=0)
        config = TrainConfig(outer_steps=1, inner_steps=1, batch_size=4, seed=0)
        result = train(ds, config)
        assert len(result.history) == 1 and len(result.mi_trace) == 1
        write_csv(str(tmp_path / "m.csv"), METRICS_COLUMNS, [astuple(r) for r in result.history])
        write_csv(str(tmp_path / "t.csv"), ("outer_step", "mi_estimate"), result.mi_trace)
        save_params(str(tmp_path / "c.bin"),
                    [(n, p.data) for n, p in result.model.named_params()])
        for name in ("m.csv", "t.csv", "c.bin"):
            assert os.path.getsize(str(tmp_path / name)) > 0

    def test_non_finite_loss_aborts_with_diagnostics(self):
        ds = tiny_dataset()
        config = TrainConfig(outer_steps=1, inner_steps=2, batch_size=8, seed=0)
        model = GibModel(ds.graphs[0].features.shape[1], ds.num_classes, rng(0))
        model.classifier.weights[0].data[0, 0] = np.nan
        opt = Adam(model.outer_params(), 1e-3)
        with pytest.raises(FloatingPointError, match="diverged"):
            outer_step(model, opt, ds.subset("train")[:4], config)

    def test_divergence_in_a_later_batch_names_epoch_batch_and_norms(self, monkeypatch):
        ds = tiny_dataset()
        ds.splits = {"train": list(range(16)), "val": list(range(16, 20)),
                     "test": list(range(20, 24))}
        config = TrainConfig(outer_steps=3, inner_steps=1, batch_size=8, seed=0)
        train_module = importlib.import_module("gib.train")
        real_step = train_module.outer_step
        calls = []

        def poisoned_step(model, optimizer, graphs, cfg):
            calls.append(len(graphs))
            if len(calls) == 4:  # two batches an epoch: epoch 2, batch 1
                model.classifier.weights[0].data[0, 0] = np.nan
            return real_step(model, optimizer, graphs, cfg)

        monkeypatch.setattr(train_module, "outer_step", poisoned_step)
        with pytest.raises(FloatingPointError) as info:
            train(ds, config)
        message = str(info.value)
        assert calls == [8, 8, 8, 8]
        assert message.startswith("epoch 2, batch 1: outer step diverged: cls=nan")
        assert "classifier.layer0.weight=nan" in message
        assert re.search(r"generator\.encoder\.gcn0\.weight=\d", message)  # finite ones too

    def test_inner_divergence_names_epoch_and_head_norms(self, monkeypatch):
        ds = tiny_dataset()
        ds.splits = {"train": list(range(16)), "val": list(range(16, 20)),
                     "test": list(range(20, 24))}
        config = TrainConfig(outer_steps=2, inner_steps=3, batch_size=8, seed=0)
        train_module = importlib.import_module("gib.train")

        def poisoned_model(*args, **kwargs):
            # a NaN encoder weight makes every cached embedding NaN, so the
            # first inner step of epoch 1 diverges before any outer step
            model = GibModel(*args, **kwargs)
            model.generator.encoder.layers[0].weight.data[0, 0] = np.nan
            return model

        monkeypatch.setattr(train_module, "GibModel", poisoned_model)
        with pytest.raises(FloatingPointError) as info:
            train(ds, config)
        message = str(info.value)
        assert message.startswith("epoch 1: inner step 0: estimator diverged")
        assert "statistics-head parameter norms statnet.head.layer0.weight=" in message
        assert re.search(r"statnet\.head\.layer1\.bias=\d", message)
        assert "generator." not in message  # the head's norms only

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(beta=-1.0)
        with pytest.raises(ConfigError):
            TrainConfig(inner_steps=0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=1)

    def test_mi_with_one_train_graph_names_the_split(self):
        ds = tiny_dataset()
        ds.splits = {"train": [0], "val": [1, 2], "test": list(range(3, 24))}
        with pytest.raises(ConfigError, match="'train'"):
            train(ds, TrainConfig(outer_steps=1, inner_steps=1, batch_size=8))
        # without the estimate one training graph is enough
        train(ds, TrainConfig(outer_steps=1, batch_size=8, beta=0.0))

    def test_metrics_csv_shape(self, tmp_path):
        ds = tiny_dataset()
        config = TrainConfig(outer_steps=3, inner_steps=2, batch_size=8, seed=7)
        result = train(ds, config)
        path = str(tmp_path / "metrics.csv")
        write_csv(path, METRICS_COLUMNS, [astuple(r) for r in result.history])
        lines = open(path).read().splitlines()
        assert lines[0].startswith("outer_step,loss_cls,loss_mi,loss_con,loss_total")
        assert len(lines) == len(result.history) + 1

    def test_line_graph_history_pinned_bitwise(self, kernel_pin):
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
                for r in history] == kernel_pin({"SkylakeX": [
            (0.4963187472104016, -0.15867542311042288, 1.0185094986587728,
             1.498960703558132, 0.5, 1.0),
            (0.4151750196796631, -0.04137858788822435, 1.0147978870554661,
             1.4258350479463067, 0.5, 1.0),
            (0.36274942432256563, -0.06769138720309892, 1.0115173795522479,
             1.3674976651545037, 0.5, 1.0),
        ], "Haswell": [
            (0.4963187472104016, -0.15867542311042293, 1.0185094986587728,
             1.4989607035581323, 0.5, 1.0),
            (0.4151750196796632, -0.04137858788822435, 1.0147978870554661,
             1.425835047946307, 0.5, 1.0),
            (0.3627494243225656, -0.06769138720309872, 1.011517379552248,
             1.3674976651545039, 0.5, 1.0),
        ]})


class TestModelLayout:
    def test_one_encoder_serves_generator_and_statnet(self):
        model = GibModel(3, 2, rng(1))
        for view in (model, model.frozen):
            assert view.generator.encoder is view.encoder
            assert view.statnet.encoder is view.encoder
        assert model.frozen.encoder is not model.encoder

    # the checkpoint layout at the default sizes, 3 input features and 2 classes
    LAYOUTS = {
        GibModel: [
            ("generator.encoder.gcn0.weight", (3, 16)), ("generator.encoder.gcn1.weight", (16, 16)),
            ("generator.assign.layer0.weight", (16, 16)), ("generator.assign.layer0.bias", (1, 16)),
            ("generator.assign.layer1.weight", (16, 2)), ("generator.assign.layer1.bias", (1, 2)),
            ("classifier.layer0.weight", (16, 16)), ("classifier.layer0.bias", (1, 16)),
            ("classifier.layer1.weight", (16, 2)), ("classifier.layer1.bias", (1, 2)),
            ("statnet.head.layer0.weight", (32, 16)), ("statnet.head.layer0.bias", (1, 16)),
            ("statnet.head.layer1.weight", (16, 1)), ("statnet.head.layer1.bias", (1, 1)),
            ("label_scale", (1, 2)),
        ],
        AttentionClassifier: [
            ("att.encoder.gcn0.weight", (3, 16)), ("att.encoder.gcn1.weight", (16, 16)),
            ("att.head.p1", (16, 16)), ("att.head.p2", (16, 1)),
            ("att.classifier.layer0.weight", (16, 16)), ("att.classifier.layer0.bias", (1, 16)),
            ("att.classifier.layer1.weight", (16, 2)), ("att.classifier.layer1.bias", (1, 2)),
            ("label_scale", (1, 2)),
        ],
        MeanPoolClassifier: [
            ("pool.encoder.gcn0.weight", (3, 16)), ("pool.encoder.gcn1.weight", (16, 16)),
            ("pool.classifier.layer0.weight", (16, 16)), ("pool.classifier.layer0.bias", (1, 16)),
            ("pool.classifier.layer1.weight", (16, 2)), ("pool.classifier.layer1.bias", (1, 2)),
            ("label_scale", (1, 2)),
        ],
    }

    @pytest.mark.parametrize("model_class", list(LAYOUTS), ids=lambda c: c.__name__)
    def test_named_params_pin_the_checkpoint_layout(self, model_class):
        model = model_class(3, 2, rng(1))
        assert [(n, p.data.shape) for n, p in model.named_params()] == self.LAYOUTS[model_class]


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

    def test_oversized_shape_names_parameter_before_reading(self, tmp_path):
        path = str(tmp_path / "ckpt.bin")
        save_params(path, [("w", np.ones((2, 2)))])
        with open(path, "rb") as fh:
            blob = fh.read()
        header = len(MAGIC) + 4 + 4 + 1  # magic, count, name length, name
        dims = np.array([3, 2**32 - 1, 2**32 - 1, 2**32 - 1], dtype="<u4").tobytes()  # ndim, shape
        with open(path, "wb") as fh:
            fh.write(blob[:header] + dims + blob[header + 12:])
        with pytest.raises(IOError, match=r"truncated checkpoint, parameter 'w' needs \d+ bytes"):
            load_params(path)

    def test_missing_parameter_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.bin")
        save_params(path, [("only.one", np.zeros((2, 2)))])
        model = GibModel(3, 2, rng(1))
        with pytest.raises(IOError, match="missing"):
            restore_into(model.named_params(), load_params(path))

    def test_extra_parameter_rejected_before_any_value_moves(self, tmp_path):
        """A deeper model's checkpoint matches a 2-layer model's names and
        shapes but one; the restore names that one and loads nothing."""
        path = str(tmp_path / "ckpt.bin")
        deeper = GibModel(3, 2, rng(1), gcn_layers=3)
        save_params(path, [(n, p.data) for n, p in deeper.named_params()])
        model = GibModel(3, 2, rng(2))
        before = [p.data.copy() for _, p in model.named_params()]
        with pytest.raises(IOError, match=r"^checkpoint holds parameters the model lacks: "
                                          r"'generator\.encoder\.gcn2\.weight'$"):
            restore_into(model.named_params(), load_params(path))
        for (_, p), value in zip(model.named_params(), before):
            assert p.data.tobytes() == value.tobytes()
