"""Experiment drivers: baselines, line-graph datasets, scoring pipelines."""

import hashlib
import importlib
from dataclasses import astuple, replace

import numpy as np
import pytest

from gib.batch import GraphBatch
from gib.experiments import (
    build_line_dataset,
    run_denoising,
    run_interpretation,
    run_motif_recovery,
    train_baseline,
)
from gib.graphs import (
    ConfigError,
    Dataset,
    MotifConfig,
    add_noise_edges,
    gen_planted_motif_dataset,
    random_splits,
)
from gib.models import AttentionClassifier, GibModel, MeanPoolClassifier
from gib.train import TrainConfig, train


def small_config(**over):
    defaults = dict(outer_steps=3, inner_steps=3, batch_size=8, patience=5, seed=0)
    defaults.update(over)
    return TrainConfig(**defaults)


@pytest.fixture(scope="module")
def motif_ds():
    ds = gen_planted_motif_dataset(
        MotifConfig(num_graphs=24, background_nodes=(8, 12), seed=1)
    )
    ds.splits = random_splits(24, (0.7, 0.1, 0.2), seed=1)
    return ds


@pytest.fixture(scope="module")
def noisy_ds(motif_ds):
    rng = np.random.default_rng(2)
    graphs, masks = [], []
    for g in motif_ds.graphs:
        noisy, mask = add_noise_edges(g, 0.3, int(rng.integers(2**32)))
        graphs.append(noisy)
        masks.append(np.nonzero(mask)[0].tolist())
    ds = Dataset(graphs, motif_ds.num_classes, splits=dict(motif_ds.splits),
                 masks=masks, name="noisy")
    return ds


class TestBaselines:
    def test_attention_baseline_trains_and_scores(self, motif_ds):
        result = train_baseline(motif_ds, small_config(), kind="attention")
        scores = result.model.node_scores(motif_ds.graphs[0])
        assert scores.shape == (motif_ds.graphs[0].n,)
        assert abs(scores.sum() - 1.0) < 1e-9

    def test_meanpool_baseline_predicts_classes(self, motif_ds):
        result = train_baseline(motif_ds, small_config(), kind="meanpool")
        pred = result.model.predict_all([motif_ds.graphs[0]])[0]
        assert pred in (0, 1)

    @pytest.mark.parametrize("kind", ["gib", "attention", "meanpool"])
    def test_model_sizes_are_the_constructor_defaults(self, motif_ds, kind):
        # the model classes own their sizes; no training setting overrides them
        config = small_config(outer_steps=1)
        if kind == "gib":
            model, model_class = train(motif_ds, config).model, GibModel
        else:
            model = train_baseline(motif_ds, config, kind=kind).model
            model_class = AttentionClassifier if kind == "attention" else MeanPoolClassifier
        fresh = model_class(motif_ds.graphs[0].features.shape[1], motif_ds.num_classes,
                            np.random.default_rng(0))
        assert ([(name, p.data.shape) for name, p in model.named_params()]
                == [(name, p.data.shape) for name, p in fresh.named_params()])

    def test_unknown_kind_rejected(self, motif_ds):
        with pytest.raises(ConfigError):
            train_baseline(motif_ds, small_config(), kind="sumpool")


def pin_dataset(continuous):
    """30 planted-motif graphs; 21 train graphs make batches of 8, 8 and 5."""
    ds = gen_planted_motif_dataset(MotifConfig(
        num_graphs=30, background_nodes=(8, 12), seed=5,
        motif_kinds=("clique",) if continuous else ("clique", "cycle"),
        motif_sizes=(4, 5, 6) if continuous else None,
        label_rule="size" if continuous else "kind",
        property_noise=0.3 if continuous else 0.0,
    ))
    ds.splits = random_splits(30, (0.7, 0.15, 0.15), seed=5)
    return ds


# (best_epoch, best_val, sha256 of the parameter bytes, label_mean, label_std):
# the baselines' outputs, bitwise. The class runs stop early (best epoch 1,
# patience 2); the continuous ones run all 4 epochs.
BASELINE_PINS = {
    ("attention", False): (
        1, 0.5, "e5f2eba97a35c9d3d25782c5d57911c36efae4741e7c33e96e1e51a2a5be4194", 0.0, 1.0),
    ("meanpool", False): (
        1, 0.75, "314b2d7eb7ef828e840d4d584406a068d8807b4ac232d117f878d295186cfba2", 0.0, 1.0),
    ("attention", True): (
        4, 1.0021250907191035,
        "1775e2bd51cf652ab7eb8f2797079ab451d7db12feab045cea364b3d67d3c7a8",
        5.0765440731080265, 0.6456759715830854),
    ("meanpool", True): (
        4, 1.0517874821178934,
        "e6104de7d35cc4c1f90943a69fafdf6bd0a01663716e3953b7d3342ce2583a4d",
        5.0765440731080265, 0.6456759715830854),
}


@pytest.mark.parametrize("kind,continuous", list(BASELINE_PINS))
def test_baseline_pinned_bitwise(kind, continuous):
    config = TrainConfig(outer_steps=4, patience=2, batch_size=8, seed=3)
    result = train_baseline(pin_dataset(continuous), config, kind)
    digest = hashlib.sha256(b"".join(p.data.tobytes() for p in result.model.params()))
    got = (result.best_epoch, result.best_val, digest.hexdigest(),
           result.model.label_mean, result.model.label_std)
    assert got == BASELINE_PINS[kind, continuous]


class TestSharedLoop:
    @pytest.mark.parametrize("split", ["train", "val"])
    @pytest.mark.parametrize("continuous", [False, True])
    @pytest.mark.parametrize("kind", ["attention", "meanpool"])
    def test_empty_split_rejected_by_name(self, kind, continuous, split):
        ds = pin_dataset(continuous)
        ds.splits["test"] += ds.splits[split]
        ds.splits[split] = []
        with pytest.raises(ConfigError, match=f"nonempty '{split}' split"):
            train_baseline(ds, small_config(), kind)

    def test_only_gib_epochs_reach_evaluate_split(self, motif_ds, monkeypatch):
        # the benchmark's epoch clock stops at each evaluate_split exit, so a
        # baseline epoch that went through it would count as a GIB epoch
        train_module = importlib.import_module("gib.train")
        real_evaluate = train_module.evaluate_split
        splits = []

        def counting(model, dataset, split, threshold):
            splits.append(split)
            return real_evaluate(model, dataset, split, threshold)

        monkeypatch.setattr(train_module, "evaluate_split", counting)
        for kind in ("attention", "meanpool"):
            train_baseline(motif_ds, small_config(), kind)
        assert splits == []
        result = train(motif_ds, small_config())
        assert len(result.history) == 3 and splits == ["val"] * 3

    @pytest.mark.parametrize("kind", ["attention", "meanpool"])
    def test_divergence_names_epoch_and_batch(self, kind, monkeypatch):
        experiments = importlib.import_module("gib.experiments")
        models, batch_sizes = [], []

        def recording(model_class):
            def build(*args, **kwargs):
                models.append(model_class(*args, **kwargs))
                return models[-1]
            return build

        def poisoning(graphs):
            batch_sizes.append(len(graphs))
            if len(batch_sizes) == 5:  # batches of 8, 8 and 5: epoch 2, batch 1
                models[0].classifier.weights[0].data[0, 0] = np.nan
            return GraphBatch(graphs)

        for name in ("AttentionClassifier", "MeanPoolClassifier"):
            monkeypatch.setattr(experiments, name, recording(getattr(experiments, name)))
        monkeypatch.setattr(experiments, "GraphBatch", poisoning)
        with pytest.raises(FloatingPointError) as info:
            train_baseline(pin_dataset(False), small_config(), kind)
        assert batch_sizes == [8, 8, 5, 8, 8]
        assert str(info.value) == f"epoch 2, batch 1: baseline {kind} diverged"


class TestLineDataset:
    def test_line_nodes_match_edge_masks(self, noisy_ds):
        line_ds = build_line_dataset(noisy_ds)
        for g_noisy, g_line, mask in zip(noisy_ds.graphs, line_ds.graphs, line_ds.masks):
            assert g_line.n == g_noisy.num_edges
            assert all(0 <= k < g_line.n for k in mask)
            assert g_line.label == g_noisy.label

    def test_masks_required(self, motif_ds):
        bare = Dataset(motif_ds.graphs, motif_ds.num_classes, splits=motif_ds.splits)
        with pytest.raises(ConfigError):
            build_line_dataset(bare)

    def test_mask_index_beyond_edges_names_graph(self, noisy_ds):
        masks = [list(m) for m in noisy_ds.masks]
        masks[3] = masks[3] + [noisy_ds.graphs[3].num_edges]
        bad = Dataset(noisy_ds.graphs, noisy_ds.num_classes, splits=noisy_ds.splits,
                      masks=masks, name="noisy")
        with pytest.raises(ConfigError, match=f"graph 4 of noisy: .* has "
                                              f"{noisy_ds.graphs[3].num_edges} edges"):
            build_line_dataset(bad)

    def test_mask_count_must_match_graphs(self, noisy_ds):
        short = Dataset(noisy_ds.graphs, noisy_ds.num_classes, splits=noisy_ds.splits,
                        masks=noisy_ds.masks[:-1])
        with pytest.raises(ConfigError, match="23 real-edge masks for 24 graphs"):
            build_line_dataset(short)


class TestDenoising:
    def test_all_methods_report(self, noisy_ds):
        runs = run_denoising(noisy_ds, small_config())
        names = [r.method for r in runs]
        assert names == ["GCN", "GCN+Att05", "GCN+Att07", "GCN+GIB"]
        gcn = runs[0]
        assert not gcn.structure_capable and np.isnan(gcn.recall)
        for r in runs[1:]:
            assert 0.0 <= r.recall <= 1.0
            assert 0.0 <= r.precision <= 1.0
            assert 0.0 <= r.accuracy <= 1.0

    def test_keep_everything_recall_bound(self, noisy_ds):
        # any method's recall can never exceed keeping every edge
        runs = run_denoising(noisy_ds, small_config(), methods=("gib",))
        assert runs[0].recall <= 1.0


@pytest.fixture(scope="module")
def continuous_ds():
    ds = gen_planted_motif_dataset(
        MotifConfig(num_graphs=24, motif_kinds=("clique",), motif_sizes=(4, 5),
                    background_nodes=(8, 12), label_rule="size", seed=3)
    )
    ds.splits = random_splits(24, (0.7, 0.1, 0.2), seed=3)
    return ds


class TestInterpretation:

    def test_rows_and_records(self, continuous_ds):
        runs = run_interpretation(
            continuous_ds, small_config(), methods=("att05", "gib")
        )
        assert [r.method for r in runs] == ["GCN+Att05", "GCN+GIB"]
        for r in runs:
            assert r.bias_mean >= 0.0
            assert len(r.records) == len(continuous_ds.splits["test"])

    def test_categorical_dataset_rejected(self, motif_ds):
        with pytest.raises(ConfigError, match="continuous"):
            run_interpretation(motif_ds, small_config())


class TestMotifRecovery:
    def test_both_methods_score(self, motif_ds):
        runs = run_motif_recovery(motif_ds, small_config())
        assert [r.method for r in runs] == ["GCN+Att05", "GCN+GIB"]
        for r in runs:
            assert 0.0 <= r.accuracy <= 1.0
            assert 0.0 <= r.motif_recall <= 1.0


def pin_noisy_dataset():
    """pin_dataset(False) with 30% noise edges and real-edge masks."""
    base = pin_dataset(False)
    rng = np.random.default_rng(6)
    graphs, masks = [], []
    for g in base.graphs:
        noisy, mask = add_noise_edges(g, 0.3, int(rng.integers(2**32)))
        graphs.append(noisy)
        masks.append(np.nonzero(mask)[0].tolist())
    return Dataset(graphs, base.num_classes, splits=dict(base.splits), masks=masks, name="noisy")


# sha256 of repr of each driver's astuple rows, recorded before the drivers
# shared one selection step: the refactor left every row bitwise equal
DRIVER_PINS = {
    "denoising": "659912f2d026a6c502e048396fc26a469172661e3a3bfcaa32baad282644e70b",
    "interpretation": "1ba14e116131344fa3c27a3eece320a9c23a119200d27f9365b37ad36469fb62",
    "motif_recovery": "573c49da654a7f7db443eb5d68e64cb7412490c2d33309f20940be4a1efd5452",
}


def test_drivers_pinned_bitwise():
    config = small_config()
    rows = {
        "denoising": run_denoising(pin_noisy_dataset(), config),
        "interpretation": run_interpretation(
            pin_dataset(True), config,
            ("att05", "att07", "gib_no_con", "gib_no_mi", "gib", "gib_plain")),
        "motif_recovery": run_motif_recovery(pin_dataset(False), config),
    }
    got = {name: hashlib.sha256(repr([astuple(r) for r in runs]).encode()).hexdigest()
           for name, runs in rows.items()}
    assert got == DRIVER_PINS


@pytest.fixture()
def training_calls(monkeypatch):
    """Counts every baseline and GIB training the drivers start."""
    experiments = importlib.import_module("gib.experiments")
    calls = []

    def counting(name):
        real = getattr(experiments, name)

        def wrapper(dataset, config, *args, **kwargs):
            calls.append((name, config))
            return real(dataset, config, *args, **kwargs)
        return wrapper

    for name in ("train_baseline", "train"):
        monkeypatch.setattr(experiments, name, counting(name))
    return calls


class TestSelectionStep:
    def test_unknown_method_rejected_before_training(self, noisy_ds, training_calls):
        with pytest.raises(ConfigError, match="unknown denoising method 'gib_typo'"):
            run_denoising(noisy_ds, small_config(), ("gcn", "gib_typo"))
        assert training_calls == []

    @pytest.mark.parametrize("driver", [run_interpretation, run_motif_recovery])
    def test_gcn_selects_nothing_to_score(self, continuous_ds, driver, training_calls):
        with pytest.raises(ConfigError, match="method 'gcn'"):
            driver(continuous_ds, small_config(), ("att05", "gcn"))
        assert training_calls == []

    @pytest.mark.parametrize("driver,fixture", [
        (run_denoising, "noisy_ds"), (run_interpretation, "continuous_ds"),
        (run_motif_recovery, "motif_ds"),
    ])
    def test_empty_test_split_rejected_before_training(self, driver, fixture, request,
                                                       training_calls):
        ds = request.getfixturevalue(fixture)
        splits = {**ds.splits, "train": ds.splits["train"] + ds.splits["test"], "test": []}
        bare = Dataset(ds.graphs, ds.num_classes, splits=splits, masks=ds.masks)
        with pytest.raises(ConfigError, match="nonempty 'test' split"):
            driver(bare, small_config())
        assert training_calls == []

    @pytest.mark.parametrize("driver,fixture", [
        (run_interpretation, "continuous_ds"), (run_motif_recovery, "motif_ds"),
    ])
    def test_motif_mask_beyond_nodes_rejected_before_training(self, driver, fixture, request,
                                                              training_calls):
        ds = request.getfixturevalue(fixture)
        masks = [list(m) + [999] for m in ds.masks]
        bad = Dataset(ds.graphs, ds.num_classes, splits=ds.splits, masks=masks, name="bad")
        with pytest.raises(ConfigError, match=r"graph 1 of bad: motif mask spans \d+\.\.999, "
                                              f"but the graph has {ds.graphs[0].n} nodes"):
            driver(bad, small_config())
        assert training_calls == []

    def test_top_k_methods_share_one_baseline(self, continuous_ds, training_calls):
        run_interpretation(continuous_ds, small_config(), ("att05", "att07"))
        assert [name for name, _ in training_calls] == ["train_baseline"]

    @pytest.mark.parametrize("driver,fixture", [
        (run_denoising, "noisy_ds"), (run_interpretation, "continuous_ds"),
        (run_motif_recovery, "motif_ds"),
    ])
    def test_gib_is_the_full_objective(self, driver, fixture, request, training_calls):
        ds = request.getfixturevalue(fixture)
        config = small_config(outer_steps=1, beta=0.3, con_weight=2.0)
        driver(ds, config, ("gib", "gib_no_con", "gib_no_mi", "gib_plain"))
        # gib trains on the caller's config; each ablation zeroes only its weights
        assert training_calls == [
            ("train", config),
            ("train", replace(config, con_weight=0.0)),
            ("train", replace(config, beta=0.0)),
            ("train", replace(config, beta=0.0, con_weight=0.0)),
        ]
