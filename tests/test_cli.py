"""Command-line workflows: artifact emission, determinism, error paths."""

import configparser
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gib.case_study import CaseStudyConfig
from gib.cli import main
from gib.config import SCHEMA, load_config
import gib.cli
from gib.graphs import (
    Graph,
    MotifConfig,
    gen_planted_motif_dataset,
    kfold_splits,
    load_mask_sidecar,
    load_tu_dataset,
    random_splits,
    save_tu_dataset,
)
from gib.subgraph import parse_selections
from gib.train import TrainConfig

FAST_TRAIN = (
    "[train]\n"
    "outer_steps = 3\n"
    "inner_steps = 3\n"
    "batch_size = 8\n"
    "patience = 5\n"
    "[data]\n"
    "split_train = 0.7\n"
    "split_val = 0.1\n"
    "split_test = 0.2\n"
)


@pytest.fixture()
def motif_dir(tmp_path):
    out = str(tmp_path / "data")
    assert main(["gen-motif", "--out", out, "--name", "TOY", "--num-graphs", "20",
                 "--n-min", "8", "--n-max", "11", "--seed", "3"]) == 0
    return out


@pytest.fixture()
def config_file(tmp_path):
    path = str(tmp_path / "fast.ini")
    with open(path, "w") as fh:
        fh.write(FAST_TRAIN)
    return path


class TestTrainCommand:
    def test_artifacts_written(self, tmp_path, motif_dir, config_file):
        out = str(tmp_path / "run")
        code = main(["train", "--config", config_file, "--data", motif_dir,
                     "--name", "TOY", "--seed", "7", "--out", out])
        assert code == 0
        for artifact in ("manifest.json", "metrics.csv", "mi_trace.csv", "checkpoint.bin"):
            assert os.path.exists(os.path.join(out, artifact))
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["seed"] == 7
        assert manifest["dataset"]["hash"]
        assert manifest["config"]["train.outer_steps"] == 3

    def test_identical_invocations_emit_identical_metrics(self, tmp_path, motif_dir, config_file):
        outs = [str(tmp_path / f"run{i}") for i in (1, 2)]
        for out in outs:
            assert main(["train", "--config", config_file, "--data", motif_dir,
                         "--name", "TOY", "--seed", "7", "--out", out]) == 0
        blobs = [open(os.path.join(o, "metrics.csv"), "rb").read() for o in outs]
        assert blobs[0] == blobs[1]

    def test_decreasing_graph_ids_fail_by_name(self, tmp_path, motif_dir, config_file, capsys):
        path = os.path.join(motif_dir, "TOY_graph_indicator.txt")
        ids = open(path).read().split()
        with open(path, "w") as fh:
            fh.write("\n".join(ids[:-1] + ["1"]) + "\n")
        out = str(tmp_path / "x")
        code = main(["train", "--config", config_file, "--data", motif_dir,
                     "--name", "TOY", "--seed", "7", "--out", out])
        assert code == 1
        assert (f"TOY_graph_indicator.txt line {len(ids)}: graph id 1 follows graph id "
                f"{ids[-2]}") in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_unknown_flag_exits_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "gib.cli", "train", "--does-not-exist"],
            capture_output=True,
        )
        assert result.returncode == 2

    # a typo, the inner-loop keys of older config files, and the optimizer,
    # model sizes and selection threshold they could once set
    @pytest.mark.parametrize("line", ["outer_stepz = 3", "per_batch_inner = true",
                                      "full_pairing = true", "inner_batch_size = 8",
                                      "optimizer = adam", "hidden = 16", "gcn_layers = 2",
                                      "mlp_hidden = 16", "threshold = 0.5"])
    def test_bad_config_key_named(self, tmp_path, motif_dir, capsys, line):
        cfg = str(tmp_path / "bad.ini")
        with open(cfg, "w") as fh:
            fh.write(f"[train]\n{line}\n")
        code = main(["train", "--config", cfg, "--data", motif_dir,
                     "--name", "TOY", "--out", str(tmp_path / "r")])
        assert code == 1
        assert f"unknown config key {line.split(' = ')[0]!r}" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "r"))  # no directory, no manifest

    @pytest.mark.parametrize("line", ["patience = 0", "con_weight = -1",
                                      "beta = nan", "con_weight = nan", "lr_outer = nan",
                                      "lr_inner = inf"])
    def test_invalid_train_value_rejected_by_name(self, tmp_path, motif_dir, capsys, line):
        cfg = str(tmp_path / "bad.ini")
        with open(cfg, "w") as fh:
            fh.write(FAST_TRAIN.replace("patience = 5\n", "")
                     .replace("[data]\n", f"{line}\n[data]\n"))
        code = main(["train", "--config", cfg, "--data", motif_dir,
                     "--name", "TOY", "--out", str(tmp_path / "r")])
        assert code == 1
        assert line.split(" = ")[0] in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "r"))  # no directory, no manifest

    def test_divergence_exits_1_with_its_message(self, tmp_path, motif_dir, config_file,
                                                 capsys, monkeypatch):
        def diverging(dataset, config):
            raise FloatingPointError("epoch 2, batch 0: outer step diverged: cls=nan")

        monkeypatch.setattr(gib.cli, "train", diverging)
        code = main(["train", "--config", config_file, "--data", motif_dir,
                     "--name", "TOY", "--out", str(tmp_path / "r")])
        assert code == 1
        assert "error: epoch 2, batch 0: outer step diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "denoise", "interpret"])
    def test_empty_test_split_fails_before_out(self, tmp_path, motif_dir, command, capsys):
        cfg = str(tmp_path / "notest.ini")
        with open(cfg, "w") as fh:
            fh.write(FAST_TRAIN.replace("split_train = 0.7", "split_train = 0.9")
                     .replace("split_test = 0.2", "split_test = 0.0"))
        code = main([command, "--config", cfg, "--data", motif_dir,
                     "--name", "TOY", "--out", str(tmp_path / "r")])
        assert code == 1
        assert "nonempty 'test' split" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "r"))

    @pytest.mark.parametrize("data, named", [
        ("folds = 1\n", "folds"),
        ("folds = -2\n", "folds"),
        ("split_train = -0.2\nsplit_val = 0.6\nsplit_test = 0.6\n", "split_train"),
        ("split_val = nan\n", "split_val"),
        ("split_train = 0.0\nsplit_val = 0.5\nsplit_test = 0.5\n", "nonempty 'train' split"),
        ("folds = 5\nfold_index = 7\n", "fold_index 7 out of range"),
        ("fold_index = 3\n", "fold_index"),
    ])
    def test_invalid_data_value_fails_by_name_before_out(self, tmp_path, motif_dir, capsys,
                                                         data, named):
        cfg = str(tmp_path / "bad.ini")
        with open(cfg, "w") as fh:
            fh.write(FAST_TRAIN.split("[data]")[0] + "[data]\n" + data)
        out = str(tmp_path / "r")
        code = main(["train", "--config", cfg, "--data", motif_dir, "--name", "TOY",
                     "--out", out])
        assert code == 1
        assert named in capsys.readouterr().err
        assert not os.path.exists(out)  # no directory, no manifest

    @pytest.mark.parametrize("command", ["train", "denoise", "case-study", "gen-motif"])
    def test_negative_seed_fails_by_name_before_out(self, tmp_path, motif_dir, capsys, command):
        out = str(tmp_path / "r")
        data = [] if command in ("case-study", "gen-motif") else ["--data", motif_dir,
                                                                  "--name", "TOY"]
        assert main([command, "--seed", "-1", "--out", out, *data]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not os.path.exists(out)

    def test_missing_dataset_fails_nonzero(self, tmp_path, config_file):
        code = main(["train", "--config", config_file, "--data", str(tmp_path),
                     "--name", "GHOST", "--out", str(tmp_path / "r")])
        assert code == 1


def _with_edgeless_graph(index):
    """A 12-graph planted-motif set whose graph ``index`` (graph id
    ``index + 1`` in the TU files) has no edges."""
    dataset = gen_planted_motif_dataset(MotifConfig(num_graphs=12, background_nodes=(8, 11),
                                                    seed=3))
    g = dataset.graphs[index]
    dataset.graphs[index] = Graph(np.zeros((g.n, g.n)), g.features, g.label)
    return dataset


# the first, a middle and the last graph: the TU files number them 1, 6 and 12
EDGELESS = pytest.mark.parametrize("index", [0, 5, 11])


class TestGenNoise:
    def test_mask_sidecar_consistent(self, tmp_path, motif_dir):
        out = str(tmp_path / "noisy")
        assert main(["gen-noise", "--data", motif_dir, "--name", "TOY",
                     "--fraction", "0.3", "--seed", "1", "--out", out]) == 0
        noisy = load_tu_dataset(out, "TOY_NOISY")
        masks = load_mask_sidecar(out, "TOY_NOISY", len(noisy.graphs))
        clean = load_tu_dataset(motif_dir, "TOY")
        assert len(noisy.graphs) == len(clean.graphs)
        for g_clean, g_noisy, mask in zip(clean.graphs, noisy.graphs, masks):
            edges = g_noisy.edges()
            real = {edges[k] for k in mask}
            assert real == set(g_clean.edges())


    def test_negative_seed_fails_by_name_before_out(self, tmp_path, motif_dir, capsys):
        out = str(tmp_path / "noisy")
        assert main(["gen-noise", "--data", motif_dir, "--name", "TOY",
                     "--seed", "-1", "--out", out]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not os.path.exists(out)

    @EDGELESS
    def test_graph_without_edges_fails_by_number_before_out(self, tmp_path, capsys, index):
        # no edge of such a graph is real, so denoise would reject its empty mask
        clean_dir, noisy_dir = str(tmp_path / "clean"), str(tmp_path / "noisy")
        save_tu_dataset(_with_edgeless_graph(index), clean_dir, "TOY")
        assert main(["gen-noise", "--data", clean_dir, "--name", "TOY",
                     "--fraction", "0.3", "--seed", "1", "--out", noisy_dir]) == 1
        assert capsys.readouterr().err == (f"error: graph {index + 1} of TOY has no edges, "
                                           "so its real-edge mask would be empty\n")
        assert not os.path.exists(noisy_dir)


class TestGenMotif:
    def test_bad_motif_sizes_fail_by_name_before_out(self, tmp_path, capsys):
        out = str(tmp_path / "m")
        assert main(["gen-motif", "--motif-sizes", "5,x", "--out", out]) == 1
        assert capsys.readouterr().err == ("error: motif_sizes must be comma-separated "
                                           "integers, got '5,x'\n")
        assert not os.path.exists(out)

    def test_defaults_are_motif_config_defaults(self, tmp_path):
        out, ref = tmp_path / "cli", tmp_path / "lib"
        assert main(["gen-motif", "--num-graphs", "12", "--seed", "3", "--out", str(out)]) == 0
        dataset = gen_planted_motif_dataset(MotifConfig(num_graphs=12, seed=3))
        save_tu_dataset(dataset, str(ref), "MOTIF")
        names = sorted(os.listdir(ref))
        assert sorted(os.listdir(out)) == names
        for name in names:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), name


class TestDenoiseCommand:
    def test_table_emitted(self, tmp_path, motif_dir, config_file):
        noisy_dir = str(tmp_path / "noisy")
        main(["gen-noise", "--data", motif_dir, "--name", "TOY",
              "--fraction", "0.3", "--seed", "1", "--out", noisy_dir])
        out = str(tmp_path / "denoise")
        code = main(["denoise", "--config", config_file, "--data", noisy_dir,
                     "--name", "TOY_NOISY", "--seed", "2", "--out", out])
        assert code == 0
        table = open(os.path.join(out, "denoise_table.csv")).read().splitlines()
        assert table[0] == "method,recall,precision,accuracy"
        methods = [line.split(",")[0] for line in table[1:]]
        assert methods == ["GCN", "GCN+Att05", "GCN+Att07", "GCN+GIB"]
        gcn_row = table[1].split(",")
        assert gcn_row[1] == "-" and gcn_row[2] == "-"  # structure metrics only
        assert os.path.exists(os.path.join(out, "denoise_table.txt"))

    def test_seed_sweep_reports_mean_and_spread(self, tmp_path, motif_dir, config_file):
        noisy_dir = str(tmp_path / "noisy")
        main(["gen-noise", "--data", motif_dir, "--name", "TOY",
              "--fraction", "0.3", "--seed", "1", "--out", noisy_dir])
        out = str(tmp_path / "sweep")
        code = main(["denoise", "--config", config_file, "--data", noisy_dir,
                     "--name", "TOY_NOISY", "--seed", "2", "--seeds", "2", "--out", out])
        assert code == 0
        table = open(os.path.join(out, "denoise_table.csv")).read().splitlines()
        gib_row = table[-1].split(",")
        assert "+-" in gib_row[1]  # mean +- std over the seed sweep

    def test_seed_sweep_uses_kfold_splits(self, tmp_path, motif_dir, monkeypatch):
        noisy_dir = str(tmp_path / "noisy")
        main(["gen-noise", "--data", motif_dir, "--name", "TOY",
              "--fraction", "0.3", "--seed", "1", "--out", noisy_dir])
        config = str(tmp_path / "folds.ini")
        with open(config, "w") as fh:
            fh.write(FAST_TRAIN.split("[data]")[0] + "[data]\nfolds = 5\nfold_index = 1\n")
        seen = []

        def recording(dataset, train_cfg):
            seen.append((train_cfg.seed, dict(dataset.splits)))
            return run_denoising(dataset, train_cfg)

        run_denoising = gib.cli.run_denoising
        monkeypatch.setattr(gib.cli, "run_denoising", recording)
        assert main(["denoise", "--config", config, "--data", noisy_dir, "--name", "TOY_NOISY",
                     "--seed", "2", "--seeds", "2", "--out", str(tmp_path / "sweep")]) == 0
        assert seen == [(seed, kfold_splits(20, 1, 5, seed)) for seed in (2, 3)]

    def test_missing_mask_sidecar_fails(self, tmp_path, motif_dir, config_file):
        bare = str(tmp_path / "bare")
        os.makedirs(bare)
        for name in os.listdir(motif_dir):
            if "mask" not in name:
                with open(os.path.join(motif_dir, name)) as src, open(
                    os.path.join(bare, name), "w"
                ) as dst:
                    dst.write(src.read())
        code = main(["denoise", "--config", config_file, "--data", bare,
                     "--name", "TOY", "--seed", "2", "--out", str(tmp_path / "x")])
        assert code == 1

    # the first, the third and the last line of the sidecar
    @pytest.mark.parametrize("index", [0, 2, -1])
    def test_real_edge_mask_beyond_edges_fails_before_out(self, tmp_path, motif_dir,
                                                          config_file, capsys, index):
        noisy_dir = str(tmp_path / "noisy")
        main(["gen-noise", "--data", motif_dir, "--name", "TOY",
              "--fraction", "0.3", "--seed", "1", "--out", noisy_dir])
        graphs = load_tu_dataset(noisy_dir, "TOY_NOISY").graphs
        edges = graphs[index].num_edges
        sidecar = os.path.join(noisy_dir, "TOY_NOISY_mask.txt")
        lines = open(sidecar).read().splitlines()
        first = lines[index].split(",")[0]
        lines[index] += f",{edges}"
        with open(sidecar, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        out = str(tmp_path / "x")
        code = main(["denoise", "--config", config_file, "--data", noisy_dir,
                     "--name", "TOY_NOISY", "--seed", "2", "--out", out])
        assert code == 1
        # line k of the sidecar is graph id k in the TU files
        graph_id = range(1, len(graphs) + 1)[index]
        assert (f"graph {graph_id} of TOY_NOISY: real-edge mask spans {first}..{edges}, "
                f"but the graph has {edges} edges") in capsys.readouterr().err
        assert not os.path.exists(out)  # no directory, no manifest

    @EDGELESS
    def test_graph_without_edges_fails_by_number_before_out(self, tmp_path, config_file, capsys,
                                                            index):
        # TU sets can hold a graph without edges; its real-edge mask is empty
        dataset = _with_edgeless_graph(index)
        noisy_dir = str(tmp_path / "noisy")
        masks = [list(range(g.num_edges)) for g in dataset.graphs]
        save_tu_dataset(dataclasses.replace(dataset, masks=masks), noisy_dir, "TOY_NOISY")
        out = str(tmp_path / "x")
        code = main(["denoise", "--config", config_file, "--data", noisy_dir,
                     "--name", "TOY_NOISY", "--seed", "2", "--out", out])
        assert code == 1
        assert (f"error: graph {index + 1} of TOY_NOISY has 0 edges and an empty real-edge "
                "mask\n" in capsys.readouterr().err)
        assert not os.path.exists(out)  # no directory, no manifest

    @pytest.mark.parametrize("missing", [1, 4])
    def test_short_mask_sidecar_named(self, tmp_path, motif_dir, config_file, capsys, missing):
        sidecar = os.path.join(motif_dir, "TOY_mask.txt")
        lines = open(sidecar).read().splitlines(keepends=True)
        with open(sidecar, "w") as fh:
            fh.writelines(lines[:-missing])
        code = main(["denoise", "--config", config_file, "--data", motif_dir,
                     "--name", "TOY", "--seed", "2", "--out", str(tmp_path / "x")])
        assert code == 1
        assert f"{sidecar} has {20 - missing} mask lines for 20 graphs" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "x"))


@pytest.mark.parametrize("command", ["denoise", "interpret"])
@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_seed_count_below_one_fails_by_name_before_out(tmp_path, motif_dir, capsys,
                                                        command, seeds):
    out = str(tmp_path / "r")
    code = main([command, "--data", motif_dir, "--name", "TOY", "--seeds", seeds,
                 "--out", out])
    assert code == 1
    assert capsys.readouterr().err == f"error: --seeds must be >= 1, got {seeds}\n"
    assert not os.path.exists(out)


class TestInterpretCommand:
    @pytest.fixture()
    def continuous_dir(self, tmp_path):
        out = str(tmp_path / "contdata")
        assert main(["gen-motif", "--out", out, "--name", "CONT", "--num-graphs", "20",
                     "--motif-kinds", "clique", "--motif-sizes", "4,5",
                     "--n-min", "8", "--n-max", "11", "--continuous", "--seed", "5"]) == 0
        return out

    def test_tables_and_dump(self, tmp_path, continuous_dir, config_file):
        out = str(tmp_path / "interp")
        code = main(["interpret", "--config", config_file, "--data", continuous_dir,
                     "--name", "CONT", "--seed", "3", "--out", out, "--no-baselines"])
        assert code == 0
        table = open(os.path.join(out, "interpret_table.csv")).read().splitlines()
        methods = [line.split(",")[0] for line in table[1:]]
        assert methods == ["GCN+GIB w/o con", "GCN+GIB w/o mi", "GCN+GIB"]
        records = parse_selections(os.path.join(out, "subgraphs.jsonl"))
        assert records and all("node_mask" in r for r in records)

    def test_seed_sweep_dumps_first_seed(self, tmp_path, continuous_dir, config_file):
        out = str(tmp_path / "sweep")
        code = main(["interpret", "--config", config_file, "--data", continuous_dir,
                     "--name", "CONT", "--seed", "3", "--seeds", "2", "--out", out,
                     "--no-baselines"])
        assert code == 0
        table = open(os.path.join(out, "interpret_table.csv")).read().splitlines()
        assert "+-" in table[-1].split(",")[1]  # mean +- std over the seed sweep
        records = parse_selections(os.path.join(out, "subgraphs.jsonl"))
        first, second = (random_splits(20, (0.7, 0.1, 0.2), seed)["test"] for seed in (3, 4))
        assert [r["graph_id"] for r in records] == first != second

    def test_double_ablation_gives_plain_run(self, tmp_path, continuous_dir, config_file):
        out = str(tmp_path / "interp2")
        code = main(["interpret", "--config", config_file, "--data", continuous_dir,
                     "--name", "CONT", "--seed", "3", "--out", out,
                     "--no-baselines", "--no-con", "--no-mi"])
        assert code == 0
        table = open(os.path.join(out, "interpret_table.csv")).read().splitlines()
        assert len(table) == 2 and "no con, no mi" in table[1]

    def test_motif_mask_beyond_nodes_fails_before_out(self, tmp_path, continuous_dir,
                                                      config_file, capsys):
        sidecar = os.path.join(continuous_dir, "CONT_mask.txt")
        lines = [line + ",999" for line in open(sidecar).read().splitlines()]
        with open(sidecar, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        first = lines[0].split(",")[0]
        nodes = load_tu_dataset(continuous_dir, "CONT").graphs[0].n
        out = str(tmp_path / "x")
        code = main(["interpret", "--config", config_file, "--data", continuous_dir,
                     "--name", "CONT", "--seed", "3", "--out", out, "--no-baselines"])
        assert code == 1
        assert (f"graph 1 of CONT: motif mask spans {first}..999, "
                f"but the graph has {nodes} nodes") in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_malformed_mask_line_fails_by_name_before_out(self, tmp_path, continuous_dir,
                                                          config_file, capsys):
        sidecar = os.path.join(continuous_dir, "CONT_mask.txt")
        lines = open(sidecar).read().splitlines()
        lines[1] = "1,x"
        with open(sidecar, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        out = str(tmp_path / "x")
        code = main(["interpret", "--config", config_file, "--data", continuous_dir,
                     "--name", "CONT", "--seed", "3", "--out", out, "--no-baselines"])
        assert code == 1
        assert f"{sidecar} line 2: 'x' is not an integer" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_categorical_dataset_rejected(self, tmp_path, motif_dir, config_file):
        code = main(["interpret", "--config", config_file, "--data", motif_dir,
                     "--name", "TOY", "--seed", "3",
                     "--out", str(tmp_path / "x"), "--no-baselines"])
        assert code == 1


class TestCaseStudyCommand:
    def test_trace_csv_shape(self, tmp_path):
        out = str(tmp_path / "case")
        cfg = str(tmp_path / "cs.ini")
        with open(cfg, "w") as fh:
            fh.write("[case_study]\nepochs = 2\ninner_steps = 5\n"
                     "samples_per_epoch = 1000\n")
        code = main(["case-study", "--config", cfg, "--seed", "1", "--out", out])
        assert code == 0
        lines = open(os.path.join(out, "case_study_trace.csv")).read().splitlines()
        assert lines[0] == "epoch,mi_estimate,oracle_mi,sigma2"
        assert len(lines) == 3

    @pytest.mark.parametrize("seed, sign", [(1, ""), (5, "-")])
    def test_outer_step_out_of_float_range_names_epoch(self, tmp_path, capsys, seed, sign):
        # the first Adam step moves log sigma2 by lr_outer, up or down by
        # the sign of the seed's first gradient: exp overflows or gives 0.0
        cfg = str(tmp_path / "cs.ini")
        with open(cfg, "w") as fh:
            fh.write("[case_study]\nepochs = 3\ninner_steps = 1\nwarmup_steps = 0\n"
                     "samples_per_epoch = 200\ninner_batch = 100\nlr_outer = 1000000.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["case-study", "--config", cfg, "--seed", str(seed),
                         "--out", str(tmp_path / "r")])
        assert code == 1
        assert re.fullmatch(f"error: epoch 1: the outer step moved log sigma2 to {sign}99\\d{{4}}, "
                            r"where sigma2 is no finite variance > 0 \(lr_outer = 1e\+06\)\n",
                            capsys.readouterr().err)

    def test_seeded_reruns_identical(self, tmp_path):
        cfg = str(tmp_path / "cs.ini")
        with open(cfg, "w") as fh:
            fh.write("[case_study]\nepochs = 2\ninner_steps = 5\n"
                     "samples_per_epoch = 1000\n")
        blobs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["case-study", "--config", cfg, "--seed", "9", "--out", out]) == 0
            blobs.append(open(os.path.join(out, "case_study_trace.csv"), "rb").read())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("line", ["sigma2_init = 0", "lr_inner = -1", "lr_outer = 0",
                                      "epochs = 0", "inner_steps = 0", "hidden = 0",
                                      "samples_per_epoch = 1", "inner_batch = 1",
                                      "warmup_steps = -1", "lr_inner = inf",
                                      "lr_outer = inf", "sigma2_init = inf"])
    def test_invalid_value_rejected_by_name(self, tmp_path, capsys, line):
        cfg = str(tmp_path / "cs.ini")
        with open(cfg, "w") as fh:
            fh.write(f"[case_study]\n{line}\n")
        code = main(["case-study", "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == 1
        assert line.split(" = ")[0] in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "r"))  # no directory, no manifest

    def test_nonpositive_fixed_channel_rejected_by_name(self, tmp_path, capsys):
        code = main(["case-study", "--sigma2-fixed", "0", "--out", str(tmp_path / "r")])
        assert code == 1
        assert "sigma2_fixed" in capsys.readouterr().err
        assert not os.path.exists(str(tmp_path / "r"))

    @pytest.mark.parametrize("text", ["[case_study]\nepochs = 2\nepochs = 3\n",
                                      "epochs = 2\n[case_study]\n"])
    def test_malformed_config_file_named(self, tmp_path, capsys, text):
        cfg = str(tmp_path / "malformed.ini")
        with open(cfg, "w") as fh:
            fh.write(text)
        code = main(["case-study", "--config", cfg, "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed config file") and cfg in err
        assert "Traceback" not in err
        assert not os.path.exists(str(tmp_path / "r"))

    def test_sigma2_fixed_single_epoch(self, tmp_path):
        cfg = str(tmp_path / "cs.ini")
        with open(cfg, "w") as fh:
            fh.write("[case_study]\ninner_steps = 5\nsamples_per_epoch = 1000\n")
        out = str(tmp_path / "fixed")
        assert main(["case-study", "--config", cfg, "--seed", "2", "--out", out,
                     "--sigma2-fixed", "1.0", "--epochs", "1"]) == 0
        lines = open(os.path.join(out, "case_study_trace.csv")).read().splitlines()
        assert len(lines) == 2 and lines[1].split(",")[3] == "1.0"

    def test_manifest_records_command_line_overrides(self, tmp_path):
        cfg = str(tmp_path / "cs.ini")
        with open(cfg, "w") as fh:
            fh.write("[case_study]\nepochs = 3\ninner_steps = 5\nsamples_per_epoch = 1000\n")
        out = str(tmp_path / "fixed")
        assert main(["case-study", "--config", cfg, "--seed", "2", "--out", out,
                     "--epochs", "1", "--sigma2-fixed", "0.5"]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["config"]["case_study.epochs"] == 1
        assert manifest["config"]["case_study.sigma2_fixed"] == 0.5
        assert manifest["config"]["case_study.inner_steps"] == 5

    def test_manifest_records_the_numpy_kernel(self, tmp_path):
        cfg = str(tmp_path / "cs.ini")
        with open(cfg, "w") as fh:
            fh.write("[case_study]\nepochs = 1\ninner_steps = 2\nsamples_per_epoch = 100\n"
                     "warmup_steps = 0\n")
        out = str(tmp_path / "kernel")
        assert main(["case-study", "--config", cfg, "--seed", "2", "--out", out]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        assert manifest["numpy"] == np.__version__
        assert manifest["openblas_core"] == gib.cli.openblas_core()


# sha256 of each CSV file of the tiny runs below, recorded before the four
# CSV writers became one (gib.metrics.write_csv): every byte stayed the same.
# One record per OpenBLAS kernel
CSV_PINS = {"SkylakeX": {
    "train/metrics.csv": "e45e49f07ba42d7525ce7912ba9ef54c86467d1c28a32418ecdfe43a5fb29681",
    "train/mi_trace.csv": "d744e37693f8fb1b180279f1cf6258e17dabc38cce1abee4d7856f0515f6abe5",
    "denoise/denoise_table.csv": "be78c12aca4da0758f018ed87b8c1622be3ddbe52edf65aa55c5a474db5299e0",
    "case/case_study_trace.csv": "e2e9f3fcb21f9e61d84b9cd3c9128d72846f3e45cdc87514b4e5e39aff21980b",
}, "Haswell": {
    "train/metrics.csv": "b3ad34fe78924019d9526d0cb17a665a1132801dd9f735cde59d65f8d9e3c4d1",
    "train/mi_trace.csv": "b69889fa1b0abb6eb2aaa793397376d614edca36561a4153f4c3747f1ba44e8e",
    "denoise/denoise_table.csv": "be78c12aca4da0758f018ed87b8c1622be3ddbe52edf65aa55c5a474db5299e0",
    "case/case_study_trace.csv": "a3f8bb67256303fd27dac867ee6d80749e2fe31bc93215180beb5bda2eb231e6",
}}


def test_csv_outputs_pinned_bitwise(tmp_path, motif_dir, config_file, kernel_pin):
    noisy_dir = str(tmp_path / "noisy")
    cs_config = str(tmp_path / "cs.ini")
    with open(cs_config, "w") as fh:
        fh.write("[case_study]\nepochs = 2\ninner_steps = 5\nsamples_per_epoch = 1000\n")
    for argv in (
        ["gen-noise", "--data", motif_dir, "--name", "TOY", "--fraction", "0.3",
         "--seed", "1", "--out", noisy_dir],
        ["train", "--config", config_file, "--data", motif_dir, "--name", "TOY",
         "--seed", "7", "--out", str(tmp_path / "train")],
        ["denoise", "--config", config_file, "--data", noisy_dir, "--name", "TOY_NOISY",
         "--seed", "2", "--out", str(tmp_path / "denoise")],
        ["case-study", "--config", cs_config, "--seed", "1", "--out", str(tmp_path / "case")],
    ):
        assert main(argv) == 0
    pins = kernel_pin(CSV_PINS)
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in pins}
    assert got == pins


class TestConfigDefaults:
    def test_train_schema_defaults_match_train_config(self):
        assert TrainConfig(**load_config()["train"], seed=0) == TrainConfig(seed=0)

    def test_case_study_schema_defaults_match_config(self):
        defaults = CaseStudyConfig()
        for key, (_, default) in SCHEMA["case_study"].items():
            assert getattr(defaults, key) == default, key

    def test_readme_config_block_matches_schema(self, tmp_path):
        readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
        blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
        assert len(blocks) == 1
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.optionxform = str
        parser.read_string(blocks[0])
        assert parser.sections() == list(SCHEMA)
        for section, keys in SCHEMA.items():
            assert list(parser[section]) == list(keys), section
        # every value, read as a config file, is the schema default
        path = tmp_path / "readme.ini"
        path.write_text(blocks[0])
        assert load_config(str(path)) == load_config()
