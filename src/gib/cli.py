"""Command-line entry points for reproducible experiment runs.

Subcommands: ``train``, ``gen-noise``, ``gen-motif``, ``denoise``,
``interpret``, ``case-study``. Every run validates its configuration before
it creates its output directory, then writes a manifest (resolved config,
seed, dataset hash, code version) before any training starts, and all
randomness flows from the one root seed, so identical (config, seed, data)
invocations emit identical result files.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import os
import sys
from typing import Callable, Optional

import numpy as np

from . import __version__
from .case_study import CaseStudyConfig, CaseStudyTraceRow, run_case_study
from .checkpoint import save_params
from .config import DataConfig, flatten, load_config, to_train_config
from .experiments import check_masks, run_denoising, run_interpretation
from .graphs import (
    ConfigError,
    Dataset,
    MotifConfig,
    add_noise_edges,
    check_fields,
    check_value,
    dataset_hash,
    gen_planted_motif_dataset,
    kfold_splits,
    load_mask_sidecar,
    load_tu_dataset,
    random_splits,
    save_tu_dataset,
)
from .metrics import format_table, mean_std, write_csv
from .subgraph import SELECTION_THRESHOLD, dump_selections
from .train import METRICS_COLUMNS, TrainConfig, evaluate_split, train


def _write_manifest(out_dir: str, command: str, args: argparse.Namespace,
                    config: dict, dataset: Optional[Dataset], outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "argv": sys.argv[1:],
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "config": flatten(config),
        "dataset": None,
        "started_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": outputs,
    }
    if dataset is not None:
        manifest["dataset"] = {
            "name": dataset.name,
            "path": getattr(args, "data", None),
            "graphs": len(dataset.graphs),
            "hash": dataset_hash(dataset),
        }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _splits(config: dict, n: int, seed: int) -> dict[str, list[int]]:
    """Splits of n graphs from the [data] section: k-fold when ``folds`` > 0,
    otherwise seeded train/val/test ratios."""
    data = DataConfig(**config["data"])
    check_fields(data)
    if data.folds == 1:
        raise ConfigError("[data] folds must be 0 (ratio split) or at least 2, got 1")
    if data.folds:
        return kfold_splits(n, data.fold_index, data.folds, seed)
    if data.fold_index:
        raise ConfigError(f"[data] fold_index must be 0 for a ratio split, got {data.fold_index}")
    return random_splits(n, (data.split_train, data.split_val, data.split_test), seed)


def _load_dataset(args: argparse.Namespace, config: dict, with_masks: bool = False) -> Dataset:
    dataset = load_tu_dataset(args.data, args.name)
    if with_masks:
        dataset.masks = load_mask_sidecar(args.data, args.name, len(dataset.graphs))
    dataset.splits = _splits(config, len(dataset.graphs), args.seed)
    for split in ("train", "val", "test"):
        dataset.subset(split)  # an empty split fails before --out exists
    print(f"loaded {dataset.name}: {len(dataset.graphs)} graphs, "
          f"{'continuous labels' if dataset.continuous else f'{dataset.num_classes} classes'}")
    return dataset


# -- subcommands ---------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    train_cfg = to_train_config(config, args.seed)
    dataset = _load_dataset(args, config)
    os.makedirs(args.out, exist_ok=True)
    outputs = ["metrics.csv", "mi_trace.csv", "checkpoint.bin", "manifest.json"]
    _write_manifest(args.out, "train", args, config, dataset, outputs)

    result = train(dataset, train_cfg)
    write_csv(os.path.join(args.out, "metrics.csv"), METRICS_COLUMNS,
              [dataclasses.astuple(r) for r in result.history])
    write_csv(os.path.join(args.out, "mi_trace.csv"), ("outer_step", "mi_estimate"),
              result.mi_trace)
    save_params(
        os.path.join(args.out, "checkpoint.bin"),
        [(name, p.data) for name, p in result.model.named_params()],
    )
    val = evaluate_split(result.model, dataset, "val", SELECTION_THRESHOLD)
    test = evaluate_split(result.model, dataset, "test", SELECTION_THRESHOLD)
    print(f"best epoch {result.best_epoch}; validation {val}; test {test}")
    return 0


def cmd_gen_noise(args: argparse.Namespace) -> int:
    check_value("seed", args.seed, low=0)
    dataset = load_tu_dataset(args.data, args.name)
    rng = np.random.default_rng(args.seed)
    noisy_graphs = []
    masks = []
    for gi, graph in enumerate(dataset.graphs, start=1):  # numbered as the TU files number them
        if not graph.num_edges:
            raise ConfigError(f"graph {gi} of {dataset.name} has no edges, so its real-edge "
                              "mask would be empty")
        noisy, mask = add_noise_edges(graph, args.fraction, int(rng.integers(2**32)))
        noisy_graphs.append(noisy)
        masks.append(np.nonzero(mask)[0].tolist())
    noisy_ds = Dataset(
        graphs=noisy_graphs, num_classes=dataset.num_classes,
        masks=masks, name=args.out_name,
    )
    os.makedirs(args.out, exist_ok=True)
    save_tu_dataset(noisy_ds, args.out, args.out_name, masks=masks)
    total_edges = sum(g.num_edges for g in noisy_graphs)
    real_edges = sum(len(m) for m in masks)
    print(f"wrote {args.out_name}: {len(noisy_graphs)} graphs, "
          f"{real_edges} real / {total_edges} total edges")
    return 0


def cmd_gen_motif(args: argparse.Namespace) -> int:
    try:
        sizes = tuple(int(s) for s in args.motif_sizes.split(",")) if args.motif_sizes else None
    except ValueError:
        raise ConfigError("motif_sizes must be comma-separated integers, "
                          f"got {args.motif_sizes!r}") from None
    config = MotifConfig(
        num_graphs=args.num_graphs,
        motif_kinds=tuple(args.motif_kinds.split(",")),
        motif_size=args.motif_size,
        motif_sizes=sizes,
        background_nodes=(args.n_min, args.n_max),
        edge_prob=args.edge_prob,
        label_rule="size" if args.continuous else "kind",
        property_noise=args.noise,
        seed=args.seed,
    )
    dataset = gen_planted_motif_dataset(config)
    os.makedirs(args.out, exist_ok=True)
    save_tu_dataset(dataset, args.out, args.name, masks=dataset.masks)
    kind = "continuous" if dataset.continuous else f"{dataset.num_classes}-class"
    print(f"wrote {args.name}: {len(dataset.graphs)} {kind} graphs")
    return 0


def _aggregate(rows_per_seed: list[list], fields: list[str]) -> list[list[str]]:
    """Mean +- std across seeds for each method row."""
    methods = [r.method for r in rows_per_seed[0]]
    table = []
    for mi, method in enumerate(methods):
        cells = [method]
        for field in fields:
            values = [getattr(runs[mi], field) for runs in rows_per_seed]
            if any(np.isnan(v) for v in values):
                cells.append("-")
            elif len(values) == 1:
                cells.append(f"{values[0]:.3f}")
            else:
                m, s = mean_std(values)
                cells.append(f"{m:.3f} +- {s:.3f}")
        table.append(cells)
    return table


def _seed_sweep(args: argparse.Namespace, command: str,
                drive: Callable[[Dataset, TrainConfig], list], fields: list[str],
                mask_kind: str, extra_outputs: tuple[str, ...] = (),
                continuous: bool = False) -> list[list]:
    """Run ``drive`` on the masked dataset once per seed, each with its own
    splits, and write the mean +- std table; returns each seed's rows. The
    masks (of ``mask_kind``, see ``check_masks``) are checked first."""
    check_value("--seeds", args.seeds, low=1)
    config = load_config(args.config)
    train_cfg = to_train_config(config, args.seed)
    dataset = _load_dataset(args, config, with_masks=True)
    if continuous and not dataset.continuous:
        raise ConfigError(f"{command} needs a continuous-property dataset "
                          f"({dataset.name} has {dataset.num_classes} classes)")
    check_masks(dataset, mask_kind)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"{command}_table")
    _write_manifest(args.out, command, args, config, dataset,
                    [f"{command}_table.csv", f"{command}_table.txt", *extra_outputs,
                     "manifest.json"])

    rows_per_seed = []
    for seed in range(args.seed, args.seed + args.seeds):
        dataset.splits = _splits(config, len(dataset.graphs), seed)
        rows_per_seed.append(drive(dataset, dataclasses.replace(train_cfg, seed=seed)))
        print(f"seed {seed}: " + "; ".join(
            r.method + "".join(f" {f}={getattr(r, f):.3f}" for f in fields
                               if not np.isnan(getattr(r, f)))
            for r in rows_per_seed[-1]
        ))

    headers = ["method", *fields]
    table = _aggregate(rows_per_seed, fields)
    text = format_table(headers, table)
    print(text)
    write_csv(stem + ".csv", headers, table)
    with open(stem + ".txt", "w") as fh:
        fh.write(text + "\n")
    return rows_per_seed


def cmd_denoise(args: argparse.Namespace) -> int:
    # the driver is looked up at call time, so it can be replaced in gib.cli
    _seed_sweep(args, "denoise", lambda ds, cfg: run_denoising(ds, cfg),
                ["recall", "precision", "accuracy"], "real-edge")
    return 0


def cmd_interpret(args: argparse.Namespace) -> int:
    methods = [] if args.no_baselines else ["att05", "att07"]
    # GIB variants by (--no-con, --no-mi); both set leaves a plain subgraph classifier
    methods += {(False, False): ["gib_no_con", "gib_no_mi", "gib"], (True, False): ["gib_no_con"],
                (False, True): ["gib_no_mi"], (True, True): ["gib_plain"]}[args.no_con, args.no_mi]
    rows_per_seed = _seed_sweep(
        args, "interpret", lambda ds, cfg: run_interpretation(ds, cfg, tuple(methods)),
        ["bias_mean", "bias_std", "components_per_graph", "degenerate_rate"], "motif",
        ("subgraphs.jsonl",), continuous=True)
    dump_selections(os.path.join(args.out, "subgraphs.jsonl"), rows_per_seed[0][-1].records)
    return 0


def cmd_case_study(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    section = dict(config["case_study"])
    if args.epochs is not None:
        section["epochs"] = args.epochs
    cs_config = CaseStudyConfig(**section, seed=args.seed, sigma2_fixed=args.sigma2_fixed)
    cs_config.validate()
    os.makedirs(args.out, exist_ok=True)
    # the manifest records the values the run uses, command-line overrides included
    config["case_study"] = {k: v for k, v in dataclasses.asdict(cs_config).items() if k != "seed"}
    _write_manifest(args.out, "case-study", args, config, None,
                    ["case_study_trace.csv", "manifest.json"])
    trace = run_case_study(cs_config)
    write_csv(os.path.join(args.out, "case_study_trace.csv"),
              [f.name for f in dataclasses.fields(CaseStudyTraceRow)],
              [dataclasses.astuple(r) for r in trace])
    first, last = trace[0], trace[-1]
    print(f"epoch 1: estimate={first.mi_estimate:.4f} oracle={first.oracle_mi:.4f} "
          f"sigma2={first.sigma2:.4f}")
    print(f"epoch {last.epoch}: estimate={last.mi_estimate:.4f} oracle={last.oracle_mi:.4f} "
          f"sigma2={last.sigma2:.4f}")
    return 0


# -- argument parsing -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gib", description="subgraph recognition experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, data: bool = True) -> None:
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="runs/latest", help="output directory")
        if data:
            p.add_argument("--data", required=True, help="dataset directory")
            p.add_argument("--name", required=True, help="dataset name prefix")

    p_train = sub.add_parser("train", help="train the subgraph model on a dataset")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_noise = sub.add_parser("gen-noise", help="add spurious edges to a dataset")
    p_noise.add_argument("--data", required=True)
    p_noise.add_argument("--name", required=True)
    p_noise.add_argument("--fraction", type=float, default=0.3)
    p_noise.add_argument("--seed", type=int, default=0)
    p_noise.add_argument("--out", required=True)
    p_noise.add_argument("--out-name", default=None)
    p_noise.set_defaults(func=cmd_gen_noise)

    p_motif = sub.add_parser("gen-motif", help="generate a planted-motif dataset")
    p_motif.add_argument("--out", required=True)
    p_motif.add_argument("--name", default="MOTIF")
    motif = {f.name: f.default for f in dataclasses.fields(MotifConfig)}  # one source of defaults
    p_motif.add_argument("--num-graphs", type=int, default=motif["num_graphs"])
    p_motif.add_argument("--motif-kinds", default=",".join(motif["motif_kinds"]))
    p_motif.add_argument("--motif-size", type=int, default=motif["motif_size"])
    p_motif.add_argument("--motif-sizes", default=None)
    p_motif.add_argument("--n-min", type=int, default=motif["background_nodes"][0])
    p_motif.add_argument("--n-max", type=int, default=motif["background_nodes"][1])
    p_motif.add_argument("--edge-prob", type=float, default=motif["edge_prob"])
    p_motif.add_argument("--continuous", action="store_true",
                         help="label = motif size (+ noise) instead of motif kind")
    p_motif.add_argument("--noise", type=float, default=motif["property_noise"])
    p_motif.add_argument("--seed", type=int, default=motif["seed"])
    p_motif.set_defaults(func=cmd_gen_motif)

    p_denoise = sub.add_parser("denoise", help="edge-recovery comparison on noisy graphs")
    common(p_denoise)
    p_denoise.add_argument("--seeds", type=int, default=1, help="number of seeds to sweep")
    p_denoise.set_defaults(func=cmd_denoise)

    p_interp = sub.add_parser("interpret", help="property-bias comparison on a continuous dataset")
    common(p_interp)
    p_interp.add_argument("--seeds", type=int, default=1)
    p_interp.add_argument("--no-con", action="store_true", help="set con_weight = 0")
    p_interp.add_argument("--no-mi", action="store_true", help="set beta = 0")
    p_interp.add_argument("--no-baselines", action="store_true")
    p_interp.set_defaults(func=cmd_interpret)

    p_case = sub.add_parser("case-study", help="two-variable bi-level MI minimization")
    common(p_case, data=False)
    p_case.add_argument("--sigma2-fixed", type=float, default=None)
    p_case.add_argument("--epochs", type=int, default=None)
    p_case.set_defaults(func=cmd_case_study)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "out_name", "") is None:
        args.out_name = args.name + "_NOISY"
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, IOError, ValueError, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
