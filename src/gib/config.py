"""Run configuration: flat ``key = value`` files with one section per module.

A ``#`` starts a comment, also after a value. Every key has a schema entry
with a type and default; unknown sections or keys are rejected by name, and
the fully resolved configuration (defaults included) is echoed into each
run's manifest so no silent defaults exist.
"""

from __future__ import annotations

import configparser
from typing import Any, Optional

from .graphs import ConfigError
from .train import TrainConfig

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

# section -> key -> (python type, default)
SCHEMA: dict[str, dict[str, tuple[type, Any]]] = {
    "train": {
        "beta": (float, 0.1),
        "con_weight": (float, 1.0),
        "inner_steps": (int, 20),
        "outer_steps": (int, 100),
        "lr_inner": (float, 1e-3),
        "lr_outer": (float, 1e-3),
        "batch_size": (int, 32),
        "optimizer": (str, "adam"),
        "patience": (int, 20),
        "hidden": (int, 16),
        "gcn_layers": (int, 2),
        "mlp_hidden": (int, 16),
        "threshold": (float, 0.5),
        "per_batch_inner": (bool, False),
        "full_pairing": (bool, False),
        "inner_batch_size": (int, 0),  # 0 means full cached set
    },
    "data": {
        "split_train": (float, 0.7),
        "split_val": (float, 0.05),
        "split_test": (float, 0.25),
        "folds": (int, 0),  # 0 means ratio split, otherwise k-fold
        "fold_index": (int, 0),
    },
    "case_study": {
        "epochs": (int, 30),
        "inner_steps": (int, 150),
        "samples_per_epoch": (int, 20000),
        "sigma2_init": (float, 0.25),
        "lr_inner": (float, 3e-3),
        "lr_outer": (float, 0.05),
        "hidden": (int, 64),
        "inner_batch": (int, 4096),
        "warmup_steps": (int, 300),
    },
}


def _parse_value(raw: str, kind: type, where: str) -> Any:
    raw = raw.strip()
    try:
        if kind is bool:
            return _BOOL[raw.lower()]
        return kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"cannot parse {where} = {raw!r} as {kind.__name__}") from None


def load_config(path: Optional[str] = None) -> dict[str, dict[str, Any]]:
    """Parse a config file against the schema; missing keys take defaults."""
    resolved = {s: {k: d for k, (_, d) in keys.items()} for s, keys in SCHEMA.items()}
    if path is None:
        return resolved
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str  # keep key case
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown config key {key!r} in section [{section}]")
            kind = SCHEMA[section][key][0]
            resolved[section][key] = _parse_value(raw, kind, f"[{section}] {key}")
    return resolved


def flatten(config: dict[str, dict[str, Any]]) -> dict[str, Any]:
    return {f"{s}.{k}": v for s, keys in config.items() for k, v in keys.items()}


def to_train_config(
    config: dict[str, dict[str, Any]],
    seed: int,
    use_mi: bool = True,
    use_con: bool = True,
    debug_freeze_checks: bool = False,
) -> TrainConfig:
    """The [train] section as a validated :class:`TrainConfig`."""
    t = config["train"]
    train_config = TrainConfig(
        beta=t["beta"],
        con_weight=t["con_weight"],
        inner_steps=t["inner_steps"],
        outer_steps=t["outer_steps"],
        lr_inner=t["lr_inner"],
        lr_outer=t["lr_outer"],
        batch_size=t["batch_size"],
        seed=seed,
        optimizer=t["optimizer"],
        hidden=t["hidden"],
        gcn_layers=t["gcn_layers"],
        mlp_hidden=t["mlp_hidden"],
        patience=t["patience"],
        threshold=t["threshold"],
        use_mi=use_mi,
        use_con=use_con,
        per_batch_inner=t["per_batch_inner"],
        full_pairing=t["full_pairing"],
        inner_batch_size=t["inner_batch_size"] or None,
        debug_freeze_checks=debug_freeze_checks,
    )
    train_config.validate()
    return train_config
