"""Run configuration: flat ``key = value`` files with one section per module.

A ``#`` starts a comment, also after a value. Every key has a schema entry
with a type and default; unknown sections or keys are rejected by name, and
the fully resolved configuration (defaults included) is echoed into each
run's manifest so no silent defaults exist.
"""

from __future__ import annotations

import configparser
import dataclasses
from typing import Any, Optional

from .case_study import CaseStudyConfig
from .graphs import ConfigError
from .train import TrainConfig

def _fields(config_class: type, leave_out: tuple[str, ...]) -> dict[str, tuple[type, Any]]:
    """key -> (type, default) for the fields of a config dataclass, in field
    order, typed by each default."""
    out = {}
    for field in dataclasses.fields(config_class):
        if field.name not in leave_out:
            out[field.name] = (type(field.default), field.default)
    return out


# section -> key -> (python type, default). Fields set from the command line
# (the seed, the loss ablations, the case study's fixed channel) have no key.
SCHEMA: dict[str, dict[str, tuple[type, Any]]] = {
    "train": _fields(TrainConfig, ("seed", "use_mi", "use_con")),
    "data": {
        "split_train": (float, 0.7),
        "split_val": (float, 0.05),
        "split_test": (float, 0.25),
        "folds": (int, 0),  # 0 means ratio split, otherwise k-fold
        "fold_index": (int, 0),
    },
    "case_study": _fields(CaseStudyConfig, ("seed", "sigma2_fixed")),
}


def _parse_value(raw: str, kind: type, where: str) -> Any:
    raw = raw.strip()
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"cannot parse {where} = {raw!r} as {kind.__name__}") from None


def load_config(path: Optional[str] = None) -> dict[str, dict[str, Any]]:
    """Parse a config file against the schema; missing keys take defaults."""
    resolved = {s: {k: d for k, (_, d) in keys.items()} for s, keys in SCHEMA.items()}
    if path is None:
        return resolved
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.optionxform = str  # keep key case
    try:
        read = parser.read(path)
    except configparser.Error as err:
        raise ConfigError(f"malformed config file {path!r}: {err}") from None
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


def to_train_config(config: dict[str, dict[str, Any]], seed: int) -> TrainConfig:
    """The [train] section as a validated :class:`TrainConfig`."""
    train_config = TrainConfig(**config["train"], seed=seed)
    train_config.validate()
    return train_config
