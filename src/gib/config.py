"""Run configuration: flat ``key = value`` files with one section per module.

A ``#`` starts a comment, also after a value. Every key has a schema entry
with a type and default; unknown sections or keys are rejected by name, and
the fully resolved configuration (defaults included) is echoed into each
run's manifest so no silent defaults exist.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import dataclass
from typing import Any, Optional

from .case_study import CaseStudyConfig
from .graphs import ConfigError, bounded, check_fields, kfold_splits, random_splits
from .train import TrainConfig


@dataclass(frozen=True)
class DataConfig:
    split_train: float = bounded(0.7, low=0.0, high=1.0)
    split_val: float = bounded(0.05, low=0.0, high=1.0)
    split_test: float = bounded(0.25, low=0.0, high=1.0)
    folds: int = bounded(0, low=0)  # 0: ratio split; k >= 2: k-fold, fold_index held out
    fold_index: int = bounded(0, low=0)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.folds == 1:
            raise ConfigError("[data] folds must be 0 (ratio split) or at least 2, got 1")
        if not self.folds and self.fold_index:
            raise ConfigError(
                f"[data] fold_index must be 0 for a ratio split, got {self.fold_index}")
        if self.folds and self.fold_index >= self.folds:
            raise ConfigError(f"fold_index {self.fold_index} out of range for {self.folds} folds")
        ratios = (self.split_train, self.split_val, self.split_test)
        if not self.folds and abs(sum(ratios) - 1.0) > 1e-9:
            raise ConfigError(f"split ratios must sum to 1, got {ratios}")

    def splits(self, n: int, seed: int) -> dict[str, list[int]]:
        """Splits of n graphs: k-fold when ``folds`` > 0, otherwise seeded
        train/val/test ratios."""
        if self.folds:
            return kfold_splits(n, self.fold_index, self.folds, seed)
        return random_splits(n, (self.split_train, self.split_val, self.split_test), seed)


def _fields(config_class: type, leave_out: tuple[str, ...] = ()) -> dict[str, tuple[type, Any]]:
    """key -> (type, default) for the fields of a config dataclass, in field
    order, typed by each default."""
    return {f.name: (type(f.default), f.default)
            for f in dataclasses.fields(config_class) if f.name not in leave_out}


# section -> key -> (python type, default). Fields set from the command line
# (the seed, the case study's fixed channel) have no key.
SCHEMA: dict[str, dict[str, tuple[type, Any]]] = {
    "train": _fields(TrainConfig, ("seed",)),
    "data": _fields(DataConfig),
    "case_study": _fields(CaseStudyConfig, ("seed", "sigma2_fixed")),
}


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
            kind, raw = SCHEMA[section][key][0], raw.strip()
            try:
                resolved[section][key] = kind(raw)
            except ValueError:
                raise ConfigError(f"cannot parse [{section}] {key} = {raw!r} "
                                  f"as {kind.__name__}") from None
    return resolved


def flatten(config: dict[str, dict[str, Any]]) -> dict[str, Any]:
    return {f"{s}.{k}": v for s, keys in config.items() for k, v in keys.items()}

