"""The bounds table: every config field's allowed values, declared with the
field and enforced by one checker, which each config runs when it is built."""

import dataclasses
import math
import os
import re
import typing

import pytest

from gib.case_study import CaseStudyConfig
from gib.cli import main
from gib.config import SCHEMA, DataConfig
from gib.graphs import (
    ConfigError,
    MotifConfig,
    bound_text,
    check_fields,
    gen_planted_motif_dataset,
    kfold_splits,
    random_splits,
    save_tu_dataset,
)
from gib.train import TrainConfig

CONFIGS = {TrainConfig: {}, CaseStudyConfig: {}, MotifConfig: {"num_graphs": 2}, DataConfig: {}}


def _fields():
    """(config class, field, element type, whether the value is a tuple) for
    every field of every config dataclass."""
    for cls in CONFIGS:
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            kind = hints[field.name]
            if typing.get_origin(kind) is typing.Union:  # Optional[...]
                kind = next(a for a in typing.get_args(kind) if a is not type(None))
            is_tuple = typing.get_origin(kind) is tuple
            yield cls, field, typing.get_args(kind)[0] if is_tuple else kind, is_tuple


FIELDS = list(_fields())
NUMERIC = [(cls, f, kind, t) for cls, f, kind, t in FIELDS if kind in (int, float)]
CHOICES = [(cls, f, kind, t) for cls, f, kind, t in FIELDS if f.metadata.get("choices")]


def _id(case) -> str:
    return f"{case[0].__name__}.{case[1].name}"


def _changed(field, is_tuple, value) -> dict:
    """``value`` for ``field``; a tuple field gets it in place of its
    default's first item, so background_nodes stays a (min, max) pair."""
    return {field.name: (value, *(field.default or ())[1:]) if is_tuple else value}


RATIOS = ("split_train", "split_val", "split_test")


def _ratios_around(cls, field, value) -> dict:
    """A DataConfig's split ratios must sum to 1: for a ratio inside [0, 1]
    the first other ratio takes the rest and the second 0."""
    if cls is not DataConfig or field.name not in RATIOS:
        return {}
    first, second = (name for name in RATIOS if name != field.name)
    return {first: 1.0 - value if 0.0 <= value <= 1.0 else 0.0, second: 0.0}


def _with(cls, field, is_tuple, value):
    return cls(**{**CONFIGS[cls], **_ratios_around(cls, field, value),
                  **_changed(field, is_tuple, value)})


def _step(value, kind, up: bool):
    """The next int or float above (``up``) or below ``value``."""
    if kind is int:
        return value + 1 if up else value - 1
    return math.nextafter(value, math.inf if up else -math.inf)


def _rejected(cls, field, is_tuple, value):
    """Building the config with ``value`` fails by name, and so does
    replacing the field of a built one (the only way to change a config)."""
    with pytest.raises(ConfigError, match=f"^{field.name} must be "):
        _with(cls, field, is_tuple, value)
    with pytest.raises(ConfigError, match=f"^{field.name} must be "):
        dataclasses.replace(cls(**CONFIGS[cls]), **_changed(field, is_tuple, value))


def test_every_int_and_float_field_has_a_bound():
    assert {cls for cls, *_ in NUMERIC} == set(CONFIGS)
    unbounded = [_id(case) for case in NUMERIC if case[1].metadata.get("low") is None]
    assert unbounded == []


@pytest.mark.parametrize("case", NUMERIC, ids=_id)
def test_values_past_each_end_are_rejected_by_name(case):
    cls, field, kind, is_tuple = case
    bounds = field.metadata
    low, high, strict = bounds["low"], bounds["high"], bounds["strict"]
    _rejected(cls, field, is_tuple, kind(low) if strict else _step(kind(low), kind, up=False))
    if high is not None:
        _rejected(cls, field, is_tuple,
                  kind(high) if strict else _step(kind(high), kind, up=True))


@pytest.mark.parametrize("case", NUMERIC, ids=_id)
def test_each_end_or_the_value_next_to_it_is_accepted(case):
    cls, field, kind, is_tuple = case
    bounds = field.metadata
    low, high, strict = bounds["low"], bounds["high"], bounds["strict"]
    _with(cls, field, is_tuple, _step(kind(low), kind, up=True) if strict else kind(low))
    if high is not None:
        _with(cls, field, is_tuple, _step(kind(high), kind, up=False) if strict else kind(high))


@pytest.mark.parametrize("case", [c for c in NUMERIC if c[2] is float], ids=_id)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_floats_are_rejected_by_name(case, value):
    cls, field, _, is_tuple = case
    _rejected(cls, field, is_tuple, value)


@pytest.mark.parametrize("case", CHOICES, ids=_id)
def test_unknown_choice_is_rejected_by_name(case):
    cls, field, _, is_tuple = case
    _rejected(cls, field, is_tuple, "bogus")
    for choice in field.metadata["choices"]:
        _with(cls, field, is_tuple, choice)


@pytest.mark.parametrize("cls", list(CONFIGS), ids=lambda cls: cls.__name__)
def test_a_built_config_is_frozen(cls):
    config = cls(**CONFIGS[cls])
    for field in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, field.name, getattr(config, field.name))


@pytest.mark.parametrize("data, message", [
    ({"folds": 1}, r"^\[data\] folds must be 0 \(ratio split\) or at least 2, got 1$"),
    ({"fold_index": 3}, r"^\[data\] fold_index must be 0 for a ratio split, got 3$"),
    ({"folds": 5, "fold_index": 7}, r"^fold_index 7 out of range for 5 folds$"),
    ({"folds": 5, "fold_index": 5}, r"^fold_index 5 out of range for 5 folds$"),
    ({"split_train": 0.9, "split_val": 0.9, "split_test": 0.9},
     r"^split ratios must sum to 1, got \(0\.9, 0\.9, 0\.9\)$"),
    ({"split_train": 0.7, "split_val": 0.05, "split_test": 0.2},
     r"^split ratios must sum to 1, got \(0\.7, 0\.05, 0\.2\)$"),
], ids=["folds", "fold_index", "fold_index_past_folds", "fold_index_at_folds",
        "ratios_over_1", "ratios_under_1"])
def test_data_config_fold_rules_hold_without_the_cli(data, message):
    with pytest.raises(ConfigError, match=message):
        DataConfig(**data)
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(DataConfig(), **data)


def test_data_config_builds_the_splits():
    assert DataConfig().splits(20, 3) == random_splits(20, (0.7, 0.05, 0.25), 3)
    assert DataConfig(folds=5, fold_index=1).splits(20, 3) == kfold_splits(20, 1, 5, 3)


# -- the same values through the entry points that read them ---------------------

SECTIONS = {TrainConfig: "train", DataConfig: "data", CaseStudyConfig: "case_study"}
FLAGS = {"seed": "--seed", "sigma2_fixed": "--sigma2-fixed"}  # fields set on the command line


def _outside(field, kind):
    """Values just outside a field's bounds, then non-finite floats or a
    fractional number inside an int field's bounds: each must be rejected."""
    bounds = field.metadata
    if bounds["choices"]:
        return ["bogus"]
    low, high, strict = bounds["low"], bounds["high"], bounds["strict"]
    values = [kind(low) if strict else _step(kind(low), kind, up=False)]
    if high is not None:
        values.append(kind(high) if strict else _step(kind(high), kind, up=True))
    return values + ([math.nan, math.inf] if kind is float else [low + 0.5])


@pytest.fixture(scope="module")
def toy_data(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("data"))
    save_tu_dataset(gen_planted_motif_dataset(MotifConfig(num_graphs=10, seed=1)), path, "TOY")
    return path


@pytest.mark.parametrize("case", FIELDS, ids=_id)
def test_values_outside_the_bounds_fail_by_name_before_the_run(case, toy_data, tmp_path,
                                                                 capsys):
    """Every field, swept from its bounds: the CLI exits 1 naming the key
    (2, naming the flag, for a fractional --seed), with no traceback and no
    --out directory. MotifConfig, which the CLI fills from typed flags, is
    swept by building it for the generator."""
    cls, field, kind, is_tuple = case
    for value in _outside(field, kind):
        if cls is MotifConfig:
            with pytest.raises(ConfigError, match=f"^{field.name} must "):
                gen_planted_motif_dataset(_with(cls, field, is_tuple, value))
            continue
        # a key the file cannot set would fail as unknown, not as out of bounds
        assert field.name in FLAGS or field.name in SCHEMA[SECTIONS[cls]]
        out, cfg = str(tmp_path / "run"), str(tmp_path / "bad.ini")
        with open(cfg, "w") as fh:
            fh.write("" if field.name in FLAGS else f"[{SECTIONS[cls]}]\n{field.name} = {value}\n")
        argv = (["case-study"] if cls is CaseStudyConfig
                else ["train", "--data", toy_data, "--name", "TOY"])
        argv += ["--config", cfg, "--out", out]
        if field.name in FLAGS:
            argv += [FLAGS[field.name], str(value)]
        typed_flag = field.name in FLAGS and kind is int and isinstance(value, float)
        if typed_flag:  # argparse's own type check, a usage error
            with pytest.raises(SystemExit, match="^2$"):
                main(argv)
        else:
            assert main(argv) == 1, value
        err = capsys.readouterr().err
        assert (f"argument {FLAGS[field.name]}" if typed_flag else field.name) in err, err
        assert "Traceback" not in err
        assert not os.path.exists(out), value


def test_none_is_skipped():
    check_fields(CaseStudyConfig(sigma2_fixed=None))
    check_fields(MotifConfig(num_graphs=2, motif_sizes=None))


def test_readme_config_block_states_each_bound():
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    sections = {"train": TrainConfig, "data": DataConfig, "case_study": CaseStudyConfig}
    seen = set()
    for line in block.splitlines():
        if line.startswith("["):
            fields = {f.name: f for f in dataclasses.fields(sections[line.strip("[]")])}
        elif line:
            key, comment = line.split(" = ")[0], line.split("#", 1)[1]
            assert comment.startswith(f" {bound_text(**fields[key].metadata)}"), line
            seen.add(key)
    assert seen == {key for keys in SCHEMA.values() for key in keys}


def test_readme_quickstart_runs(capsys):
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert "outer_steps=100" in block
    exec(block.replace("outer_steps=100", "outer_steps=2"), {})
    assert capsys.readouterr().out.startswith("predicted ")
