"""Experiment configuration: flat INI-style files, presets, serialization.

A config file has four sections; every key is optional except
``[method] method`` (a preset supplies it too). Unknown sections or keys are
rejected with the offending name and line number.

    [method]
    method = see_ood | wood
    preset = setting1 | setting2 | wood2d   # fills defaults, keys below override

    [train]
    beta_ood beta_z n_d n_g lr_d lr_g batch_ind batch_ood batch_gen
    noise_dim iterations seed adam_beta1 adam_beta2 adam_epsilon
    discriminator_arch = 2 128 3
    generator_arch = 2 128 2

    [data]
    source = builtin | csv
    path = <dataset csv, required for source=csv>
    ood_subsample = <keep this many OoD training points>
    cost_matrix = <cost matrix csv; evaluation defaults to the binary matrix>

    [eval]
    tnr_targets = 0.95 0.99
    replications = 3
    grid_x_min = -1   grid_x_max = 8   grid_y_min = -1   grid_y_max = 8
    grid_resolution = 200
    output_dir = out

Presets pin the 2-D benchmark runs: `setting1` is the discriminator-heavy
adversarial run (beta_ood 1, beta_z 0.001, n_d 2, n_g 1, both learning rates
1e-4), `setting2` the generator-heavy one (beta_ood 1, beta_z 100, n_d 1,
n_g 3, lr_d 1e-4, lr_g 1e-3), and `wood2d` the generator-free baseline
(beta 1, lr 1e-3). All three use the builtin dataset with 2 observed OoD
training points and 3 replications.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import get_type_hints

from .detection import GridSpec
from .nets import fmt_float
from .training import TrainConfig

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "PRESETS",
    "preset_config",
    "parse_config",
    "serialize_config",
]

METHODS = ("see_ood", "wood")


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to exit code 2 in the CLI)."""


@dataclass(frozen=True)
class ExperimentConfig:
    method: str = "see_ood"
    train: TrainConfig = field(default_factory=TrainConfig)
    data_source: str = "builtin"
    data_path: str | None = None
    cost_matrix_path: str | None = None
    ood_subsample: int | None = None
    tnr_targets: tuple[float, ...] = (0.95, 0.99)
    replications: int = 3
    grid: GridSpec = field(default_factory=lambda: GridSpec(-1.0, 8.0, -1.0, 8.0, 200))
    output_dir: str = "out"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.data_source not in ("builtin", "csv"):
            raise ConfigError(f"data source must be builtin or csv, got {self.data_source!r}")
        if self.data_source == "csv" and not self.data_path:
            raise ConfigError("data source csv requires a path")
        if self.ood_subsample is not None and self.ood_subsample < 0:
            raise ConfigError(f"ood_subsample must be >= 0, got {self.ood_subsample}")
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications}")
        if not self.tnr_targets:
            raise ConfigError("at least one TNR target is required")
        for t in self.tnr_targets:
            if not 0.0 < t <= 1.0:
                raise ConfigError(f"TNR targets must lie in (0, 1], got {t}")


# Per-preset budgets put each method in the same calibration regime: enough
# steps for >=99% accuracy and a settled threshold, not so many that the
# 95%-TNR cutoff degenerates to the noise floor. The baseline's 10x larger
# learning rate is why its budget is smallest.
def _setting1_train() -> TrainConfig:
    return TrainConfig(beta_ood=1.0, beta_z=0.001, n_d=2, n_g=1, lr_d=1e-4, lr_g=1e-4,
                       iterations=5000)


def _setting2_train() -> TrainConfig:
    return TrainConfig(beta_ood=1.0, beta_z=100.0, n_d=1, n_g=3, lr_d=1e-4, lr_g=1e-3,
                       iterations=13000)


def _wood2d_train() -> TrainConfig:
    return TrainConfig(beta_ood=1.0, lr_d=1e-3, iterations=400)


PRESETS = {
    "setting1": ExperimentConfig(method="see_ood", train=_setting1_train(), ood_subsample=2),
    "setting2": ExperimentConfig(method="see_ood", train=_setting2_train(), ood_subsample=2),
    "wood2d": ExperimentConfig(method="wood", train=_wood2d_train(), ood_subsample=2),
}


def preset_config(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None


def _int_tuple(value: str) -> tuple[int, ...]:
    parts = value.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return tuple(int(p) for p in parts)


def _float_tuple(value: str) -> tuple[float, ...]:
    parts = value.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


# Parser and formatter for each field type of TrainConfig and GridSpec.
_FIELD_KINDS = {
    float: (float, fmt_float),
    int: (int, str),
    tuple[int, ...]: (_int_tuple, lambda value: " ".join(str(s) for s in value)),
}


def _field_keys(cls, prefix: str = "") -> dict[str, tuple[str, object, object]]:
    """Config key -> (field name, parser, formatter), in the dataclass's field order."""
    hints = get_type_hints(cls)
    return {prefix + f.name: (f.name, *_FIELD_KINDS[hints[f.name]]) for f in fields(cls)}


_TRAIN_KEYS = _field_keys(TrainConfig)
_GRID_KEYS = _field_keys(GridSpec, "grid_")

_SECTION_KEYS = {
    "method": ("method", "preset"),
    "train": tuple(_TRAIN_KEYS),
    "data": ("source", "path", "ood_subsample", "cost_matrix"),
    "eval": ("tnr_targets", "replications", *_GRID_KEYS, "output_dir"),
}


def _scan(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    """Raw section/key/value table with line numbers; structural errors only."""
    table: dict[str, dict[str, tuple[str, int]]] = {name: {} for name in _SECTION_KEYS}
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTION_KEYS:
                raise ConfigError(f"line {line_no}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key = value, got {line!r}")
        if section is None:
            raise ConfigError(f"line {line_no}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SECTION_KEYS[section]:
            raise ConfigError(f"line {line_no}: unknown key {key!r} in section [{section}]")
        if key in table[section]:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        table[section][key] = (value, line_no)
    return table


def _convert(kind, key: str, value: str, line_no: int):
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(
            f"line {line_no}: invalid value {value!r} for key {key!r}"
        ) from None


def parse_config(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse and validate a config file; all defaults filled.

    Keys in the file override `base`, and a ``preset`` named in the file
    replaces it. Without either, the file must set ``method`` and the
    remaining defaults are those of :class:`ExperimentConfig`.
    """
    table = _scan(text)

    if "preset" in table["method"]:
        name, line_no = table["method"]["preset"]
        try:
            base = preset_config(name)
        except ConfigError as exc:
            raise ConfigError(f"line {line_no}: {exc}") from None
    elif base is None:
        if "method" not in table["method"]:
            raise ConfigError("missing required key 'method' in section [method]")
        base = ExperimentConfig()

    if "method" in table["method"]:
        value, line_no = table["method"]["method"]
        if value not in METHODS:
            raise ConfigError(f"line {line_no}: method must be one of {METHODS}, got {value!r}")
        base = replace(base, method=value)

    train_updates = {}
    for key, (value, line_no) in table["train"].items():
        name, parse, _ = _TRAIN_KEYS[key]
        train_updates[name] = _convert(parse, key, value, line_no)
    if train_updates:
        try:
            base = replace(base, train=replace(base.train, **train_updates))
        except ValueError as exc:
            raise ConfigError(f"section [train]: {exc}") from None

    data_updates = {}
    for key, (value, line_no) in table["data"].items():
        if key == "source":
            data_updates["data_source"] = value
        elif key == "path":
            data_updates["data_path"] = value
        elif key == "cost_matrix":
            data_updates["cost_matrix_path"] = value
        else:
            data_updates["ood_subsample"] = _convert(int, key, value, line_no)

    eval_updates = {}
    grid_updates = {}
    for key, (value, line_no) in table["eval"].items():
        if key == "tnr_targets":
            eval_updates["tnr_targets"] = _convert(_float_tuple, key, value, line_no)
        elif key == "replications":
            eval_updates["replications"] = _convert(int, key, value, line_no)
        elif key == "output_dir":
            eval_updates["output_dir"] = value
        else:
            name, parse, _ = _GRID_KEYS[key]
            grid_updates[name] = _convert(parse, key, value, line_no)
    if grid_updates:
        try:
            eval_updates["grid"] = replace(base.grid, **grid_updates)
        except ValueError as exc:
            raise ConfigError(f"section [eval]: {exc}") from None

    try:
        return replace(base, **data_updates, **eval_updates)
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from None


def _field_lines(obj, keys) -> list[str]:
    return [f"{key} = {fmt(getattr(obj, name))}" for key, (name, _, fmt) in keys.items()]


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical full text form; parse(serialize(c)) == c."""
    lines = [
        "[method]",
        f"method = {config.method}",
        "",
        "[train]",
        *_field_lines(config.train, _TRAIN_KEYS),
        "",
        "[data]",
        f"source = {config.data_source}",
    ]
    if config.data_path is not None:
        lines.append(f"path = {config.data_path}")
    if config.cost_matrix_path is not None:
        lines.append(f"cost_matrix = {config.cost_matrix_path}")
    if config.ood_subsample is not None:
        lines.append(f"ood_subsample = {config.ood_subsample}")
    lines += [
        "",
        "[eval]",
        f"tnr_targets = {' '.join(fmt_float(x) for x in config.tnr_targets)}",
        f"replications = {config.replications}",
        *_field_lines(config.grid, _GRID_KEYS),
        f"output_dir = {config.output_dir}",
    ]
    return "\n".join(lines) + "\n"
