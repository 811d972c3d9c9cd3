"""Experiment configuration: flat INI-style files, presets, serialization.

A config file has four sections; every key is optional except
``[method] method`` (a preset supplies it too). Unknown sections or keys are
rejected with the offending name and line number. Every value is checked
when the file is parsed: a bad value is a configuration error (exit 2) that
names its section and key, and its line if the value does not parse.

    [method]
    method = see_ood | wood
    preset = setting1 | setting2 | wood2d   # fills defaults, keys below override

    [train]
    beta_ood beta_z n_d n_g lr_d lr_g batch_ind batch_ood batch_gen
    iterations seed
    discriminator_arch = 2 128 3
    generator_arch = 2 128 2    # the first size is the noise width

    [data]
    path = <dataset csv; without it, the builtin benchmark>
    cost_matrix = <cost matrix csv for training and scoring; binary by default>
    ood_subsample = <keep this many OoD training points>

    [eval]
    tnr_targets = 0.95 0.99
    replications = 3
    grid_x_min = -1   grid_x_max = 8   grid_y_min = -1   grid_y_max = 8
    grid_resolution = 200

Checks that need the data (the OoD pool left by ``ood_subsample``, the cost
matrix's size against the classes, layer sizes against the data) also exit
2, before any training. A dataset or cost matrix file that cannot be read or
parsed, is empty or ragged, or holds a bad value (a non-finite coordinate; a
negative or non-finite cost, or a nonzero diagonal), or a dataset with no
ind_train, ind_test or ood_test rows, exits 3, also before any training.
TNR targets must differ when rounded to 6 significant digits, as report.csv
names its columns by them (exit 2).

Presets pin the 2-D benchmark runs: `setting1` is the discriminator-heavy
adversarial run (beta_ood 1, beta_z 0.001, n_d 2, n_g 1, both learning rates
1e-4), `setting2` the generator-heavy one (beta_ood 1, beta_z 100, n_d 1,
n_g 3, lr_d 1e-4, lr_g 1e-3), and `wood2d` the generator-free baseline
(beta 1, lr 1e-3). All three use the builtin dataset with 2 observed OoD
training points and 3 replications.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Literal, get_args, get_type_hints

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

Method = Literal["see_ood", "wood"]
METHODS = get_args(Method)


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to exit code 2 in the CLI)."""


def _tnr_label(t: float) -> str:
    """A TNR target as report.csv's columns and the printed digests name it."""
    return format(t, "g")


@dataclass(frozen=True)
class ExperimentConfig:
    method: Method = "see_ood"
    train: TrainConfig = field(default_factory=TrainConfig)
    data_path: str | None = None
    cost_matrix_path: str | None = None
    ood_subsample: int | None = None
    tnr_targets: tuple[float, ...] = (0.95, 0.99)
    replications: int = 3
    grid: GridSpec = field(default_factory=lambda: GridSpec(-1.0, 8.0, -1.0, 8.0, 200))

    def __post_init__(self):
        def require(ok: bool, section: str, message: str) -> None:
            # Messages name the section and key as a config file spells them.
            if not ok:
                raise ConfigError(f"section [{section}]: {message}")

        require(self.method in METHODS, "method",
                f"method must be one of {METHODS}, got {self.method!r}")
        require(self.data_path != "", "data", "path must not be empty")
        require(self.cost_matrix_path != "", "data", "cost_matrix must not be empty")
        require(self.ood_subsample is None or self.ood_subsample >= 0, "data",
                f"ood_subsample must be >= 0, got {self.ood_subsample}")
        require(self.replications >= 1, "eval",
                f"replications must be >= 1, got {self.replications}")
        require(len(self.tnr_targets) > 0, "eval", "tnr_targets needs at least one value")
        for t in self.tnr_targets:
            require(0.0 < t <= 1.0, "eval", f"tnr_targets must lie in (0, 1], got {t}")
        labels = [_tnr_label(t) for t in self.tnr_targets]
        require(len(set(labels)) == len(labels), "eval",
                "tnr_targets must differ when rounded to 6 significant digits, got "
                + " ".join(map(str, self.tnr_targets)))


# Per-preset budgets put each method in the same calibration regime: enough
# steps for >=99% accuracy and a settled threshold, not so many that the
# 95%-TNR cutoff degenerates to the noise floor. The baseline's 10x larger
# learning rate is why its budget is smallest.
PRESETS = {
    "setting1": ExperimentConfig(method="see_ood", ood_subsample=2, train=TrainConfig(
        beta_ood=1.0, beta_z=0.001, n_d=2, n_g=1, lr_d=1e-4, lr_g=1e-4, iterations=5000)),
    "setting2": ExperimentConfig(method="see_ood", ood_subsample=2, train=TrainConfig(
        beta_ood=1.0, beta_z=100.0, n_d=1, n_g=3, lr_d=1e-4, lr_g=1e-3, iterations=13000)),
    "wood2d": ExperimentConfig(method="wood", ood_subsample=2, train=TrainConfig(
        beta_ood=1.0, lr_d=1e-3, iterations=400)),
}


def preset_config(name: str) -> ExperimentConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None


def _tuple_of(kind):
    def parse(value: str) -> tuple:
        parts = value.replace(",", " ").split()
        if not parts:
            raise ValueError("empty list")
        return tuple(kind(p) for p in parts)
    return parse


def _choice(literal):
    def parse(value: str) -> str:
        if value not in get_args(literal):
            raise ValueError(f"choose from {', '.join(get_args(literal))}")
        return value
    return parse


# Parser and formatter for each field type. An optional field parses as its
# non-None type; a None value is left out of the written file.
_FIELD_KINDS = {
    float: (float, fmt_float),
    int: (int, str),
    int | None: (int, str),
    str | None: (str, str),
    Method: (_choice(Method), str),
    tuple[int, ...]: (_tuple_of(int), lambda values: " ".join(map(str, values))),
    tuple[float, ...]: (_tuple_of(float), lambda values: " ".join(map(fmt_float, values))),
}


def _keys(cls, owner: str | None, names: dict[str, str] | None = None,
          prefix: str = "") -> dict[str, tuple]:
    """Key -> (owner, field, parser, formatter) for `names` (key -> field) or every field."""
    hints = get_type_hints(cls)
    names = names or {prefix + f.name: f.name for f in fields(cls)}
    return {key: (owner, name, *_FIELD_KINDS[hints[name]]) for key, name in names.items()}


# Section -> key -> (owner, field, parser, formatter), in written order.
# ``[method] preset`` is the one key outside it: it selects the base config.
_KEYS = {
    "method": _keys(ExperimentConfig, None, {"method": "method"}),
    "train": _keys(TrainConfig, "train"),
    "data": _keys(ExperimentConfig, None, {"path": "data_path",
                                           "cost_matrix": "cost_matrix_path",
                                           "ood_subsample": "ood_subsample"}),
    "eval": {
        **_keys(ExperimentConfig, None, {"tnr_targets": "tnr_targets",
                                         "replications": "replications"}),
        **_keys(GridSpec, "grid", prefix="grid_"),
    },
}


def _scan(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    """Raw section/key/value table with line numbers; structural errors only."""
    table: dict[str, dict[str, tuple[str, int]]] = {name: {} for name in _KEYS}
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _KEYS:
                raise ConfigError(f"line {line_no}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key = value, got {line!r}")
        if section is None:
            raise ConfigError(f"line {line_no}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS[section] and (section, key) != ("method", "preset"):
            raise ConfigError(f"line {line_no}: unknown key {key!r} in section [{section}]")
        if key in table[section]:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        table[section][key] = (value, line_no)
    return table


def parse_config(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse and validate a config file; all defaults filled.

    Keys in the file override `base`, and a ``preset`` named in the file
    replaces it. Without either, the file must set ``method`` and the
    remaining defaults are those of :class:`ExperimentConfig`.
    """
    table = _scan(text)

    if "preset" in table["method"]:
        name, line_no = table["method"].pop("preset")
        try:
            base = preset_config(name)
        except ConfigError as exc:
            raise ConfigError(f"line {line_no}: {exc}") from None
    elif base is None:
        if "method" not in table["method"]:
            raise ConfigError("missing required key 'method' in section [method]")
        base = ExperimentConfig()

    updates = {None: {}, "train": {}, "grid": {}}
    for section, entries in table.items():
        for key, (value, line_no) in entries.items():
            owner, name, parse, _ = _KEYS[section][key]
            try:
                updates[owner][name] = parse(value)
            except ValueError as exc:
                raise ConfigError(f"line {line_no}: invalid value {value!r} for key {key!r} "
                                  f"({exc})") from None
    for owner, section in (("train", "train"), ("grid", "eval")):
        if updates[owner]:
            try:
                updates[None][owner] = replace(getattr(base, owner), **updates[owner])
            except ValueError as exc:
                raise ConfigError(f"section [{section}]: {exc}") from None
    return replace(base, **updates[None])


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical full text form; parse(serialize(c)) == c."""
    lines = []
    for section, entries in _KEYS.items():
        lines += ["", f"[{section}]"]
        for key, (owner, name, _, fmt) in entries.items():
            value = getattr(getattr(config, owner) if owner else config, name)
            if value is not None:
                lines.append(f"{key} = {fmt(value)}")
    return "\n".join(lines[1:]) + "\n"
