"""Config parsing: defaults, precise errors, presets, round trip."""

import re
from dataclasses import fields

import pytest

from oodlab import config as config_mod
from oodlab.config import (
    ConfigError,
    ExperimentConfig,
    PRESETS,
    parse_config,
    preset_config,
    serialize_config,
)
from oodlab.detection import GridSpec
from oodlab.training import TrainConfig


MINIMAL = "[method]\nmethod = see_ood\n"


class TestParsing:
    def test_minimal_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.method == "see_ood"
        assert cfg.train.iterations == 2000
        assert cfg.train.batch_ind == 64
        assert cfg.tnr_targets == (0.95, 0.99)
        assert cfg.replications == 3
        assert cfg.grid.resolution == 200
        assert cfg.data_path is None

    def test_empty_train_section_keeps_defaults(self):
        cfg = parse_config(MINIMAL + "\n[train]\n")
        assert cfg.train.iterations == 2000
        assert cfg.train.lr_d == pytest.approx(1e-4)

    def test_values_override(self):
        text = MINIMAL + (
            "[train]\n"
            "iterations = 50\n"
            "discriminator_arch = 2 32 3\n"
            "[eval]\n"
            "tnr_targets = 0.9 0.95\n"
            "grid_resolution = 50\n"
        )
        cfg = parse_config(text)
        assert cfg.train.iterations == 50
        assert cfg.train.discriminator_arch == (2, 32, 3)
        assert cfg.tnr_targets == (0.9, 0.95)
        assert cfg.grid.resolution == 50

    def test_comments_and_blanks_ignored(self):
        text = "# top\n\n[method]\n; note\nmethod = wood\n"
        assert parse_config(text).method == "wood"

    def test_missing_method_rejected(self):
        with pytest.raises(ConfigError, match="method"):
            parse_config("[train]\niterations = 5\n")

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 3.*'momentum'"):
            parse_config("[method]\nmethod = wood\nmomentum = 0.9\n")

    def test_unknown_section_names_line(self):
        with pytest.raises(ConfigError, match=r"line 1.*optimizer"):
            parse_config("[optimizer]\n")

    def test_invalid_value_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 4.*'iterations'"):
            parse_config("[method]\nmethod = wood\n[train]\niterations = soon\n")

    def test_zero_replications_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "[eval]\nreplications = 0\n")

    def test_bad_tnr_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "[eval]\ntnr_targets = 1.5\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(MINIMAL + "[train]\nn_d = 1\nn_d = 2\n")

    def test_empty_path_rejected(self):
        with pytest.raises(ConfigError, match=r"\[data\]: path must not be empty"):
            parse_config(MINIMAL + "[data]\npath =\n")

    def test_empty_cost_matrix_rejected(self):
        with pytest.raises(ConfigError, match=r"\[data\]: cost_matrix must not be empty"):
            parse_config(MINIMAL + "[data]\ncost_matrix =\n")

    @pytest.mark.parametrize("section, key", [
        ("data", "source"), ("train", "noise_dim"), ("eval", "output_dir"),
        ("train", "adam_beta1"), ("train", "adam_beta2"), ("train", "adam_epsilon")])
    def test_removed_key_is_unknown(self, section, key):
        # `path` selects the data, `generator_arch` the noise width, --out the directory,
        # and Adam's beta1, beta2 and epsilon are `nets` constants.
        with pytest.raises(ConfigError, match=rf"line 4: unknown key '{key}'"):
            parse_config(MINIMAL + f"[{section}]\n{key} = 2\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section, key", [
        ("train", "beta_ood"), ("train", "beta_z"), ("train", "lr_d"), ("train", "lr_g"),
        ("eval", "grid_x_min"), ("eval", "grid_x_max"), ("eval", "grid_y_min"),
        ("eval", "grid_y_max")])
    def test_non_finite_value_rejected(self, section, key, value):
        # A NaN would also break parse(serialize(c)) == c, since NaN != NaN.
        with pytest.raises(ConfigError, match=rf"\[{section}\]: {key} must be finite, got {value}"):
            parse_config(MINIMAL + f"[{section}]\n{key} = {value}\n")

    def test_bad_method_value(self):
        with pytest.raises(ConfigError, match="method"):
            parse_config("[method]\nmethod = extra\n")

    def test_bad_data_value_names_line(self):
        with pytest.raises(ConfigError, match=r"line 4.*'ood_subsample'"):
            parse_config(MINIMAL + "[data]\nood_subsample = many\n")


class TestPresets:
    def test_known_names(self):
        assert set(PRESETS) == {"setting1", "setting2", "wood2d"}

    def test_setting1_tuple(self):
        cfg = preset_config("setting1")
        t = cfg.train
        assert (t.beta_ood, t.beta_z, t.n_d, t.n_g, t.lr_d, t.lr_g) == (
            1.0, 0.001, 2, 1, 0.0001, 0.0001)
        assert cfg.method == "see_ood"
        assert cfg.ood_subsample == 2

    def test_setting2_tuple(self):
        t = preset_config("setting2").train
        assert (t.beta_ood, t.beta_z, t.n_d, t.n_g, t.lr_d, t.lr_g) == (
            1.0, 100.0, 1, 3, 0.0001, 0.001)

    def test_wood2d_values(self):
        cfg = preset_config("wood2d")
        assert cfg.method == "wood"
        assert cfg.train.beta_ood == 1.0
        assert cfg.train.lr_d == pytest.approx(1e-3)

    def test_preset_in_file_with_overrides(self):
        text = "[method]\npreset = setting1\n[train]\niterations = 7\n"
        cfg = parse_config(text)
        assert cfg.train.iterations == 7
        assert cfg.train.n_d == 2

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_config("[method]\npreset = setting9\n")


class TestRoundTrip:
    def test_setting1_round_trips(self):
        original = preset_config("setting1")
        assert parse_config(serialize_config(original)) == original

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_all_presets_round_trip(self, name):
        original = preset_config(name)
        assert parse_config(serialize_config(original)) == original

    def test_every_train_and_grid_key_round_trips(self):
        text = MINIMAL + (
            "[train]\n"
            "beta_ood = 2.5\nbeta_z = 0.125\nn_d = 3\nn_g = 4\nlr_d = 0.003\nlr_g = 0.007\n"
            "batch_ind = 17\nbatch_ood = 9\nbatch_gen = 33\n"
            "iterations = 11\nseed = 42\n"
            "discriminator_arch = 2 16 8 3\ngenerator_arch = 3 24 2\n"
            "[eval]\n"
            "grid_x_min = -2.5\ngrid_x_max = 6.25\ngrid_y_min = 0.1\ngrid_y_max = 9\n"
            "grid_resolution = 37\n"
        )
        cfg = parse_config(text)
        defaults = ExperimentConfig()
        for f in fields(TrainConfig):
            assert getattr(cfg.train, f.name) != getattr(defaults.train, f.name), f.name
        for f in fields(GridSpec):
            assert getattr(cfg.grid, f.name) != getattr(defaults.grid, f.name), f.name
        assert parse_config(serialize_config(cfg)) == cfg

    def test_custom_config_round_trips(self):
        cfg = parse_config(MINIMAL + (
            "[data]\npath = data/points.csv\ncost_matrix = data/cost.csv\n"
            "ood_subsample = 5\n"
            "[eval]\ntnr_targets = 0.9, 0.95,0.5\nreplications = 2\n"
        ))
        assert serialize_config(cfg) == (
            "[method]\nmethod = see_ood\n\n"
            "[train]\nbeta_ood = 1\nbeta_z = 0.001\nn_d = 2\nn_g = 1\nlr_d = 0.0001\n"
            "lr_g = 0.0001\nbatch_ind = 64\nbatch_ood = 32\nbatch_gen = 64\n"
            "iterations = 2000\nseed = 0\ndiscriminator_arch = 2 128 3\n"
            "generator_arch = 2 128 2\n\n"
            "[data]\npath = data/points.csv\ncost_matrix = data/cost.csv\n"
            "ood_subsample = 5\n\n"
            "[eval]\ntnr_targets = 0.90000000000000002 0.94999999999999996 0.5\n"
            "replications = 2\ngrid_x_min = -1\ngrid_x_max = 8\ngrid_y_min = -1\n"
            "grid_y_max = 8\ngrid_resolution = 200\n"
        )
        assert parse_config(serialize_config(cfg)) == cfg

    def test_docstring_names_every_key(self):
        """The key reference (the `--help` epilog) names each key, and no other."""
        cfg = ExperimentConfig(data_path="d.csv", cost_matrix_path="c.csv", ood_subsample=1)
        keys = [line.split(" = ")[0] for line in serialize_config(cfg).splitlines()
                if " = " in line]
        assert len(keys) == 24
        for key in keys + ["preset"]:
            assert key in config_mod.__doc__.split(), key
        # The indented block: `key = ...` lines, and [train]'s list of bare keys.
        named = []
        for line in config_mod.__doc__.splitlines():
            line = line.split("#")[0]
            if line.startswith("    ") and not line.strip().startswith("["):
                named += re.findall(r"(\w+) =", line) if "=" in line else line.split()
        assert sorted(named) == sorted(keys + ["preset"])


class TestExperimentConfigValidation:
    def test_replications_floor(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(replications=0)

    def test_negative_subsample(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(ood_subsample=-1)

    @pytest.mark.parametrize("targets", [(0.95, 0.9500000001), (0.95, 0.95), (0.99, 0.5, 0.99)])
    def test_targets_with_one_label_rejected(self, targets):
        """report.csv names its columns by ``format(t, "g")``; two targets may not share one."""
        with pytest.raises(ConfigError, match=r"section \[eval\]: tnr_targets"):
            ExperimentConfig(tnr_targets=targets)
