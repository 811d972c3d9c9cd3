"""Experiment runner and CLI: files, aggregates, determinism, exit codes."""

import csv
import importlib.util
import inspect
import io
import pickle
import stat
from pathlib import Path

import numpy as np
import pytest

import oodlab.cli as cli
import oodlab.experiment as experiment
from oodlab.cli import main
from oodlab.config import ExperimentConfig, parse_config, preset_config
from oodlab.data import Dataset, write_dataset_csv
from oodlab.detection import GridSpec
from oodlab.experiment import (
    compare_rejection_regions,
    load_report,
    run_experiment,
    run_replication,
)
from oodlab.rng import Rng
from oodlab.training import TrainConfig


def tiny_config(**kwargs):
    """Fast 2-replication run for file-level checks."""
    train = TrainConfig(iterations=25, batch_ind=16, batch_gen=8, seed=11)
    base = dict(
        method="see_ood",
        train=train,
        ood_subsample=2,
        replications=2,
        grid=GridSpec(-1.0, 8.0, -1.0, 8.0, 12),
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


def read_report_rows(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


class TestRunExperiment:
    def test_writes_expected_files(self, tmp_path):
        report = run_experiment(tiny_config(), tmp_path)
        for name in ("config.ini", "report.csv", "summary.txt"):
            assert (tmp_path / name).exists()
        for rep in (0, 1):
            rep_dir = tmp_path / f"rep{rep:03d}"
            for name in ("history.csv", "weights_discriminator.txt",
                         "weights_generator.txt", "heatmap.npy", "heatmap.pgm"):
                assert (rep_dir / name).exists()
        assert set(report.files) >= {"config.ini", "report.csv", "rep000/heatmap.npy"}
        assert "data: builtin, ood_subsample=2\n" in (tmp_path / "summary.txt").read_text()

    def test_pgm_is_raw_header_and_one_byte_per_cell(self, tmp_path):
        run_experiment(tiny_config(replications=1), tmp_path)
        image = (tmp_path / "rep000" / "heatmap.pgm").read_bytes()
        header = b"P5\n12 12\n255\n"
        assert image.startswith(header) and len(image) == len(header) + 12 * 12

    def test_output_directory_is_required(self):
        assert inspect.signature(run_experiment).parameters["out_dir"].default is (
            inspect.Parameter.empty)

    def test_wood_run_has_no_generator_weights(self, tmp_path):
        cfg = tiny_config(method="wood")
        run_experiment(cfg, tmp_path)
        assert not (tmp_path / "rep000" / "weights_generator.txt").exists()

    def test_single_replication_has_zero_mad(self, tmp_path):
        report = run_experiment(tiny_config(replications=1), tmp_path)
        assert report.mad_accuracy == 0.0
        assert all(v == 0.0 for v in report.mad_tprs)

    def test_replication_seeds_offset_from_base(self, tmp_path):
        report = run_experiment(tiny_config(), tmp_path)
        assert [r.seed for r in report.replications] == [11, 12]

    def test_report_aggregates_recomputable(self, tmp_path):
        run_experiment(tiny_config(), tmp_path)
        header, rows = read_report_rows(tmp_path / "report.csv")
        body = [r for r in rows if r[0] not in ("mean", "mad")]
        mean_row = next(r for r in rows if r[0] == "mean")
        mad_row = next(r for r in rows if r[0] == "mad")
        for col in range(2, len(header)):
            values = np.array([float(r[col]) for r in body])
            assert abs(values.mean() - float(mean_row[col])) < 1e-12
            assert abs(np.mean(np.abs(values - values.mean())) - float(mad_row[col])) < 1e-12

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_config()
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_experiment(cfg, a)
        run_experiment(cfg, b)
        files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert files
        for rel in files:
            assert (b / rel).exists()
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_run_replication_metrics_present(self):
        rep = run_replication(tiny_config(), 0)
        assert 0.0 <= rep.accuracy <= 1.0
        assert len(rep.tprs) == 2 and len(rep.etas) == 2
        assert rep.heatmap is not None and rep.heatmap.shape == (12, 12)

    @pytest.mark.parametrize("entry", ["file", "empty-dir", "dotfile"])
    def test_nonempty_out_dir_is_refused(self, tmp_path, monkeypatch, entry):
        trained = []
        monkeypatch.setattr(experiment, "train_see_ood", lambda *a: trained.append(a))
        out = tmp_path / "run"
        out.mkdir()
        if entry == "empty-dir":
            (out / "sub").mkdir()
        else:
            (out / ("x.txt" if entry == "file" else ".x")).write_text("kept")
        before = sorted(p.relative_to(out) for p in out.rglob("*"))
        with pytest.raises(FileExistsError, match=f"output directory {out} is not empty"):
            run_experiment(tiny_config(), out)
        assert trained == []
        assert sorted(p.relative_to(out) for p in out.rglob("*")) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]

    def test_empty_out_dir_is_used(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        report = run_experiment(tiny_config(replications=1), out)
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                      if p.is_file()) == list(report.files)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]

    def test_missing_parents_are_created(self, tmp_path):
        out = tmp_path / "a" / "b" / "run"
        run_experiment(tiny_config(replications=1), out)
        assert (out / "summary.txt").exists()
        assert sorted(p.name for p in out.parent.iterdir()) == ["run"]

    def test_run_directory_has_umask_mode(self, tmp_path):
        """The run is not left with the owner-only mode of its temporary parent."""
        reference = tmp_path / "reference"
        reference.mkdir()
        out = tmp_path / "run"
        run_experiment(tiny_config(replications=1), out)
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)

    @pytest.mark.parametrize("writer", ["write_history_csv", "write_params",
                                        "write_heatmap", "_write_report_csv",
                                        "_write_summary"])
    def test_failed_write_leaves_nothing(self, tmp_path, monkeypatch, writer):
        def fail(*args):
            raise OSError(f"{writer} failed")

        monkeypatch.setattr(experiment, writer, fail)
        with pytest.raises(OSError, match=f"{writer} failed"):
            run_experiment(tiny_config(), tmp_path / "run")
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_write_leaves_nothing(self, tmp_path, monkeypatch):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(experiment, "write_heatmap_pgm", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(tiny_config(), tmp_path / "run")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("method", ["see_ood", "wood"])
    def test_summary_lists_every_written_file(self, tmp_path, method):
        out = tmp_path / "run"
        report = run_experiment(tiny_config(method=method), out)
        written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
        assert list(report.files) == written
        summary = (out / "summary.txt").read_text()
        assert summary.endswith("files:\n" + "".join(f"  {name}\n" for name in written))


class TestCompare:
    def test_self_comparison_is_zero(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(tiny_config(), out)
        loaded = load_report(out)
        record = compare_rejection_regions(loaded, loaded, 0.95)
        assert record.differences == (0.0, 0.0)
        assert record.mean_difference == 0.0

    def test_mismatched_grids_rejected(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_experiment(tiny_config(), a)
        run_experiment(tiny_config(grid=GridSpec(-1.0, 8.0, -1.0, 8.0, 10)), b)
        with pytest.raises(ValueError, match="grid"):
            compare_rejection_regions(load_report(a), load_report(b), 0.95)

    def test_unknown_tnr_rejected(self, tmp_path):
        out = tmp_path / "run"
        run_experiment(tiny_config(), out)
        loaded = load_report(out)
        with pytest.raises(ValueError, match="TNR"):
            compare_rejection_regions(loaded, loaded, 0.5)


def replace_cell(line, column, value):
    """`line`, a CSV row without quoting, with cell `column` set to `value`."""
    cells = line.split(",")
    cells[column] = value
    return ",".join(cells)


def npy_bytes(array, save=np.save) -> bytes:
    """What `save` (``numpy.save`` by default) writes for `array`, object arrays included."""
    f = io.BytesIO()
    save(f, array, allow_pickle=True)
    return f.getvalue()


def write_tiny_config(path, method="see_ood", extra=""):
    path.write_text(
        f"[method]\nmethod = {method}\n"
        "[train]\niterations = 20\nbatch_ind = 16\nbatch_gen = 8\n"
        "[data]\nood_subsample = 2\n"
        "[eval]\nreplications = 1\ngrid_resolution = 8\n" + extra
    )


class TestCli:
    def test_gen_data(self, tmp_path):
        out = tmp_path / "out"
        assert main(["gen-data", "--out", str(out), "--seed", "3"]) == 0
        text = (out / "dataset.csv").read_text().splitlines()
        assert text[0] == "x1,x2,label,split"
        assert len(text) == 1 + 8000

    def test_replicate_and_compare(self, tmp_path):
        cfg_a = tmp_path / "a.ini"
        cfg_b = tmp_path / "b.ini"
        write_tiny_config(cfg_a)
        write_tiny_config(cfg_b, method="wood")
        run_a = tmp_path / "runa"
        run_b = tmp_path / "runb"
        assert main(["replicate", "--config", str(cfg_a), "--out", str(run_a)]) == 0
        assert main(["replicate", "--config", str(cfg_b), "--out", str(run_b)]) == 0
        out = tmp_path / "cmp"
        assert main(["compare", "--a", str(run_a), "--b", str(run_b),
                     "--tnr", "0.95", "--out", str(out)]) == 0
        rows = (out / "comparison.csv").read_text().splitlines()
        assert rows[0] == "replication,area_a,area_b,difference"

    @pytest.mark.parametrize("doctor, message", [
        (lambda hm: b"", "EOF"),
        (lambda hm: npy_bytes(hm)[:-8], "Failed to read all data"),
        (lambda hm: npy_bytes(hm) + b"\0", "has bytes after its array"),
        (lambda hm: npy_bytes(hm, np.savez), "magic string is not correct"),
        (lambda hm: pickle.dumps(hm), "magic string is not correct"),
        (lambda hm: "\r\n".join(",".join(map(repr, row)) for row in hm.tolist()).encode(),
         "magic string is not correct"),
        (lambda hm: npy_bytes(hm.astype(object)), "allow_pickle=False"),
        (lambda hm: npy_bytes(np.array([*hm[:-1].tolist(), hm[-1, :-1].tolist()], dtype=object)),
         "allow_pickle=False"),
        (lambda hm: npy_bytes((1000 * hm).astype(np.int64)), "holds a <i8 array of shape (8, 8)"),
        (lambda hm: npy_bytes(hm.astype(">f8")), "holds a >f8 array of shape (8, 8)"),
        (lambda hm: npy_bytes(hm.ravel()), "shape (64,), expected <f8 of shape (8, 8)"),
        (lambda hm: npy_bytes(hm[None]), "shape (1, 8, 8), expected <f8 of shape (8, 8)"),
        (lambda hm: npy_bytes(hm[:-1]), "shape (7, 8), expected <f8 of shape (8, 8)"),
        (lambda hm: npy_bytes(hm[:, :-1]), "shape (8, 7), expected <f8 of shape (8, 8)"),
        (lambda hm: npy_bytes(np.where(np.arange(64).reshape(8, 8) == 9, np.nan, hm)),
         "non-finite"),
        (lambda hm: npy_bytes(np.where(np.arange(64).reshape(8, 8) == 63, -np.inf, hm)),
         "non-finite"),
    ], ids=["empty", "truncated", "trailing", "npz", "pickled", "text", "object", "ragged", "int",
            "big-endian", "1-D", "3-D", "short", "narrow", "nan", "-inf"])
    def test_compare_rejects_doctored_heatmap(self, tmp_path, capsys, doctor, message):
        cfg = tmp_path / "c.ini"
        write_tiny_config(cfg, method="wood")
        run = tmp_path / "run"
        assert main(["replicate", "--config", str(cfg), "--out", str(run)]) == 0
        heatmap = run / "rep000" / "heatmap.npy"
        heatmap.write_bytes(doctor(np.load(heatmap)))
        out = tmp_path / "cmp"
        assert main(["compare", "--a", str(run), "--b", str(run), "--tnr", "0.95",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"heatmap file {heatmap}" in err
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("doctor, message", [
        (lambda rows: [], "is empty"),
        (lambda rows: [rows[0], rows[1].split(",", 1)[0], *rows[2:]], "shorter than its header"),
        (lambda rows: [rows[0].replace("eta_at_0.95", "eta_at_95"), *rows[1:]],
         "no eta_at_0.95 column"),
        (lambda rows: [rows[0], "one" + rows[1][rows[1].index(","):], *rows[2:]],
         "row label 'one'"),
        (lambda rows: [rows[0], replace_cell(rows[1], rows[0].split(",").index("eta_at_0.95"),
                                             "abc"), *rows[2:]],
         "eta_at_0.95 = 'abc' for replication '0', not a finite number"),
        (lambda rows: [rows[0], replace_cell(rows[1], rows[0].split(",").index("eta_at_0.95"),
                                             "nan"), *rows[2:]],
         "eta_at_0.95 = 'nan' for replication '0', not a finite number"),
        (lambda rows: [rows[0], replace_cell(rows[1], rows[0].split(",").index("eta_at_0.95"),
                                             "inf"), *rows[2:]],
         "eta_at_0.95 = 'inf' for replication '0', not a finite number"),
    ], ids=["empty", "short-row", "no-eta-column", "text-label", "text-eta", "nan-eta",
            "inf-eta"])
    def test_compare_rejects_doctored_report(self, tmp_path, capsys, doctor, message):
        cfg = tmp_path / "c.ini"
        write_tiny_config(cfg, method="wood")
        run = tmp_path / "run"
        assert main(["replicate", "--config", str(cfg), "--out", str(run)]) == 0
        report = run / "report.csv"
        rows = report.read_text().splitlines()
        report.write_text("".join(row + "\n" for row in doctor(rows)))
        out = tmp_path / "cmp"
        assert main(["compare", "--a", str(run), "--b", str(run), "--tnr", "0.95",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"report file {report}" in err
        assert message in err
        assert not out.exists()

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = tmp_path / "c.ini"
        write_tiny_config(cfg)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["replicate", "--config", str(cfg), "--out", str(a), "--seed", "1"]) == 0
        assert main(["replicate", "--config", str(cfg), "--out", str(b), "--seed", "2"]) == 0
        history = Path("rep000") / "history.csv"
        assert (a / history).read_text() != (b / history).read_text()

    def test_preset_flag_runs(self, tmp_path):
        out = tmp_path / "run"
        # Preset plus a config file that shrinks the run for test speed.
        cfg = tmp_path / "small.ini"
        cfg.write_text("[train]\niterations = 10\n[eval]\nreplications = 1\n"
                       "grid_resolution = 8\n")
        assert main(["replicate", "--preset", "setting1", "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert parse_config((out / "config.ini").read_text()).train.n_d == 2

    @pytest.mark.parametrize("text, line", [
        ("[method]\nmethod = see_ood\n[train]\nbogus = 1\n", 4),
        ("[train]\niterations = 10\nbogus = 1\n", 3),
    ], ids=["method-section", "no-method-section"])
    def test_preset_flag_keeps_config_line_numbers(self, tmp_path, capsys, text, line):
        cfg = tmp_path / "c.ini"
        cfg.write_text(text)
        assert main(["replicate", "--preset", "setting1", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"line {line}: unknown key 'bogus'" in capsys.readouterr().err

    def test_oversized_ood_subsample_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        write_tiny_config(cfg)
        cfg.write_text(cfg.read_text().replace("ood_subsample = 2", "ood_subsample = 5000"))
        assert main(["replicate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "ood_subsample" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_wrong_size_cost_matrix_fails_before_training(self, tmp_path, capsys,
                                                           monkeypatch):
        trained = []
        monkeypatch.setattr(experiment, "train_see_ood", lambda *a: trained.append(a))
        (tmp_path / "m.csv").write_text("\n".join(["0,1,1,1", "1,0,1,1",
                                                   "1,1,0,1", "1,1,1,0"]) + "\n")
        cfg = tmp_path / "c.ini"
        write_tiny_config(cfg, extra=f"[data]\ncost_matrix = {tmp_path / 'm.csv'}\n")
        assert main(["replicate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "cost matrix is 4x4 but data has 3 classes" in capsys.readouterr().err
        assert trained == []
        assert not (tmp_path / "o").exists()

    def test_cost_matrix_reaches_the_trainer(self, tmp_path, monkeypatch):
        trained = []
        train_see_ood = experiment.train_see_ood
        monkeypatch.setattr(experiment, "train_see_ood",
                            lambda *a: trained.append(a) or train_see_ood(*a))
        (tmp_path / "m.csv").write_text("0,1,2\n1,0,1\n2,1,0\n")
        cfg = tmp_path / "c.ini"
        write_tiny_config(cfg, extra=f"[data]\ncost_matrix = {tmp_path / 'm.csv'}\n")
        assert main(["replicate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert len(trained) == 1
        np.testing.assert_array_equal(trained[0][-1], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])

    @pytest.mark.parametrize("cost, message", [
        ("0,nan,1\n1,0,1\n1,1,0\n", "non-finite"),
        ("0,1,1\n1,0,inf\n1,1,0\n", "non-finite"),
        ("0,1,1\n1,0,-1\n1,1,0\n", "negative"),
        ("0,1,1\n1,0\n1,1,0\n", "column"),
    ], ids=["nan", "inf", "negative", "ragged"])
    def test_bad_cost_matrix_fails_before_training(self, tmp_path, capsys, monkeypatch,
                                                   cost, message):
        trained = []
        monkeypatch.setattr(experiment, "train_see_ood", lambda *a: trained.append(a))
        (tmp_path / "m.csv").write_text(cost)
        cfg = tmp_path / "c.ini"
        write_tiny_config(cfg, extra=f"[data]\ncost_matrix = {tmp_path / 'm.csv'}\n")
        assert main(["replicate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert message in capsys.readouterr().err
        assert trained == []
        assert not (tmp_path / "o").exists()

    def test_nonfinite_dataset_fails_before_training(self, tmp_path, capsys, monkeypatch):
        trained = []
        monkeypatch.setattr(experiment, "train_see_ood", lambda *a: trained.append(a))
        assert main(["gen-data", "--out", str(tmp_path / "d")]) == 0
        path = tmp_path / "d" / "dataset.csv"
        lines = path.read_text().splitlines()
        assert lines[1].endswith(",1,ind_train")
        lines[1] = "nan," + lines[1].split(",", 1)[1]
        path.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "c.ini"
        write_tiny_config(cfg)
        cfg.write_text(cfg.read_text().replace(
            "[data]\n", f"[data]\npath = {path}\n"))
        assert main(["replicate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert f"{path}:2: coordinates must be finite" in capsys.readouterr().err
        assert trained == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("split", ["ind_train", "ind_test", "ood_test"])
    def test_empty_split_fails_before_training(self, tmp_path, capsys, monkeypatch, split):
        trained = []
        monkeypatch.setattr(experiment, "train_see_ood", lambda *a: trained.append(a))
        assert main(["gen-data", "--out", str(tmp_path / "d")]) == 0
        path = tmp_path / "d" / "dataset.csv"
        lines = path.read_text().splitlines()
        path.write_text("".join(line + "\n" for line in lines if not line.endswith("," + split)))
        cfg = tmp_path / "c.ini"
        write_tiny_config(cfg)
        cfg.write_text(cfg.read_text().replace(
            "[data]\n", f"[data]\npath = {path}\n"))
        assert main(["replicate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert f"{path}: split {split} has no rows" in capsys.readouterr().err
        assert trained == []
        assert not (tmp_path / "o").exists()

    def test_architecture_mismatch_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        write_tiny_config(cfg)
        cfg.write_text(cfg.read_text().replace(
            "[train]\n", "[train]\ndiscriminator_arch = 2 128 4\n"))
        assert main(["replicate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "does not match class count 3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value, section", [
        # Removed keys: unknown, so a configuration error too.
        ("adam_beta1", "1.5", "train"),
        ("adam_epsilon", "0", "train"),
        ("discriminator_arch", "2 0 3", "train"),
        ("ood_subsample", "0", "data"),
        ("tnr_targets", "1.5", "eval"),
        ("grid_x_min", "9", "eval"),
        ("replications", "0", "eval"),
        ("seed", "-5", "train"),
        ("tnr_targets", "0.95 0.9500000001", "eval"),
        ("tnr_targets", "0.95 0.95", "eval"),
    ])
    def test_bad_value_is_config_error(self, tmp_path, capsys, key, value, section):
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        assert main(["replicate", "--preset", "wood2d", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert key in err
        if section == "eval":
            assert "[eval]" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("preset, key", [("setting1", "lr_d"), ("wood2d", "beta_z")])
    def test_non_finite_hyperparameter_fails_before_training(self, tmp_path, capsys,
                                                             monkeypatch, preset, key):
        trained = []
        for name in ("train_see_ood", "train_wood"):
            monkeypatch.setattr(experiment, name, lambda *a: trained.append(a))
        cfg = tmp_path / "c.ini"
        cfg.write_text(f"[train]\n{key} = nan\n")
        assert main(["replicate", "--preset", preset, "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 2
        assert f"section [train]: {key} must be finite, got nan" in capsys.readouterr().err
        assert trained == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["gen-data"], ["replicate", "--preset", "wood2d"]],
                             ids=["gen-data", "replicate"])
    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys, command):
        assert main([*command, "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
        assert "--seed: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("option", [["--preset", "wood2d"], ["--config", "c.ini"]],
                             ids=["preset", "config"])
    def test_gen_data_takes_only_seed_and_out(self, tmp_path, capsys, option):
        with pytest.raises(SystemExit) as exit_info:
            main(["gen-data", *option, "--out", str(tmp_path / "o")])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[method]\nmethod = nonsense\n")
        assert main(["replicate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_empty_cost_matrix_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[method]\nmethod = wood\n[data]\ncost_matrix =\n")
        assert main(["replicate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "[data]: cost_matrix must not be empty" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_runtime_error_exit_code(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[method]\nmethod = wood\n[data]\npath = missing.csv\n")
        assert main(["replicate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("command", ["train", "evaluate", "heatmap"])
    def test_removed_command_is_usage_error(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--preset", "wood2d", "--out", str(tmp_path / "o")])
        assert exit_info.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_used_out_is_refused_before_training(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "c.ini"
        write_tiny_config(cfg)
        run = tmp_path / "run"
        assert main(["replicate", "--config", str(cfg), "--out", str(run)]) == 0
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        trained = []
        monkeypatch.setattr(experiment, "train_see_ood", lambda *a: trained.append(a))
        capsys.readouterr()
        assert main(["replicate", "--config", str(cfg), "--out", str(run)]) == 3
        assert f"output directory {run} is not empty" in capsys.readouterr().err
        assert trained == []
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize("command, work", [
        (["gen-data"], "make_simulation_dataset"),
        (["compare", "--a", "{run}", "--b", "{run}"], "load_report"),
    ], ids=["gen-data", "compare"])
    def test_used_out_is_refused_by_every_command(self, tmp_path, capsys, monkeypatch,
                                                  command, work):
        cfg = tmp_path / "c.ini"
        write_tiny_config(cfg)
        run = tmp_path / "run"
        assert main(["replicate", "--config", str(cfg), "--out", str(run)]) == 0
        before = sorted(p.relative_to(run) for p in run.rglob("*"))
        worked = []
        monkeypatch.setattr(cli, work, lambda *a: worked.append(a))
        capsys.readouterr()
        argv = [arg.format(run=run) for arg in command]
        assert main([*argv, "--out", str(run)]) == 3
        assert f"output directory {run} is not empty" in capsys.readouterr().err
        assert worked == []
        assert sorted(p.relative_to(run) for p in run.rglob("*")) == before

    def test_failed_write_leaves_no_directory(self, tmp_path, capsys, monkeypatch):
        calls = []
        write_heatmap_pgm = experiment.write_heatmap_pgm

        def fail_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise OSError("disk full")
            write_heatmap_pgm(*args)

        monkeypatch.setattr(experiment, "write_heatmap_pgm", fail_second)
        cfg = tmp_path / "c.ini"
        write_tiny_config(cfg)
        cfg.write_text(cfg.read_text().replace("replications = 1", "replications = 2"))
        run = tmp_path / "runs" / "run"
        assert main(["replicate", "--config", str(cfg), "--out", str(run)]) == 3
        assert "disk full" in capsys.readouterr().err
        assert len(calls) == 2
        assert not run.exists()
        assert list(run.parent.glob(".run.*")) == []

    @pytest.mark.parametrize("command, writer", [
        (["gen-data"], "write_dataset_csv"),
        (["compare", "--a", "{run}", "--b", "{run}"], "write_comparison_csv"),
    ], ids=["gen-data", "compare"])
    def test_failed_write_publishes_nothing(self, tmp_path, capsys, monkeypatch, command,
                                            writer):
        """As `test_failed_write_leaves_no_directory` checks for `replicate`."""
        cfg = tmp_path / "c.ini"
        write_tiny_config(cfg)
        run = tmp_path / "run"
        assert main(["replicate", "--config", str(cfg), "--out", str(run)]) == 0

        def fail(*args):
            raise OSError(f"{writer} failed")

        monkeypatch.setattr(cli, writer, fail)
        capsys.readouterr()
        out = tmp_path / "outs" / "out"
        argv = [arg.format(run=run) for arg in command]
        assert main([*argv, "--out", str(out)]) == 3
        assert f"{writer} failed" in capsys.readouterr().err
        assert not out.exists()
        assert list(out.parent.glob(".out.*")) == []

    def test_compare_takes_no_seed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["compare", "--a", "a", "--b", "b", "--seed", "1", "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_compare_missing_dir_exit_code(self, tmp_path):
        assert main(["compare", "--a", str(tmp_path / "nope"), "--b",
                     str(tmp_path / "nope2"), "--out", str(tmp_path / "o")]) == 3


class TestThreeDimensionalData:
    """Data with d = 3, the one path without heatmaps."""

    @pytest.fixture
    def config_path(self, tmp_path):
        rng = Rng(0)

        def points(n, center):
            return center + rng.standard_normal(3 * n).reshape(n, 3)

        labels = np.repeat(np.array([1, 2], dtype=np.int64), 4)
        data = Dataset(points(8, 0.0), labels, points(8, 0.0), labels.copy(),
                       points(3, 4.0), points(3, 4.0), d=3, K=2)
        write_dataset_csv(data, tmp_path / "d3.csv")
        cfg = tmp_path / "d3.ini"
        cfg.write_text("[method]\nmethod = wood\n"
                       "[train]\niterations = 5\nbatch_ind = 4\ndiscriminator_arch = 3 8 2\n"
                       f"[data]\npath = {tmp_path / 'd3.csv'}\n"
                       "[eval]\nreplications = 1\n")
        return cfg

    def test_replicate_writes_no_heatmaps(self, tmp_path, config_path):
        run = tmp_path / "run"
        assert main(["replicate", "--config", str(config_path), "--out", str(run)]) == 0
        assert sorted(p.name for p in (run / "rep000").iterdir()) == [
            "history.csv", "weights_discriminator.txt"]
        assert f"data: csv ({tmp_path / 'd3.csv'})\n" in (run / "summary.txt").read_text()

    def test_compare_names_missing_heatmap(self, tmp_path, capsys, config_path):
        run = tmp_path / "run"
        assert main(["replicate", "--config", str(config_path), "--out", str(run)]) == 0
        capsys.readouterr()
        assert main(["compare", "--a", str(run), "--b", str(run),
                     "--out", str(tmp_path / "cmp")]) == 3
        assert f"run {run} has no heatmap for replication 0" in capsys.readouterr().err
        assert not (tmp_path / "cmp").exists()


def test_seed_sweep_set_zero_is_the_gated_run(capsys):
    """`scripts/seed_sweep.py` prints, for set 0, the minima over the preset's own seeds."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "seed_sweep.py"
    spec = importlib.util.spec_from_file_location("seed_sweep", path)
    seed_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(seed_sweep)
    assert seed_sweep.main(["--preset", "wood2d", "--seeds", "1"]) == 0
    cfg = preset_config("wood2d")
    reps = [run_replication(cfg, r) for r in range(3)]
    column = cfg.tnr_targets.index(0.95)
    assert capsys.readouterr().out.splitlines()[1].split() == [
        "0", "0..2", f"{min(rep.accuracy for rep in reps):.4f}",
        f"{min(rep.tprs[column] for rep in reps):.4f}"]


def test_ab_time_checkout_against_itself(capsys):
    """`scripts/ab_time.py` run on one checkout twice finds byte-equal outputs every round."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("ab_time", root / "scripts" / "ab_time.py")
    ab_time = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_time)
    assert ab_time.main([str(root), str(root), "--preset", "wood2d", "--iterations", "20",
                         "--rounds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "trained weights byte-equal in 2 of 2 rounds" in lines
    assert "heatmaps byte-equal in 2 of 2 rounds" in lines
    assert [line.split()[0] for line in lines[-4:]] == ["us_per_iteration", "steps_per_s",
                                                        "heatmap_ms", "peak_kb"]
    assert any(line.startswith("change traced peak ") for line in lines)
    # Peaks that differ print with enough decimals to show it.
    assert ab_time.spread(2128.91, 2128.94) == "2128.91 to 2128.94"


def test_op_count_wood2d_matmuls(capsys):
    """`scripts/op_count.py` repeats exactly and books wood2d's 6 matmuls per iteration."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("op_count", root / "scripts" / "op_count.py")
    op_count = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(op_count)
    outputs = []
    for _ in range(2):
        assert op_count.main(["--preset", "wood2d"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    rows = {line.split()[0]: line.split()[1:] for line in outputs[0].splitlines()[1:]}
    assert rows["matmul"] == ["6.00"]
    # 2 in the forward pass, 1 in the score, 3 in the backward pass.
    assert "matmul 2.00" in " ".join(rows["nets._forward.run"])
    assert "matmul 1.00" in " ".join(rows["wasserstein._score_rows.run"])
    assert "matmul 3.00" in " ".join(rows["nets._backward.run"])
    # The counting wrappers are gone afterwards.
    assert isinstance(np.matmul, np.ufunc)


def test_loc_rows_sum_to_line_counts(tmp_path, capsys):
    """`scripts/loc.py` counts each line once, by kind, per module and in the sum row."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("loc", root / "scripts" / "loc.py")
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text('"""Module doc.\n\nMore."""\n# comment\n\n'
                                  'class C:\n    """Class doc."""\n\n'
                                  '    def f(self):\n        """Function\n        doc."""\n'
                                  '        return 1  # trailing\n')
    (package / "b.py").write_text("x = 1\n\n\n    # indented comment\ny = '''not\na doc'''\n")
    assert loc.main([str(package)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "total", "code", "docstring", "comment", "blank"]
    assert [row.split() for row in rows] == [
        ["a.py", "12", "3", "6", "1", "2"],
        ["b.py", "6", "3", "0", "1", "2"],
        ["sum", "18", "6", "6", "2", "4"],
    ]

    package = Path(experiment.__file__).parent
    assert loc.main([str(package)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    paths = sorted(package.glob("*.py"))
    assert [row.split()[0] for row in rows] == [p.name for p in paths] + ["sum"]
    lengths = [len(p.read_text(encoding="utf-8").splitlines()) for p in paths]
    for row, length in zip(rows, lengths + [sum(lengths)]):
        total, *kinds = map(int, row.split()[1:])
        assert total == sum(kinds) == length
