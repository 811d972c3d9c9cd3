"""Experiment orchestration: replicated runs, reports, and comparisons.

A run writes a self-contained output directory:

    config.ini            canonical serialized configuration
    report.csv            one row per replication plus mean and mad rows
    summary.txt           human-readable digest
    rep000/ rep001/ ...   history.csv, weights_discriminator.txt, and for
                          see_ood weights_generator.txt; for 2-D data
                          heatmap.npy, heatmap.pgm

Every output directory, a run's or a CLI command's, is published whole by
:func:`publish_dir`. Replication r runs on seed ``base_seed + r`` with one
random stream for data, subsampling, initialization and training, so
(config, seed) fixes every output byte. Each replication calibrates its
own thresholds; aggregates are the mean and the mean absolute deviation.
"""

from __future__ import annotations

import csv
import math
import shutil
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, _tnr_label, parse_config, serialize_config
from .data import Dataset, make_simulation_dataset, read_dataset_csv, subsample_ood
from .detection import (
    mad,
    read_heatmap,
    rejection_region_area,
    score_heatmap,
    scores_and_accuracy,
    tpr_at_tnr,
    write_heatmap,
    write_heatmap_pgm,
)
from .nets import NumericError, write_csv, write_params
from .rng import Rng
from .training import (TrainHistory, check_architectures, train_see_ood, train_wood,
                       write_history_csv)
from .wasserstein import binary_cost_matrix, load_cost_matrix_csv, score_batch

__all__ = [
    "ReplicationResult",
    "ExperimentReport",
    "ComparisonRecord",
    "run_replication",
    "run_experiment",
    "publish_dir",
    "load_report",
    "compare_rejection_regions",
    "write_comparison_csv",
]


@dataclass(frozen=True)
class ReplicationResult:
    index: int
    seed: int
    accuracy: float
    mean_ind_score: float
    mean_ood_score: float
    tprs: tuple[float, ...]
    etas: tuple[float, ...]
    history: TrainHistory
    heatmap: np.ndarray | None


@dataclass(frozen=True)
class ExperimentReport:
    """A finished run; `means` and `mads` follow report.csv's metric columns."""

    config: ExperimentConfig
    replications: tuple[ReplicationResult, ...]
    means: tuple[float, ...]
    mads: tuple[float, ...]
    files: tuple[str, ...]

    @property
    def mean_accuracy(self) -> float:
        return self.means[0]

    @property
    def mad_accuracy(self) -> float:
        return self.mads[0]

    @property
    def mean_tprs(self) -> tuple[float, ...]:
        return self.means[3::2]

    @property
    def mad_tprs(self) -> tuple[float, ...]:
        return self.mads[3::2]


def _data_label(config: ExperimentConfig) -> str:
    return "builtin" if config.data_path is None else f"csv ({config.data_path})"


def _build_dataset(config: ExperimentConfig, rng: Rng) -> Dataset:
    if config.data_path is None:
        data = make_simulation_dataset(rng)
    else:
        data = read_dataset_csv(config.data_path)
    if config.ood_subsample is not None:
        pool = data.ood_train.shape[0]
        if config.ood_subsample > pool:
            raise ConfigError(
                f"ood_subsample {config.ood_subsample} exceeds the {pool} OoD training points"
            )
        data = subsample_ood(data, config.ood_subsample, rng)
    if data.ood_train.shape[0] == 0:
        raise ConfigError("training needs at least one observed OoD point; the data has none"
                          f" (data {_data_label(config)}, ood_subsample {config.ood_subsample})")
    return data


def _cost_matrix(config: ExperimentConfig, K: int) -> np.ndarray:
    """The run's one cost matrix, for training and scoring: the file's, or the binary one."""
    path = config.cost_matrix_path
    return binary_cost_matrix(K) if path is None else load_cost_matrix_csv(path)


def run_replication(config: ExperimentConfig, index: int) -> ReplicationResult:
    """Train and evaluate one replication on seed ``base_seed + index``."""
    seed = config.train.seed + index
    rng = Rng(seed)
    data = _build_dataset(config, rng)
    # Config/data mismatches fail here, before any training.
    M = _cost_matrix(config, data.K)
    see_ood = config.method == "see_ood"
    try:
        check_architectures(config.train, data, see_ood, M)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    history = (train_see_ood if see_ood else train_wood)(config.train, data, rng, M)
    D = history.discriminator
    ind_scores, accuracy = scores_and_accuracy(D, data.ind_test_x, data.ind_test_y, M)
    ood_scores = score_batch(D, data.ood_test, M)

    tprs, etas = zip(*(tpr_at_tnr(ind_scores, ood_scores, t) for t in config.tnr_targets))
    heatmap = score_heatmap(D, config.grid, M) if data.d == 2 else None
    return ReplicationResult(
        index=index,
        seed=seed,
        accuracy=accuracy,
        mean_ind_score=float(ind_scores.mean()),
        mean_ood_score=float(ood_scores.mean()),
        tprs=tprs,
        etas=etas,
        history=history,
        heatmap=heatmap,
    )


def _metric_columns(config: ExperimentConfig) -> tuple[str, ...]:
    targets = [_tnr_label(t) for t in config.tnr_targets]
    return ("accuracy", "mean_ind_score", "mean_ood_score",
            *chain.from_iterable((f"tpr_at_{t}", f"eta_at_{t}") for t in targets))


def _metric_row(rep: ReplicationResult) -> tuple[float, ...]:
    """One replication's values in :func:`_metric_columns` order."""
    return (rep.accuracy, rep.mean_ind_score, rep.mean_ood_score,
            *chain.from_iterable(zip(rep.tprs, rep.etas)))


def _write_report_csv(path: Path, report: ExperimentReport) -> None:
    rows = [[rep.index, rep.seed, *_metric_row(rep)] for rep in report.replications]
    rows += [["mean", None, *report.means], ["mad", None, *report.mads]]
    write_csv(path, ["replication", "seed", *_metric_columns(report.config)], rows)


def _write_summary(path: Path, report: ExperimentReport) -> None:
    config = report.config
    lines = [
        f"method: {config.method}",
        f"replications: {config.replications} (seeds {config.train.seed}"
        f"..{config.train.seed + config.replications - 1})",
        f"data: {_data_label(config)}"
        + (f", ood_subsample={config.ood_subsample}" if config.ood_subsample is not None else ""),
        f"grid: x [{config.grid.x_min}, {config.grid.x_max}], "
        f"y [{config.grid.y_min}, {config.grid.y_max}], "
        f"resolution {config.grid.resolution}",
        "",
    ]
    for rep in report.replications:
        parts = [f"rep {rep.index} (seed {rep.seed}): accuracy={rep.accuracy:.6f}"]
        for t, tpr, eta in zip(config.tnr_targets, rep.tprs, rep.etas):
            parts.append(f"tpr@{_tnr_label(t)}={tpr:.6f} (eta={eta:.6f})")
        lines.append("  ".join(parts))
    lines.append("")
    lines.append(f"mean accuracy: {report.mean_accuracy:.6f} (mad {report.mad_accuracy:.6f})")
    for t, m_tpr, d_tpr in zip(config.tnr_targets, report.mean_tprs, report.mad_tprs):
        lines.append(f"mean tpr@{_tnr_label(t)}: {m_tpr:.6f} (mad {d_tpr:.6f})")
    lines.append("")
    lines.append("files:")
    lines.extend(f"  {name}" for name in report.files)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@contextmanager
def _building(out: Path):
    out.parent.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=out.parent, prefix=f".{out.name}."))
    try:
        # mkdtemp's own directory is owner-only; `build` gets the usual umask mode.
        build = scratch / "run"
        build.mkdir()
        yield build
        build.rename(out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def publish_dir(out_dir):
    """A context manager whose block fills a new directory that then replaces `out_dir`.

    FileExistsError, at the call, when `out_dir` exists and is not empty, so
    a caller calls this before its work and enters the block after it. The
    block gets an empty temporary sibling of `out_dir`, with missing parents
    made; a clean exit renames it onto `out_dir`, and any exception removes
    it, so `out_dir` is never left half-written.
    """
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()):
        raise FileExistsError(f"output directory {out} is not empty")
    return _building(out)


def run_experiment(config: ExperimentConfig, out_dir) -> ExperimentReport:
    """Run every replication, then publish the run directory at `out_dir` and return its report.

    FileExistsError, before any work, when `out_dir` exists and is not empty.
    """
    publishing = publish_dir(out_dir)
    reps = []
    for index in range(config.replications):
        try:
            reps.append(run_replication(config, index))
        except NumericError as exc:
            raise NumericError(f"replication {index}: {exc}") from exc

    with publishing as build:
        (build / "config.ini").write_text(serialize_config(config), encoding="utf-8")
        for rep in reps:
            rep_dir = build / f"rep{rep.index:03d}"
            rep_dir.mkdir()
            write_history_csv(rep.history, rep_dir / "history.csv")
            for role, params in (("discriminator", rep.history.discriminator),
                                 ("generator", rep.history.generator)):
                if params is not None:
                    write_params(params, rep_dir / f"weights_{role}.txt")
            if rep.heatmap is not None:
                write_heatmap(rep.heatmap, rep_dir / "heatmap.npy")
                write_heatmap_pgm(rep.heatmap, rep.history.discriminator.output_dim,
                                  rep_dir / "heatmap.pgm")
        files = [p.relative_to(build).as_posix() for p in build.rglob("*") if p.is_file()]

        # Mean and MAD of each metric column, each over a 1-D column of replications.
        table = list(zip(*(_metric_row(rep) for rep in reps)))
        report = ExperimentReport(
            config=config,
            replications=tuple(reps),
            means=tuple(float(np.mean(column)) for column in table),
            mads=tuple(mad(column) for column in table),
            files=tuple(sorted([*files, "report.csv", "summary.txt"])),
        )
        _write_report_csv(build / "report.csv", report)
        _write_summary(build / "summary.txt", report)
    return report


@dataclass(frozen=True)
class LoadedRun:
    """The slice of a finished run needed for region comparisons."""

    config: ExperimentConfig
    etas_by_target: dict[float, tuple[float, ...]]
    heatmaps: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class ComparisonRecord:
    areas_a: tuple[float, ...]
    areas_b: tuple[float, ...]
    differences: tuple[float, ...]
    mean_difference: float


def load_report(out_dir) -> LoadedRun:
    """The config, thresholds and heatmaps of a run directory :func:`run_experiment` wrote.

    ValueError, naming the file, for a ``report.csv`` that is empty, has a
    row shorter than its header, lacks a TNR target's ``eta_at_<t>`` column,
    holds a non-finite threshold or a non-integer replication label, and for
    a missing heatmap or one :func:`read_heatmap` rejects at the run's shape.
    """
    out = Path(out_dir)
    config = parse_config((out / "config.ini").read_text(encoding="utf-8"))
    report = out / "report.csv"
    with open(report, "r", encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    if not rows or min(map(len, rows)) < len(rows[0]):
        raise ValueError(f"report file {report} is empty or has a row shorter than its header")
    header, body = rows[0], rows[1:]
    rep_rows = [row for row in body if row[0] not in ("mean", "mad")]

    etas_by_target: dict[float, tuple[float, ...]] = {}
    for target in config.tnr_targets:
        name = f"eta_at_{_tnr_label(target)}"
        if name not in header:
            raise ValueError(f"report file {report} has no {name} column")
        column = header.index(name)
        etas = []
        for row in rep_rows:
            try:
                eta = float(row[column])
            except ValueError:
                eta = math.nan
            if not math.isfinite(eta):
                raise ValueError(f"report file {report} has {name} = {row[column]!r} for "
                                 f"replication {row[0]!r}, not a finite number")
            etas.append(eta)
        etas_by_target[target] = tuple(etas)

    shape = (config.grid.resolution, config.grid.resolution)
    heatmaps = []
    for row in rep_rows:
        if not row[0].isdecimal():
            raise ValueError(f"report file {report} has row label {row[0]!r}, not an integer")
        path = out / f"rep{int(row[0]):03d}" / "heatmap.npy"
        if not path.exists():
            raise ValueError(f"run {out} has no heatmap for replication {row[0]}")
        heatmaps.append(read_heatmap(path, shape))
    return LoadedRun(config, etas_by_target, tuple(heatmaps))


def compare_rejection_regions(run_a: LoadedRun, run_b: LoadedRun,
                              tnr: float) -> ComparisonRecord:
    """Per-replication rejected-area comparison at each run's own threshold."""
    if run_a.config.grid != run_b.config.grid:
        raise ValueError(
            f"grids differ: {run_a.config.grid} vs {run_b.config.grid}"
        )
    if len(run_a.heatmaps) != len(run_b.heatmaps):
        raise ValueError(
            f"replication counts differ: {len(run_a.heatmaps)} vs {len(run_b.heatmaps)}"
        )
    for run in (run_a, run_b):
        if tnr not in run.etas_by_target:
            raise ValueError(f"run has no threshold calibrated at TNR {tnr}")

    areas_a = tuple(map(rejection_region_area, run_a.heatmaps, run_a.etas_by_target[tnr]))
    areas_b = tuple(map(rejection_region_area, run_b.heatmaps, run_b.etas_by_target[tnr]))
    differences = tuple(a - b for a, b in zip(areas_a, areas_b))
    return ComparisonRecord(areas_a, areas_b, differences, float(np.mean(differences)))


def write_comparison_csv(record: ComparisonRecord, path) -> None:
    rows = [[i, *values] for i, values in enumerate(zip(record.areas_a, record.areas_b,
                                                         record.differences))]
    rows.append(["mean", float(np.mean(record.areas_a)), float(np.mean(record.areas_b)),
                 record.mean_difference])
    write_csv(path, ["replication", "area_a", "area_b", "difference"], rows)
