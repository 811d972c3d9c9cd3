"""Experiment orchestration: replicated runs, reports, and comparisons.

A run writes a self-contained output directory:

    config.ini            canonical serialized configuration
    report.csv            one row per replication plus mean and mad rows
    summary.txt           human-readable digest
    rep000/ rep001/ ...   per-replication history.csv, weights, heatmap.csv,
                          heatmap.pgm (heatmaps only for 2-D data)

Replication r runs on seed `base_seed + r` with a single random stream used
for dataset generation, subsampling, initialization and training, so (config,
seed) fully determines every output byte. Thresholds are calibrated afresh in
each replication; aggregates are the mean and the mean absolute deviation
over replications.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, parse_config, serialize_config
from .data import Dataset, make_simulation_dataset, read_dataset_csv, subsample_ood
from .detection import (
    GridSpec,
    Threshold,
    classification_accuracy,
    mad,
    read_heatmap_csv,
    rejection_region_area,
    score_heatmap,
    tpr_at_tnr,
    write_heatmap_csv,
    write_heatmap_pgm,
)
from .nets import NumericError, fmt_float, write_params
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
    config: ExperimentConfig
    replications: tuple[ReplicationResult, ...]
    mean_accuracy: float
    mad_accuracy: float
    mean_tprs: tuple[float, ...]
    mad_tprs: tuple[float, ...]
    files: tuple[str, ...]


def _build_dataset(config: ExperimentConfig, rng: Rng) -> Dataset:
    if config.data_source == "builtin":
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
                          f" (source {config.data_source}, ood_subsample {config.ood_subsample})")
    return data


def _evaluation_cost_matrix(config: ExperimentConfig, K: int) -> np.ndarray:
    if config.cost_matrix_path is not None:
        M = load_cost_matrix_csv(config.cost_matrix_path)
        if M.shape[0] != K:
            raise ConfigError(f"cost matrix is {M.shape[0]}x{M.shape[0]} but data has {K} classes")
        return M
    return binary_cost_matrix(K)


def run_replication(config: ExperimentConfig, index: int) -> ReplicationResult:
    """Train and evaluate one replication on seed ``base_seed + index``."""
    seed = config.train.seed + index
    rng = Rng(seed)
    data = _build_dataset(config, rng)
    # Config/data mismatches fail here, before any training.
    M = _evaluation_cost_matrix(config, data.K)
    see_ood = config.method == "see_ood"
    try:
        check_architectures(config.train, data, with_generator=see_ood)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    history = (train_see_ood if see_ood else train_wood)(config.train, data, rng)
    D = history.discriminator
    ind_scores = score_batch(D, data.ind_test_x, M)
    ood_scores = score_batch(D, data.ood_test, M)
    accuracy = classification_accuracy(D, data.ind_test_x, data.ind_test_y)

    tprs = []
    etas = []
    for target in config.tnr_targets:
        tpr, threshold = tpr_at_tnr(ind_scores, ood_scores, target)
        tprs.append(tpr)
        etas.append(threshold.eta)

    heatmap = score_heatmap(D, config.grid, M) if data.d == 2 else None
    return ReplicationResult(
        index=index,
        seed=seed,
        accuracy=accuracy,
        mean_ind_score=float(ind_scores.mean()),
        mean_ood_score=float(ood_scores.mean()),
        tprs=tuple(tprs),
        etas=tuple(etas),
        history=history,
        heatmap=heatmap,
    )


def _target_label(t: float) -> str:
    return format(t, "g")


def _write_report_csv(path: Path, config: ExperimentConfig,
                      reps: tuple[ReplicationResult, ...],
                      mean_acc: float, mad_acc: float,
                      mean_tprs: tuple[float, ...], mad_tprs: tuple[float, ...]) -> None:
    header = ["replication", "seed", "accuracy", "mean_ind_score", "mean_ood_score"]
    for t in config.tnr_targets:
        label = _target_label(t)
        header += [f"tpr_at_{label}", f"eta_at_{label}"]
    rows = []
    for rep in reps:
        row = [rep.index, rep.seed, fmt_float(rep.accuracy),
               fmt_float(rep.mean_ind_score), fmt_float(rep.mean_ood_score)]
        for tpr, eta in zip(rep.tprs, rep.etas):
            row += [fmt_float(tpr), fmt_float(eta)]
        rows.append(row)

    def aggregate_row(name: str, acc: float, tpr_values: tuple[float, ...],
                      stat) -> list:
        row = [name, "", fmt_float(acc),
               fmt_float(stat([r.mean_ind_score for r in reps])),
               fmt_float(stat([r.mean_ood_score for r in reps]))]
        for j, tpr in enumerate(tpr_values):
            row += [fmt_float(tpr), fmt_float(stat([r.etas[j] for r in reps]))]
        return row

    rows.append(aggregate_row("mean", mean_acc, mean_tprs, lambda v: float(np.mean(v))))
    rows.append(aggregate_row("mad", mad_acc, mad_tprs, mad))

    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _write_summary(path: Path, report: ExperimentReport) -> None:
    config = report.config
    lines = [
        f"method: {config.method}",
        f"replications: {config.replications} (seeds {config.train.seed}"
        f"..{config.train.seed + config.replications - 1})",
        f"data: {config.data_source}"
        + (f" ({config.data_path})" if config.data_path else "")
        + (f", ood_subsample={config.ood_subsample}" if config.ood_subsample is not None else ""),
        f"grid: x [{config.grid.x_min}, {config.grid.x_max}], "
        f"y [{config.grid.y_min}, {config.grid.y_max}], "
        f"resolution {config.grid.resolution}",
        "",
    ]
    for rep in report.replications:
        parts = [f"rep {rep.index} (seed {rep.seed}): accuracy={rep.accuracy:.6f}"]
        for t, tpr, eta in zip(config.tnr_targets, rep.tprs, rep.etas):
            parts.append(f"tpr@{_target_label(t)}={tpr:.6f} (eta={eta:.6f})")
        lines.append("  ".join(parts))
    lines.append("")
    lines.append(f"mean accuracy: {report.mean_accuracy:.6f} (mad {report.mad_accuracy:.6f})")
    for t, m_tpr, d_tpr in zip(config.tnr_targets, report.mean_tprs, report.mad_tprs):
        lines.append(f"mean tpr@{_target_label(t)}: {m_tpr:.6f} (mad {d_tpr:.6f})")
    lines.append("")
    lines.append("files:")
    lines.extend(f"  {name}" for name in report.files)
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def run_experiment(config: ExperimentConfig, out_dir=None) -> ExperimentReport:
    """Run every replication, then write the output directory and aggregate metrics.

    No file or directory is created before the last replication finishes, so
    a run that fails in training or evaluation leaves nothing behind.
    """
    reps = []
    for index in range(config.replications):
        try:
            reps.append(run_replication(config, index))
        except NumericError as exc:
            raise NumericError(f"replication {index}: {exc}") from exc

    out = Path(out_dir if out_dir is not None else config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = ["config.ini", "report.csv", "summary.txt"]
    (out / "config.ini").write_text(serialize_config(config), encoding="utf-8")
    for index, rep in enumerate(reps):
        rep_dir = out / f"rep{index:03d}"
        rep_dir.mkdir(exist_ok=True)
        write_history_csv(rep.history, rep_dir / "history.csv")
        write_params(rep.history.discriminator, rep_dir / "weights_discriminator.txt")
        files.append(f"rep{index:03d}/history.csv")
        files.append(f"rep{index:03d}/weights_discriminator.txt")
        if rep.history.generator is not None:
            write_params(rep.history.generator, rep_dir / "weights_generator.txt")
            files.append(f"rep{index:03d}/weights_generator.txt")
        if rep.heatmap is not None:
            write_heatmap_csv(rep.heatmap, rep_dir / "heatmap.csv")
            K = rep.history.discriminator.output_dim
            write_heatmap_pgm(rep.heatmap, K, rep_dir / "heatmap.pgm")
            files.append(f"rep{index:03d}/heatmap.csv")
            files.append(f"rep{index:03d}/heatmap.pgm")

    reps = tuple(reps)
    accs = [r.accuracy for r in reps]
    mean_tprs = tuple(float(np.mean([r.tprs[j] for r in reps]))
                      for j in range(len(config.tnr_targets)))
    mad_tprs = tuple(mad([r.tprs[j] for r in reps]) for j in range(len(config.tnr_targets)))
    report = ExperimentReport(
        config=config,
        replications=reps,
        mean_accuracy=float(np.mean(accs)),
        mad_accuracy=mad(accs),
        mean_tprs=mean_tprs,
        mad_tprs=mad_tprs,
        files=tuple(sorted(files)),
    )
    _write_report_csv(out / "report.csv", config, reps,
                      report.mean_accuracy, report.mad_accuracy,
                      report.mean_tprs, report.mad_tprs)
    _write_summary(out / "summary.txt", report)
    return report


# ---------------------------------------------------------------------------
# Rejection-region comparison between two finished runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LoadedRun:
    """The slice of a finished run needed for region comparisons."""

    config: ExperimentConfig
    etas_by_target: dict[float, tuple[float, ...]]
    heatmaps: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class ComparisonRecord:
    tnr: float
    grid: GridSpec
    areas_a: tuple[float, ...]
    areas_b: tuple[float, ...]
    differences: tuple[float, ...]
    mean_difference: float


def load_report(out_dir) -> LoadedRun:
    """Re-read the pieces of a run directory produced by :func:`run_experiment`."""
    out = Path(out_dir)
    config = parse_config((out / "config.ini").read_text(encoding="utf-8"))
    with open(out / "report.csv", "r", encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    rep_rows = [row for row in body if row[0] not in ("mean", "mad")]

    etas_by_target: dict[float, tuple[float, ...]] = {}
    for target in config.tnr_targets:
        column = header.index(f"eta_at_{_target_label(target)}")
        etas_by_target[target] = tuple(float(row[column]) for row in rep_rows)

    heatmaps = []
    for row in rep_rows:
        path = out / f"rep{int(row[0]):03d}" / "heatmap.csv"
        if not path.exists():
            raise ValueError(f"run {out} has no heatmap for replication {row[0]}")
        heatmaps.append(read_heatmap_csv(path))
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

    areas_a = []
    areas_b = []
    for hm_a, eta_a, hm_b, eta_b in zip(run_a.heatmaps, run_a.etas_by_target[tnr],
                                        run_b.heatmaps, run_b.etas_by_target[tnr]):
        areas_a.append(rejection_region_area(hm_a, Threshold(eta_a, tnr)))
        areas_b.append(rejection_region_area(hm_b, Threshold(eta_b, tnr)))
    differences = tuple(a - b for a, b in zip(areas_a, areas_b))
    return ComparisonRecord(
        tnr=tnr,
        grid=run_a.config.grid,
        areas_a=tuple(areas_a),
        areas_b=tuple(areas_b),
        differences=differences,
        mean_difference=float(np.mean(differences)),
    )


def write_comparison_csv(record: ComparisonRecord, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["replication", "area_a", "area_b", "difference"])
        for i, (a, b, diff) in enumerate(zip(record.areas_a, record.areas_b,
                                             record.differences)):
            writer.writerow([i, fmt_float(a), fmt_float(b), fmt_float(diff)])
        writer.writerow(["mean",
                         fmt_float(float(np.mean(record.areas_a))),
                         fmt_float(float(np.mean(record.areas_b))),
                         fmt_float(record.mean_difference)])
