"""The benchmark's workloads: set-up, one operation, and its correctness check.

Each workload is closed-loop: one caller, and operation k+1 starts when
operation k returns. Operation k uses replication seed number ``k mod
distinct``, so every seed recurs within a run and its deterministic outputs
(accuracy, TPR, digest of the history and weights) must repeat exactly.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oodlab import cli, config, data, experiment, rng

# Replication seeds per run. The quality metrics are medians over them, so
# one badly converged seed does not swing a run.
DISTINCT_SEEDS = 8
# Cut from the presets' 5000/13000 so a 30 s run holds 8-15 operations, with
# every other preset value kept. setting2 gets more: at 1000 iterations a third
# of its seeds are below 0.75 accuracy, and at 1500 the median over 8 seeds
# still moves by ~5% from one run's seeds to the next.
TRAIN_ITERATIONS = {"setting1": 1000, "setting2": 2000}


class CheckError(Exception):
    """An operation's output failed the benchmark's correctness check."""


@dataclass(frozen=True)
class Outcome:
    """What one operation produced, as the benchmark checks and reports it."""

    seed_index: int
    accuracy: float
    tpr_at_95: float
    digest: str
    steps: int
    bytes_written: int

    def key(self) -> tuple:
        """The outputs that must repeat exactly for the same seed."""
        return (self.accuracy, self.tpr_at_95, self.digest)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _finite_unit(value: float, what: str) -> float:
    _require(math.isfinite(value) and 0.0 <= value <= 1.0, f"{what} = {value} outside [0, 1]")
    return value


def history_digest(history) -> str:
    """SHA-256 over every recorded loss value and the final weights."""
    h = hashlib.sha256()
    for rec in history.records:
        h.update(np.array([rec.loss, rec.ce, rec.ood_score_mean,
                           math.nan if rec.gen_score_mean is None else rec.gen_score_mean,
                           math.nan if rec.gen_objective is None else rec.gen_objective]).tobytes())
    for net in (history.discriminator, history.generator):
        if net is not None:
            for part in net.weights + net.biases:
                h.update(part.tobytes())
    return h.hexdigest()


def _optimizer_steps(cfg) -> int:
    per_iteration = cfg.train.n_d + cfg.train.n_g if cfg.method == "see_ood" else 1
    return cfg.train.iterations * per_iteration


class SeeOodWorkload:
    """``run_replication`` on a see_ood preset, in memory, no files written."""

    def __init__(self, name: str, preset: str, seed: int,
                 distinct: int = DISTINCT_SEEDS, iterations: int | None = None):
        iterations = iterations or TRAIN_ITERATIONS[preset]
        self.name = name
        self.distinct = distinct
        self.ini = (f"[method]\npreset = {preset}\n"
                    f"[train]\niterations = {iterations}\nseed = {distinct * seed}\n")
        self.seed = seed
        self.config = None

    def setup(self) -> None:
        self.config = config.parse_config(self.ini)
        data.make_simulation_dataset(rng.Rng(self.config.train.seed))

    def run(self, k: int):
        return experiment.run_replication(self.config, k % self.distinct)

    def check(self, k: int, rep) -> Outcome:
        cfg = self.config
        records = rep.history.records
        _require(len(records) == cfg.train.iterations,
                 f"{len(records)} history records for {cfg.train.iterations} iterations")
        for rec in records:
            values = (rec.loss, rec.ce, rec.ood_score_mean, rec.gen_score_mean, rec.gen_objective)
            _require(all(math.isfinite(v) for v in values),
                     f"non-finite history at iteration {rec.iteration}")
        accuracy = _finite_unit(rep.accuracy, "accuracy")
        tprs = [_finite_unit(t, "tpr") for t in rep.tprs]
        top = 1.0 - 1.0 / rep.history.discriminator.output_dim
        for score in (rep.mean_ind_score, rep.mean_ood_score):
            _require(math.isfinite(score) and 0.0 <= score <= top, f"mean score {score}")
        res = cfg.grid.resolution
        _require(rep.heatmap is not None and rep.heatmap.shape == (res, res), "heatmap shape")
        _require(bool(np.isfinite(rep.heatmap).all()), "non-finite heatmap scores")
        _require(float(rep.heatmap.min()) >= 0.0 and float(rep.heatmap.max()) <= top + 1e-12,
                 "heatmap scores outside [0, 1 - 1/K]")
        return Outcome(k % self.distinct, accuracy, tprs[cfg.tnr_targets.index(0.95)],
                       history_digest(rep.history), _optimizer_steps(cfg), 0)


class ReplicateIoWorkload:
    """CLI ``replicate --preset wood2d`` into a fresh directory, then ``compare`` it with itself."""

    preset = "wood2d"

    def __init__(self, seed: int, work_root, distinct: int = DISTINCT_SEEDS):
        self.name = "replicate-io"
        self.distinct = distinct
        self.seed = seed
        self.work_root = Path(work_root)
        self.config = None

    def setup(self) -> None:
        self.config = config.parse_config(f"[method]\npreset = {self.preset}\n")
        data.make_simulation_dataset(rng.Rng(self.seed))
        self.work_root.mkdir(parents=True, exist_ok=True)

    def _cli_seed(self, k: int) -> int:
        # One replicate consumes seeds s .. s+R-1; runs never share a seed.
        reps = self.config.replications
        return reps * (self.distinct * self.seed + k % self.distinct)

    def run(self, k: int):
        out = Path(tempfile.mkdtemp(dir=self.work_root))
        run_dir, cmp_dir = str(out / "run"), str(out / "cmp")
        with contextlib.redirect_stdout(io.StringIO()):
            codes = (
                cli.main(["replicate", "--preset", self.preset,
                          "--seed", str(self._cli_seed(k)), "--out", run_dir]),
                cli.main(["compare", "--a", run_dir, "--b", run_dir, "--out", cmp_dir]),
            )
        return out, codes

    def check(self, k: int, raw) -> Outcome:
        out, codes = raw
        try:
            return self._check(k, out, codes)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, k: int, out: Path, codes) -> Outcome:
        _require(codes == (0, 0), f"exit codes {codes}")
        cfg = self.config
        rows = _read_csv(out / "run" / "report.csv")
        header = ["replication", "seed", "accuracy", "mean_ind_score", "mean_ood_score"]
        for t in cfg.tnr_targets:
            header += [f"tpr_at_{t:g}", f"eta_at_{t:g}"]
        _require(rows[0] == header, f"report.csv header {rows[0]}")
        labels = [str(r) for r in range(cfg.replications)] + ["mean", "mad"]
        _require([row[0] for row in rows[1:]] == labels, "report.csv row labels")
        seed0 = self._cli_seed(k)
        for r, row in enumerate(rows[1:1 + cfg.replications]):
            _require(row[1] == str(seed0 + r), f"report.csv seed {row[1]} in row {r}")
        for row in rows[1:]:
            _require(len(row) == len(header), "report.csv row width")
            for value in row[2:]:
                _require(math.isfinite(float(value)), f"non-finite report value {value}")
        mean = dict(zip(header, rows[-2]))
        accuracy = _finite_unit(float(mean["accuracy"]), "mean accuracy")
        tpr = _finite_unit(float(mean["tpr_at_0.95"]), "mean tpr")

        comparison = _read_csv(out / "cmp" / "comparison.csv")
        _require(len(comparison) == cfg.replications + 2, "comparison.csv rows")
        for row in comparison[1:]:
            _finite_unit(float(row[1]), "area")
            _require(float(row[3]) == 0.0, f"self-comparison difference {row[3]}")

        h = hashlib.sha256()
        written = 0
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            content = path.read_bytes()
            written += len(content)
            h.update(str(path.relative_to(out)).encode() + b"\0" + content)
        steps = cfg.replications * _optimizer_steps(cfg)
        return Outcome(k % self.distinct, accuracy, tpr, h.hexdigest(), steps, written)


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.reader(f))
    _require(len(rows) > 1, f"{path.name} has no data rows")
    return rows


def make(name: str, seed: int, work_root, **kwargs):
    if name == "d-heavy":
        return SeeOodWorkload(name, "setting1", seed, **kwargs)
    if name == "g-heavy":
        return SeeOodWorkload(name, "setting2", seed, **kwargs)
    if name == "replicate-io":
        return ReplicateIoWorkload(seed, work_root, **kwargs)
    raise ValueError(f"unknown workload {name!r}")
