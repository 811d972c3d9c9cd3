"""Seeded Gaussian-cluster benchmarks and dataset plumbing.

The builtin benchmark is a 2-D, 3-class problem: isotropic Gaussian blobs at
(4, 3), (3, 5) and (3, 1) with sigma 0.3 for the in-distribution classes, and
an out-of-distribution blob at (1.5, 6) with the same sigma. Each blob gets
1000 training and 1000 testing points, drawn independently per split. The
out-of-distribution training pool is meant to be subsampled down (often to a
handful of points) before training; the test split never is.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .nets import write_csv
from .rng import Rng

__all__ = [
    "Dataset",
    "make_simulation_dataset",
    "subsample_ood",
    "sample_noise",
    "write_dataset_csv",
    "read_dataset_csv",
    "SIMULATION_IND_MEANS",
    "SIMULATION_OOD_MEAN",
    "SIMULATION_STD",
]

SIMULATION_IND_MEANS = ((4.0, 3.0), (3.0, 5.0), (3.0, 1.0))
SIMULATION_OOD_MEAN = (1.5, 6.0)
SIMULATION_STD = 0.3
SIMULATION_POINTS_PER_SPLIT = 1000

SPLIT_NAMES = ("ind_train", "ind_test", "ood_train", "ood_test")
OOD_LABEL = -1


@dataclass(frozen=True)
class Dataset:
    """Labeled in-distribution splits plus unlabeled out-of-distribution ones.

    Points are rows of float arrays; labels are 1-based ints aligned with
    the rows of the corresponding `x` array.
    """

    ind_train_x: np.ndarray
    ind_train_y: np.ndarray
    ind_test_x: np.ndarray
    ind_test_y: np.ndarray
    ood_train: np.ndarray
    ood_test: np.ndarray
    d: int
    K: int

    def __post_init__(self):
        for name in ("ind_train_x", "ind_test_x", "ood_train", "ood_test"):
            arr = getattr(self, name)
            if arr.ndim != 2 or arr.shape[1] != self.d:
                raise ValueError(f"{name} must have shape (n, {self.d}), got {arr.shape}")
        for xs, ys in ((self.ind_train_x, self.ind_train_y),
                       (self.ind_test_x, self.ind_test_y)):
            if ys.shape != (xs.shape[0],):
                raise ValueError("labels must align one-to-one with points")
            if ys.size and (ys.min() < 1 or ys.max() > self.K):
                raise ValueError(f"labels must lie in 1..{self.K}")
        if self.K < 2:
            raise ValueError(f"need K >= 2 classes, got {self.K}")


def make_simulation_dataset(rng: Rng) -> Dataset:
    """Builtin 2-D benchmark; draw order is cluster by cluster, train then test."""
    n = SIMULATION_POINTS_PER_SPLIT

    def blob(mean) -> np.ndarray:
        return np.asarray(mean) + SIMULATION_STD * rng.standard_normal(2 * n).reshape(n, 2)

    ind_train, ind_test = [], []
    for mean in SIMULATION_IND_MEANS:
        ind_train.append(blob(mean))
        ind_test.append(blob(mean))
    labels = np.repeat(np.arange(1, len(SIMULATION_IND_MEANS) + 1, dtype=np.int64), n)
    return Dataset(
        ind_train_x=np.concatenate(ind_train),
        ind_train_y=labels,
        ind_test_x=np.concatenate(ind_test),
        ind_test_y=labels.copy(),
        ood_train=blob(SIMULATION_OOD_MEAN),
        ood_test=blob(SIMULATION_OOD_MEAN),
        d=2,
        K=len(SIMULATION_IND_MEANS),
    )


def subsample_ood(dataset: Dataset, n_keep: int, rng: Rng) -> Dataset:
    """Keep a uniform without-replacement subsample of the OoD training pool.

    All other splits are untouched; in particular the OoD test split always
    stays complete.
    """
    pool = dataset.ood_train.shape[0]
    if not 0 <= n_keep <= pool:
        raise ValueError(f"n_keep must lie in 0..{pool}, got {n_keep}")
    chosen = rng.choose_without_replacement(pool, n_keep)
    return replace(dataset, ood_train=dataset.ood_train[chosen])


def sample_noise(n: int, count: int, rng: Rng) -> np.ndarray:
    """`count` independent standard-normal vectors of length n."""
    if n < 1:
        raise ValueError(f"noise dimension must be >= 1, got {n}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return rng.standard_normal(count * n).reshape(count, n)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def write_dataset_csv(dataset: Dataset, path) -> None:
    """Rows of x1..xd, label, split; OoD rows carry label -1."""
    header = [f"x{i + 1}" for i in range(dataset.d)] + ["label", "split"]
    blocks = (
        (dataset.ind_train_x, dataset.ind_train_y, "ind_train"),
        (dataset.ind_test_x, dataset.ind_test_y, "ind_test"),
        (dataset.ood_train, None, "ood_train"),
        (dataset.ood_test, None, "ood_test"),
    )
    rows = []
    for xs, ys, split in blocks:
        labels = [OOD_LABEL] * xs.shape[0] if ys is None else ys.tolist()
        rows += [x + [label, split] for x, label in zip(xs.tolist(), labels)]
    write_csv(path, header, rows)


def read_dataset_csv(path) -> Dataset:
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if not header or len(header) < 4 or header[-2:] != ["label", "split"]:
            raise ValueError(f"{path}: expected header x1..xd,label,split")
        d = len(header) - 2
        rows = {name: [] for name in SPLIT_NAMES}
        labels = {name: [] for name in SPLIT_NAMES}
        for line_no, row in enumerate(reader, start=2):
            if len(row) != d + 2:
                raise ValueError(f"{path}:{line_no}: expected {d + 2} fields, got {len(row)}")
            split = row[-1]
            if split not in rows:
                raise ValueError(f"{path}:{line_no}: unknown split {split!r}")
            try:
                point, label = [float(v) for v in row[:d]], int(row[-2])
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from None
            if not all(map(math.isfinite, point)):
                raise ValueError(f"{path}:{line_no}: coordinates must be finite, got {row[:d]}")
            if split.startswith("ood_") and label != OOD_LABEL:
                raise ValueError(f"{path}:{line_no}: {split} rows carry label {OOD_LABEL}, "
                                 f"got {label}")
            if not split.startswith("ood_") and label < 1:
                raise ValueError(f"{path}:{line_no}: {split} labels must be >= 1, got {label}")
            rows[split].append(point)
            labels[split].append(label)
    for split in ("ind_train", "ind_test", "ood_test"):
        if not rows[split]:
            raise ValueError(f"{path}: split {split} has no rows")
    x = {name: np.array(points, dtype=float).reshape(-1, d) for name, points in rows.items()}
    y = {name: np.array(labels[name], dtype=np.int64) for name in ("ind_train", "ind_test")}
    return Dataset(
        ind_train_x=x["ind_train"],
        ind_train_y=y["ind_train"],
        ind_test_x=x["ind_test"],
        ind_test_y=y["ind_test"],
        ood_train=x["ood_train"],
        ood_test=x["ood_test"],
        d=d,
        K=int(max(y["ind_train"].max(), y["ind_test"].max(), 2)),
    )
