"""Threshold calibration, detection and classification metrics, and heatmaps.

A point is out-of-distribution when its score strictly exceeds a threshold
eta; a score equal to eta counts as in-distribution. Eta is the smallest
in-distribution score whose empirical true-negative rate reaches the
target, so calibration has no parameter and is exact given the scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nets import MlpParams, _as_batch
from .wasserstein import _score_blocks, _scoring_cost_matrix, score_batch

__all__ = [
    "GridSpec",
    "select_threshold",
    "tpr_at_tnr",
    "scores_and_accuracy",
    "mad",
    "score_heatmap",
    "rejection_region_area",
    "write_heatmap",
    "read_heatmap",
    "write_heatmap_pgm",
]


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned evaluation grid, checked when built; scores are taken at cell centers."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    resolution: int

    def __post_init__(self):
        # Messages name the config keys, grid_ plus the field name.
        for name in ("x_min", "x_max", "y_min", "y_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"grid_{name} must be finite, got {getattr(self, name)}")
        for axis, lo, hi in (("x", self.x_min, self.x_max), ("y", self.y_min, self.y_max)):
            if not hi > lo:
                raise ValueError(f"grid_{axis}_max must be > grid_{axis}_min, got {hi} <= {lo}")
        if self.resolution < 1:
            raise ValueError(f"grid_resolution must be >= 1, got {self.resolution}")


def select_threshold(ind_scores, target_tnr: float) -> float:
    """Eta: the smallest observed score with at least `target_tnr` of the list at or below it."""
    scores = np.asarray(ind_scores, dtype=float)
    if scores.size == 0:
        raise ValueError("threshold calibration needs at least one score")
    if not 0.0 < target_tnr <= 1.0:
        raise ValueError(f"target TNR must lie in (0, 1], got {target_tnr}")
    ordered = np.sort(scores)
    # Scores equal to eta count as in-distribution, so candidate c admits
    # searchsorted(ordered, c, side="right") of the n points. The largest
    # score admits all n, so some candidate always qualifies.
    admitted = np.searchsorted(ordered, ordered, side="right")
    first = int(np.argmax(admitted / scores.size >= target_tnr))
    return float(ordered[first])


def tpr_at_tnr(ind_scores, ood_scores, target_tnr: float) -> tuple[float, float]:
    """(tpr, eta): the detection rate on OoD scores at eta calibrated on InD scores."""
    ood = np.asarray(ood_scores, dtype=float)
    if ood.size == 0:
        raise ValueError("need at least one OoD score")
    eta = select_threshold(ind_scores, target_tnr)
    return float(np.mean(ood > eta)), eta


def scores_and_accuracy(D: MlpParams, points, labels, M) -> tuple[np.ndarray, float]:
    """``score_batch(D, points, M)`` and the accuracy, from one forward pass.

    The accuracy is the fraction of points whose argmax class (smallest
    index on ties) matches their 1-based label.
    """
    mat = _scoring_cost_matrix(D, M)
    x = np.asarray(points, dtype=float)
    y = np.asarray(labels)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("accuracy needs a nonempty (n, d) array of points")
    if y.shape != (x.shape[0],):
        raise ValueError("labels must align one-to-one with points")
    predicted = np.empty(x.shape[0], dtype=np.intp)
    scores = _score_blocks(D, _as_batch(D, x), mat, predicted)
    return scores, float(np.mean(predicted + 1 == y))


def mad(values) -> float:
    """Mean absolute deviation from the mean."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("mad of an empty list is undefined")
    return float(np.mean(np.abs(v - v.mean())))


def score_heatmap(D: MlpParams, grid: GridSpec, M) -> np.ndarray:
    """(resolution, resolution) scores at the grid's cell centers.

    Cell (i, j) is scored at x = x_min + (j + 0.5) * dx, y = y_min + (i + 0.5) * dy.
    """
    if D.input_dim != 2:
        raise ValueError(f"heatmaps need a 2-D input space, discriminator takes {D.input_dim}")
    res = grid.resolution
    dx = (grid.x_max - grid.x_min) / res
    dy = (grid.y_max - grid.y_min) / res
    # One (res, res, 2) array of (x, y) pairs, built in place: row i holds y_i.
    points = np.empty((res, res, 2))
    points[:, :, 0] = grid.x_min + (np.arange(res) + 0.5) * dx
    points[:, :, 1] = (grid.y_min + (np.arange(res) + 0.5) * dy)[:, None]
    return score_batch(D, points.reshape(-1, 2), M).reshape(res, res)


def rejection_region_area(heatmap: np.ndarray, eta: float) -> float:
    """Fraction of grid cells the detector rejects as out-of-distribution at threshold eta."""
    cells = np.asarray(heatmap, dtype=float)
    return float(np.mean(cells > eta))


def write_heatmap(heatmap: np.ndarray, path) -> None:
    """Save a heatmap at `path`, no suffix added, as ``numpy.save`` writes its float64 cells.

    ValueError, before the file is opened, unless the heatmap is a nonempty
    2-D array of finite scores.
    """
    cells = _checked_heatmap(heatmap)
    with open(path, "wb") as f:
        np.save(f, cells, allow_pickle=False)


def read_heatmap(path, shape: tuple[int, int]) -> np.ndarray:
    """The heatmap :func:`write_heatmap` saved at `path`, read without unpickling.

    ValueError, naming the file, unless the file holds one ``.npy`` array and
    nothing after it, of native float64 (``<f8``) finite cells and shape
    `shape`: an empty, truncated, ``.npz``, pickle or text file fails, and so
    does an object, integer or big-endian array.
    """
    with open(path, "rb") as f:
        try:
            cells = np.lib.format.read_array(f, allow_pickle=False)
        except ValueError as exc:
            raise ValueError(f"heatmap file {path}: {exc}") from exc
        if f.read(1):
            raise ValueError(f"heatmap file {path} has bytes after its array")
    if cells.dtype != np.float64 or cells.shape != shape:
        raise ValueError(f"heatmap file {path} holds a {cells.dtype.str} array of shape "
                         f"{cells.shape}, expected <f8 of shape {shape}")
    if not np.isfinite(cells).all():
        raise ValueError(f"heatmap file {path} holds a non-finite cell")
    return cells


# Samples per PGM line: 16 three-digit samples and their spaces fit in the
# format's 70-character line limit.
_PGM_SAMPLES_PER_LINE = 16


def write_heatmap_pgm(heatmap: np.ndarray, K: int, path) -> None:
    """ASCII ("P2") grayscale image of a heatmap, rows in storage order, 16 samples a line.

    Scores map linearly from [0, top] to [0, 255], rounding half-up and
    clipping below 0. top is ``max(1 - 1/K, largest cell)``: the binary
    cost matrix's range, or the largest score if another matrix scored past
    it. Rows are mapped one at a time, with no whole-heatmap temporary.
    ValueError unless the heatmap is a nonempty 2-D array of finite scores.
    """
    if K < 2:
        raise ValueError(f"need K >= 2, got {K}")
    cells = _checked_heatmap(heatmap)
    top = max(1.0 - 1.0 / K, float(cells.max()))
    height, width = cells.shape
    full, rest = divmod(width, _PGM_SAMPLES_PER_LINE)
    row = _pgm_line(_PGM_SAMPLES_PER_LINE) * full + (_pgm_line(rest) if rest else "")
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"P2\n{width} {height}\n255\n")
        for scores in cells:
            grays = np.clip(np.floor(scores / top * 255.0 + 0.5), 0, 255).astype(int)
            f.write(row % tuple(grays.tolist()))


def _pgm_line(samples: int) -> str:
    """Format string for one PGM line of `samples` gray levels."""
    return " ".join(["%d"] * samples) + "\n"


def _checked_heatmap(heatmap) -> np.ndarray:
    """`heatmap` as a float array; ValueError unless nonempty, 2-D and finite."""
    cells = np.asarray(heatmap, dtype=float)
    if cells.ndim != 2 or cells.size == 0:
        raise ValueError(f"a heatmap must be a nonempty 2-D array, got shape {cells.shape}")
    if not np.isfinite(cells).all():
        raise ValueError("a heatmap must hold finite scores")
    return cells
