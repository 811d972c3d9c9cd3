"""Transport-cost scoring of predicted class distributions.

A probability vector p scores the cheapest cost of transporting it onto
any one-hot target under a cost matrix M. All mass then moves to the target
class k, at cost M[j, k] from class j, so

    score(p; M) = min_k sum_j p[j] * M[j, k] = min_k (p @ M)[k]

Under the binary cost matrix (ones off the diagonal) this is ``1 - max(p)``:
zero for a one-hot prediction, ``1 - 1/K`` for the uniform one. The score's
gradient in p is M's column at the argmin class. Public class indices are
1-based, as dataset labels are. One kernel, `_score_rows`, scores rows of
probabilities for training and for :func:`score_batch`; like the `nets`
kernels it is a binder.
"""

from __future__ import annotations

import warnings

import numpy as np

from .nets import Head, MlpParams, _as_batch, _cache, _fold_columns, _forward, _with_ones

__all__ = [
    "validate_prob_vector",
    "validate_cost_matrix",
    "binary_cost_matrix",
    "load_cost_matrix_csv",
    "wasserstein_score",
    "score_batch",
]

PROB_SUM_TOL = 1e-9
# Rows per forward pass in `score_batch`: a block's (rows, 129) hidden array
# of a 128-wide layer, about 1 MB, then stays in a 2 MB L2 cache with the
# block's other arrays. With numpy's OpenBLAS, blocks of 512 to 4096 rows
# score with the same bits as one pass over all rows; 128- and 256-row blocks
# do not, so change this only with the blocked-scoring tests.
SCORE_BLOCK_ROWS = 1024


def validate_prob_vector(p) -> np.ndarray:
    """Check entries >= 0, sum within 1e-9 of 1, and K >= 2."""
    vec = np.asarray(p, dtype=float)
    if vec.ndim != 1 or vec.size < 2:
        raise ValueError(f"probability vector must be 1-D with K >= 2, got shape {vec.shape}")
    if np.any(vec < 0.0):
        raise ValueError("probability vector has negative entries")
    total = float(vec.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"probability vector sums to {total}, not 1")
    return vec


def validate_cost_matrix(m) -> np.ndarray:
    """Check square, K >= 2, finite nonnegative entries, zero diagonal."""
    mat = np.asarray(m, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {mat.shape}")
    if mat.shape[0] < 2:
        raise ValueError(f"cost matrix needs K >= 2, got K = {mat.shape[0]}")
    if not np.isfinite(mat).all():
        raise ValueError("cost matrix has non-finite entries")
    if np.any(mat < 0.0):
        raise ValueError("cost matrix has negative entries")
    if np.any(np.diag(mat) != 0.0):
        raise ValueError("cost matrix diagonal must be zero")
    return mat


def binary_cost_matrix(K: int) -> np.ndarray:
    """Unit cost between any two distinct classes: ones minus identity."""
    if K < 2:
        raise ValueError(f"need K >= 2, got {K}")
    return np.ones((K, K)) - np.eye(K)


def load_cost_matrix_csv(path) -> np.ndarray:
    """K rows of K comma-separated floats, validated as :func:`validate_cost_matrix` does.

    ValueError, naming the file, if it is empty or ragged or holds a cell
    that is not a finite number.
    """
    with warnings.catch_warnings():
        # An empty file warns before it returns an empty array, checked below.
        warnings.simplefilter("ignore", UserWarning)
        try:
            cells = np.loadtxt(path, delimiter=",", ndmin=2, comments=None, encoding="utf-8")
        except ValueError as exc:
            raise ValueError(f"cost matrix file {path}: {exc}") from exc
    if cells.size == 0:
        raise ValueError(f"cost matrix file {path} is empty")
    if not np.isfinite(cells).all():
        raise ValueError(f"cost matrix file {path} holds a non-finite cell")
    return validate_cost_matrix(cells)


def _score_rows(probs: np.ndarray, M: np.ndarray, costs: np.ndarray, k_star: np.ndarray,
                scores: np.ndarray):
    """Bind the score kernel to caller-owned arrays; unchecked.

    The closure writes ``probs @ M`` into `costs`, each row's 0-based argmin
    column into `k_star` and its minimum cost, the score, into `scores`.
    """
    fold_min = _fold_columns(np.minimum, costs, scores[:, None])

    def run():
        np.matmul(probs, M, out=costs)
        costs.argmin(axis=1, out=k_star)
        fold_min()
    return run


def wasserstein_score(p, M) -> tuple[float, int]:
    """(score, argmin class) of one probability vector; the smallest class wins ties."""
    vec = validate_prob_vector(p)
    mat = validate_cost_matrix(M)
    if vec.size != mat.shape[0]:
        raise ValueError(f"p has {vec.size} classes but M is {mat.shape[0]}x{mat.shape[0]}")
    scores, k_star = np.empty(1), np.empty(1, dtype=np.intp)
    _score_rows(vec[None, :], mat, np.empty((1, mat.shape[1])), k_star, scores)()
    return float(scores[0]), int(k_star[0]) + 1


def score_batch(net: MlpParams, inputs, M) -> np.ndarray:
    """Scores of ``net``'s predictions for the rows of an (n, d) array, in order; pure.

    Rows run in blocks of `SCORE_BLOCK_ROWS` through one set of buffers, a
    short last block padded to full size, so memory does not grow with n. A
    point's bits depend on the rows it is scored with: alone, or in another
    batch, it may score differently in the last bit.
    """
    mat = _scoring_cost_matrix(net, M)
    x = np.asarray(inputs, dtype=float)
    if x.size == 0:
        return np.empty(0)
    return _score_blocks(net, _as_batch(net, x), mat)


def _scoring_cost_matrix(net: MlpParams, M) -> np.ndarray:
    """`M`, validated and checked to fit ``net``, which must have a Softmax head."""
    mat = validate_cost_matrix(M)
    if net.head is not Head.SOFTMAX:
        raise ValueError("scoring requires a Softmax output head")
    if net.output_dim != mat.shape[0]:
        raise ValueError(
            f"net outputs {net.output_dim} classes but M is {mat.shape[0]}x{mat.shape[0]}"
        )
    return mat


def _score_blocks(net: MlpParams, x: np.ndarray, M: np.ndarray,
                  predicted: np.ndarray | None = None) -> np.ndarray:
    """Scores of the nonempty rows `x`, blocked as in :func:`score_batch`; unchecked.

    Given `predicted`, an int array of one entry per row, it takes each
    row's 0-based argmax class (smallest index on ties) from the same pass.
    """
    n = x.shape[0]
    rows = min(n, SCORE_BLOCK_ROWS)
    # Whole blocks: a short last one keeps the previous block's (finite) rows in its tail.
    scores = np.empty(-(-n // rows) * rows)
    cache, batch = _cache(net, rows), _with_ones(rows, net.input_dim)
    forward = _forward(net, cache)
    costs, k_star = np.empty((rows, M.shape[1])), np.empty(rows, dtype=np.intp)
    for start in range(0, n, rows):
        block = x[start:start + rows]
        batch[:block.shape[0], :-1] = block
        probs = forward(batch)
        _score_rows(probs, M, costs, k_star, scores[start:start + rows])()
        if predicted is not None:
            np.argmax(probs[:block.shape[0]], axis=1, out=predicted[start:start + rows])
    return scores[:n]
