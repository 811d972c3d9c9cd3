"""Transport-cost scoring of predicted class distributions.

A score for a probability vector p is the cheapest cost of transporting p
onto any one-hot target under a user-supplied cost matrix M. Because the
target is one-hot, the optimal transport plan is closed-form (all mass of
class j moves to the target class k at cost M[j, k]), so the score is

    score(p; M) = min_k sum_j p[j] * M[j, k]

Under the binary cost matrix (ones off the diagonal) this collapses to
``1 - max(p)``: zero for a one-hot prediction, ``1 - 1/K`` for the uniform
one. Class indices in this module are 1-based, matching dataset labels and
the CSV formats.

The cost to the one-hot target of class k is entry k of ``p @ M``;
:func:`wasserstein_score` returns the smallest with its class. The score's
gradient with respect to p is M's column at that class, which the trainers
chain through the softmax (`training._scores_and_logit_grads`). One kernel,
`_score_rows`, scores rows of probabilities into caller-owned arrays: those
of a `training._LossWorkspace` in training, and block arrays next to one
`nets.ForwardCache` in :func:`score_batch`. Like the `nets` kernels it is a
binder: it takes the arrays once and returns a closure that runs the step.
"""

from __future__ import annotations

import numpy as np

from .nets import (
    Head,
    MlpParams,
    _as_batch,
    _cache,
    _fold_columns,
    _forward,
    _with_ones,
    read_float_csv,
)

__all__ = [
    "validate_prob_vector",
    "validate_cost_matrix",
    "binary_cost_matrix",
    "load_cost_matrix_csv",
    "wasserstein_score",
    "score_batch",
]

PROB_SUM_TOL = 1e-9
# Rows per forward pass in `score_batch`, so a large grid reuses one set of
# buffers and a block's (rows, 129) hidden array of a 128-wide layer, about
# 1 MB, stays in a 2 MB L2 cache with the block's other arrays. Every block,
# the last included, runs at this size. With numpy's OpenBLAS, blocks of 512
# to 4096 rows score with the same bits as one pass over all rows; 128- and
# 256-row blocks do not, so change this only with the blocked-scoring tests.
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
    """Read K rows of K comma-separated floats and validate the invariants."""
    return validate_cost_matrix(read_float_csv(path, "cost matrix"))


def _score_rows(probs: np.ndarray, M: np.ndarray, costs: np.ndarray, k_star: np.ndarray,
                scores: np.ndarray):
    """Bind the score kernel: the closure writes transport costs ``probs @ M`` into `costs`.

    It writes each row's argmin column into `k_star` and its minimum cost,
    which is the cost at that column, into `scores`. All are caller-owned
    arrays, bound here with the views the kernel needs; unchecked.
    """
    fold_min = _fold_columns(np.minimum, costs, scores[:, None])

    def run():
        np.matmul(probs, M, out=costs)
        costs.argmin(axis=1, out=k_star)
        fold_min()
    return run


def wasserstein_score(p, M) -> tuple[float, int]:
    """Minimum transport cost to any one-hot target.

    Returns (score, argmin_class) with the smallest-index class winning ties.
    """
    vec = validate_prob_vector(p)
    mat = validate_cost_matrix(M)
    if vec.size != mat.shape[0]:
        raise ValueError(f"p has {vec.size} classes but M is {mat.shape[0]}x{mat.shape[0]}")
    scores, k_star = np.empty(1), np.empty(1, dtype=np.intp)
    _score_rows(vec[None, :], mat, np.empty((1, mat.shape[1])), k_star, scores)()
    return float(scores[0]), int(k_star[0]) + 1


def score_batch(net: MlpParams, inputs, M) -> np.ndarray:
    """Scores of ``net``'s predictions for the rows of an (n, d) array, order preserved.

    The forward pass runs over blocks of `SCORE_BLOCK_ROWS` rows through one
    set of buffers, so the working arrays stay the size of one block however
    many rows there are: each block is copied into one `nets._with_ones`
    batch, and a short last block is padded to full size. A row's bits
    depend on the batch it is scored in: scored alone, or among other rows,
    a point may score differently in the last bit.
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

    The forward pass is bound once per call, to one block's buffers; the
    score kernel once per block, to that block's rows of the output.

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
