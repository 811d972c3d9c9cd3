"""Adversarial and baseline training of the scoring classifier.

The discriminator D descends, on each minibatch,

    mean cross-entropy(InD)
      - beta_ood * mean score(observed OoD)
      - beta_z   * mean score(generated points)

and the generator G ascends ``beta_z * mean score(D(G(z)))``. Each outer
iteration takes n_d D steps, then n_g G steps. `train_wood`, the paper's
baseline, is the same loop without G: beta_z = 0 and one D step per
iteration, whatever n_d says. Every score is taken under the cost matrix M
passed in, the run's one matrix.

A D step is one forward and one backward pass over the stacked ``[InD;
observed OoD; generated]`` batch; a G step backpropagates through the
frozen D for its input gradient only. G runs once per iteration over the
noise of its D steps and first G step, and each block's values are those of
a pass over that block alone, bit for bit. Set-up binds each step once
(`_discriminator_step`, `_generator_step`), so the loop allocates no array
data and updates the parameter vectors in place. Each step checks that its
loss or objective and D's logits are finite.

Minibatches are drawn uniformly with replacement from each pool, the OoD
batch clamped to the pool size. A run is a deterministic function of
(config, data, M) and the `Rng` passed in, which it draws from in this
order: D's initialization, then G's; then per D step InD indices, OoD
indices and noise, and per G step noise. `_draws` takes them a chunk of
iterations at a time with the same values, and leaves the `Rng` where
per-step draws would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .data import Dataset, sample_noise
from .nets import (
    ForwardCache,
    Head,
    MlpParams,
    NumericError,
    _adam,
    _as_batch,
    _backward,
    _cache,
    _fold_columns,
    _forward,
    _rows,
    _scalar,
    _with_backward,
    _with_ones,
    init_adam,
    init_mlp,
    mlp_forward,
    write_csv,
)
from .rng import Rng, _box_muller
from .wasserstein import _score_rows, _scoring_cost_matrix, validate_cost_matrix

__all__ = [
    "TrainConfig",
    "IterationRecord",
    "TrainHistory",
    "discriminator_loss_and_grads",
    "generator_objective_and_grads",
    "check_architectures",
    "train_see_ood",
    "train_wood",
    "sample_generator",
    "write_history_csv",
]


@dataclass(frozen=True)
class TrainConfig:
    """Every knob of a training run, checked when built; defaults match the 2-D benchmark.

    No trainer reads `seed`: it is `experiment`'s replication base seed
    (replication r runs on ``seed + r``).
    """

    beta_ood: float = 1.0
    beta_z: float = 0.001
    n_d: int = 2
    n_g: int = 1
    lr_d: float = 1e-4
    lr_g: float = 1e-4
    batch_ind: int = 64
    batch_ood: int = 32
    batch_gen: int = 64
    iterations: int = 2000
    seed: int = 0
    discriminator_arch: tuple[int, ...] = (2, 128, 3)
    generator_arch: tuple[int, ...] = (2, 128, 2)

    def __post_init__(self):
        for name in ("beta_ood", "beta_z", "lr_d", "lr_g"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.beta_ood <= 0.0:
            raise ValueError(f"beta_ood must be > 0, got {self.beta_ood}")
        if self.beta_z < 0.0:
            raise ValueError(f"beta_z must be >= 0, got {self.beta_z}")
        for name in ("n_d", "n_g", "batch_ind", "batch_ood", "batch_gen"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lr_d", "lr_g"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("iterations", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("discriminator_arch", "generator_arch"):
            if len(getattr(self, name)) < 2 or min(getattr(self, name)) < 1:
                raise ValueError(f"{name} needs at least two layer sizes, each >= 1, "
                                 f"got {getattr(self, name)}")

    def effective_batch_ood(self, pool_size: int) -> int:
        """OoD minibatches never exceed the observed pool."""
        return min(self.batch_ood, pool_size)

    @property
    def noise_dim(self) -> int:
        """G's noise width, the first size of `generator_arch`."""
        return self.generator_arch[0]


@dataclass(frozen=True)
class IterationRecord:
    """An iteration's last D step's loss terms and last G step's objective; None without G."""

    iteration: int
    loss: float
    ce: float
    ood_score_mean: float
    gen_score_mean: float | None
    gen_objective: float | None


@dataclass(frozen=True)
class TrainHistory:
    """A run's per-iteration records and copies of its trained networks; `generator` may be None."""

    records: tuple[IterationRecord, ...]
    discriminator: MlpParams
    generator: MlpParams | None


def _one_hot(labels: np.ndarray, K: int) -> np.ndarray:
    if labels.size and (labels.min() < 1 or labels.max() > K):
        raise ValueError(f"labels must lie in 1..{K}")
    return np.eye(K)[labels - 1]


class _LossWorkspace:
    """Arrays of D's pass and loss layer over stacked ``[InD; observed OoD; generated]`` rows.

    `x` is the `_with_ones` batch, with `ind`, `ood` and `gen` views onto its
    blocks; `targets` holds the InD rows' one-hot labels and `cache` D's pass
    over `x`. The other arrays are the score layer's, over the score rows.
    """

    def __init__(self, D: MlpParams, n_ind: int, n_ood: int, n_gen: int):
        rows, K = n_ood + n_gen, D.output_dim
        self.x = _with_ones(n_ind + rows, D.input_dim)
        self.ind, self.ood, self.gen = np.split(self.x, [n_ind, n_ind + n_ood])
        self.targets = np.empty((n_ind, K))
        self.cache = _with_backward(D, _cache(D, self.x.shape[0]))
        self.costs = np.empty((rows, K))
        self.k_star = np.empty(rows, dtype=np.intp)
        self.scores = np.empty(rows)
        self.cols = np.empty((rows, K))
        self.inner = np.empty((rows, 1))


def _scores_and_logit_grads(probs: np.ndarray, M: np.ndarray, ws: _LossWorkspace,
                            out: np.ndarray):
    """Bind the loss layer's score kernel to softmax rows `probs`, ``ws`` and `out`.

    The closure writes the rows' scores into ``ws.scores`` and d(score)/d(logits)
    into `out`: with g the cost column of the argmin target,
    ``d(score)/dz_i = p_i * (g_i - p.g)``.
    """
    score = _score_rows(probs, M, ws.costs, ws.k_star, ws.scores)
    # Row k of M.T is the cost column of target k; the indices are in range.
    columns_by_target, k_star, cols, inner = M.T, ws.k_star, ws.cols, ws.inner
    fold_sum = _fold_columns(np.add, out, inner)

    def run():
        score()
        columns_by_target.take(k_star, axis=0, out=cols, mode="clip")
        np.multiply(probs, cols, out=out)
        fold_sum()
        np.subtract(cols, inner, out=cols)
        np.multiply(probs, cols, out=out)
    return run


def _discriminator_step(D: MlpParams, ws: _LossWorkspace, beta_ood: float,
                        beta_z: float, M: np.ndarray):
    """Bind the kernel of `discriminator_loss_and_grads` to D and the batch arrays of `ws`.

    Each call is one D step over the batch filled into `ws`: it returns
    (loss, (ce, mean_ood, mean_gen)) and leaves the gradient in
    ``ws.cache.grad``. Unchecked.
    """
    n_ind, n_ood, n_gen = ws.ind.shape[0], ws.ood.shape[0], ws.gen.shape[0]
    cache, x, targets = ws.cache, ws.x, ws.targets
    forward, backward = _forward(D, cache), _backward(D, cache)
    probs, up = cache.a[-1], cache.deltas[-1]
    probs_ind, up_ind, ind_count = probs[:n_ind], up[:n_ind], _scalar(n_ind)
    # log_softmax(z) = (z - max) - log(exp-sum), from the softmax's row max and
    # exp-sum, over the logits and the sums, which the softmax no longer needs.
    row_max, log_sum = cache.col[0][:n_ind], cache.col[1][:n_ind]
    log_probs = cache.logits[:n_ind]
    # The score rows' logit gradients land in their upstream rows, then get
    # their weights: one column holding each row's block scale.
    up_scores = up[n_ind:]
    logit_grads = _scores_and_logit_grads(probs[n_ind:], M, ws, up_scores)
    ood_scores, gen_scores = ws.scores[:n_ood], ws.scores[n_ood:]
    row_scales = np.full((n_ood + n_gen, 1), -beta_ood / n_ood)
    if n_gen:
        row_scales[n_ood:] = -beta_z / n_gen

    def step() -> tuple[float, tuple[float, float, float]]:
        forward(x)
        np.log(log_sum, out=log_sum)
        np.subtract(log_probs, row_max, out=log_probs)
        np.subtract(log_probs, log_sum, out=log_probs)
        np.multiply(log_probs, targets, out=log_probs)
        ce = float(-np.add.reduce(log_probs, axis=None) / n_ind)

        logit_grads()
        mean_ood = float(np.add.reduce(ood_scores) / n_ood)
        mean_gen = float(np.add.reduce(gen_scores) / n_gen) if n_gen else 0.0
        np.multiply(up_scores, row_scales, out=up_scores)
        np.subtract(probs_ind, targets, out=up_ind)
        np.divide(up_ind, ind_count, out=up_ind)
        backward(x)

        loss = ce - beta_ood * mean_ood - beta_z * mean_gen
        if not math.isfinite(loss):
            raise NumericError(f"discriminator loss is not finite: {loss}")
        return loss, (ce, mean_ood, mean_gen)
    return step


def discriminator_loss_and_grads(D: MlpParams, ind_x: np.ndarray, ind_y: np.ndarray,
                                 ood_x: np.ndarray, gen_x: np.ndarray, beta_ood: float,
                                 beta_z: float, M: np.ndarray
                                 ) -> tuple[float, tuple[float, float, float], np.ndarray]:
    """The three-term loss and its exact gradient over D's parameters; pure.

    ``loss = ce - beta_ood * mean_ood_score - beta_z * mean_gen_score``;
    returns (loss, (ce, mean_ood_score, mean_gen_score), grads). Each batch
    is an (n, D.input_dim) array, and ValueError names any that is not.
    `ind_x` and `ood_x` must be nonempty; an empty `gen_x` makes the third
    term 0. The generated batch is a fixed sample: no gradient reaches
    whatever produced it.
    """
    mat = _scoring_cost_matrix(D, M)
    ind_x = _as_batch(D, ind_x, "ind_x")
    ood_x = _as_batch(D, ood_x, "ood_x")
    gen_x = _as_batch(D, gen_x, "gen_x")
    if ind_x.shape[0] == 0:
        raise ValueError("the labeled batch must be nonempty")
    if ood_x.shape[0] == 0:
        raise ValueError("the observed OoD batch must be nonempty")
    ws = _LossWorkspace(D, ind_x.shape[0], ood_x.shape[0], gen_x.shape[0])
    np.concatenate([ind_x, ood_x, gen_x], out=ws.x[:, :-1])
    ws.targets[...] = _one_hot(np.asarray(ind_y), D.output_dim)
    loss, parts = _discriminator_step(D, ws, beta_ood, beta_z, mat)()
    return loss, parts, ws.cache.grad


def _generator_step(D: MlpParams, G: MlpParams, g_cache: ForwardCache, ws: _LossWorkspace,
                    beta_z: float, M: np.ndarray, ascend: bool = False):
    """Bind the kernel of `generator_objective_and_grads` to D, G and their arrays.

    ``step(noise)`` runs after G's pass over `noise` into `g_cache`; D runs
    on that output through `ws`, a workspace with only a generated block.
    It returns the objective and leaves in ``g_cache.grad`` the objective's
    gradient or, with `ascend`, its negative, which Adam descends to ascend.
    Rounding is sign-symmetric, so the two are negatives bit for bit, up to
    the sign of an exact zero. Unchecked.
    """
    fake, up, scores = g_cache.a[-1], ws.cache.deltas[-1], ws.scores
    rows = fake.shape[0]
    d_forward, g_backward = _forward(D, ws.cache), _backward(G, g_cache)
    d_backward = _backward(D, ws.cache, dx=g_cache.d[-1])
    logit_grads = _scores_and_logit_grads(ws.cache.a[-1], M, ws, up)
    scale = _scalar((-beta_z if ascend else beta_z) / rows)

    def step(noise: np.ndarray) -> float:
        d_forward(fake)
        logit_grads()
        objective = float(beta_z * (np.add.reduce(scores) / rows))
        if not math.isfinite(objective):
            raise NumericError(f"generator objective is not finite: {objective}")
        np.multiply(up, scale, out=up)
        d_backward(fake)
        g_backward(noise)
        return objective
    return step


def generator_objective_and_grads(
    D: MlpParams,
    G: MlpParams,
    noise_batch: np.ndarray,
    beta_z: float,
    M: np.ndarray,
) -> tuple[float, np.ndarray]:
    """``beta_z * mean score(D(G(z)))`` and its gradient over G's parameters, D frozen; pure.

    `noise_batch` is a nonempty (n, G.input_dim) array; ValueError names it
    otherwise.
    """
    mat = _scoring_cost_matrix(D, M)
    noise = _as_batch(G, noise_batch, "noise_batch")
    if noise.shape[0] == 0:
        raise ValueError("the noise batch must be nonempty")
    if G.head is not Head.IDENTITY:
        raise ValueError("the generator head must be Identity")
    if G.output_dim != D.input_dim:
        raise ValueError(
            f"generator emits dimension {G.output_dim}, discriminator expects {D.input_dim}"
        )
    rows = noise.shape[0]
    noise = _with_ones(rows, noise.shape[1], fill=noise)
    g_cache = _with_backward(G, _cache(G, rows))
    _forward(G, g_cache)(noise)
    objective = _generator_step(D, G, g_cache, _LossWorkspace(D, 0, 0, rows), beta_z, mat)(noise)
    return objective, g_cache.grad


def check_architectures(config: TrainConfig, data: Dataset, with_generator: bool,
                        M: np.ndarray) -> None:
    """Raise ValueError unless the layer sizes and a valid cost matrix `M` fit the data."""
    if validate_cost_matrix(M).shape[0] != data.K:
        raise ValueError(f"cost matrix is {M.shape[0]}x{M.shape[0]} but data has {data.K} classes")
    if config.discriminator_arch[0] != data.d:
        raise ValueError(
            f"discriminator input dimension {config.discriminator_arch[0]} "
            f"does not match data dimension {data.d}"
        )
    if config.discriminator_arch[-1] != data.K:
        raise ValueError(
            f"discriminator output dimension {config.discriminator_arch[-1]} "
            f"does not match class count {data.K}"
        )
    if with_generator and config.generator_arch[-1] != data.d:
        raise ValueError(
            f"generator output dimension {config.generator_arch[-1]} "
            f"does not match data dimension {data.d}"
        )


# Uniforms per chunk in `_draws`. At 8 bytes each this keeps the chunk's
# uniforms, and every array derived from them, below glibc's 128 KB mmap
# threshold whenever one iteration's draws fit. The draws do not depend on it.
DRAW_CHUNK_UNIFORMS = 12288


def _draws(rng: Rng, iterations: int, n_d: int, n_g: int, batch_ind: int, n_ind: int,
           b_ood: int, n_ood_pool: int, noise_shape: tuple[int, int] | None):
    """Yield each training iteration's random draws, taken a chunk of iterations at a time.

    Per iteration the stream holds, for each of its n_d discriminator steps,
    `batch_ind` uniforms for InD indices, `b_ood` for OoD indices and, given
    ``noise_shape = (batch_gen, noise_dim)``, the noise uniforms u1 then u2
    (``ceil(batch_gen * noise_dim / 2)`` each); then u1 and u2 for each of its
    n_g generator steps. That is the order of per-step ``indices_below`` and
    `sample_noise` calls, so each chunk is one `Rng.uniform` block.

    Yields (InD indices (n_d, batch_ind), OoD indices (n_d, b_ood), noise
    (n_d + n_g, batch_gen, noise_dim + 1) with a ones column, or None):
    views into buffers that the next chunk overwrites.
    """
    pairs = 0 if noise_shape is None else (noise_shape[0] * noise_shape[1] + 1) // 2
    d_len = batch_ind + b_ood + 2 * pairs
    per_iteration = n_d * d_len + n_g * 2 * pairs
    rows = max(1, min(iterations, DRAW_CHUNK_UNIFORMS // per_iteration))
    uniforms = np.empty((rows, per_iteration))
    # Splitting the last axis of a slice keeps these views onto `uniforms`.
    d_draws = uniforms[:, :n_d * d_len].reshape(rows, n_d, d_len)
    ind_idx = np.empty((rows, n_d, batch_ind), dtype=np.int64)
    ood_idx = np.empty((rows, n_d, b_ood), dtype=np.int64)
    noise = None
    if noise_shape is not None:
        g_draws = uniforms[:, n_d * d_len:].reshape(rows, n_g, 2 * pairs)
        u1, u2, work = (np.empty((rows, n_d + n_g, pairs)) for _ in range(3))
        first = batch_ind + b_ood
        d_u1, d_u2 = d_draws[:, :, first:first + pairs], d_draws[:, :, first + pairs:]
        g_u1, g_u2 = g_draws[:, :, :pairs], g_draws[:, :, pairs:]
        normals = np.empty((rows, n_d + n_g, 2 * pairs))
        # An odd count drops the last pair's sine, as `Rng.standard_normal` does.
        values = normals[:, :, :noise_shape[0] * noise_shape[1]].reshape(
            rows, n_d + n_g, *noise_shape)
        noise = _with_ones(rows * (n_d + n_g) * noise_shape[0], noise_shape[1]).reshape(
            rows, n_d + n_g, noise_shape[0], noise_shape[1] + 1)

    for start in range(0, iterations, rows):
        n = min(rows, iterations - start)
        rng.uniform(n * per_iteration, out=uniforms[:n])
        # floor(u * pool) through the int cast, as `Rng.indices_below` does.
        np.multiply(d_draws[:n, :, :batch_ind], n_ind, out=ind_idx[:n], casting="unsafe")
        np.multiply(d_draws[:n, :, batch_ind:batch_ind + b_ood], n_ood_pool, out=ood_idx[:n],
                    casting="unsafe")
        if noise is not None:
            # Every step's u1, then u2, side by side for one Box-Muller pass.
            np.copyto(u1[:n, :n_d], d_u1[:n])
            np.copyto(u1[:n, n_d:], g_u1[:n])
            np.copyto(u2[:n, :n_d], d_u2[:n])
            np.copyto(u2[:n, n_d:], g_u2[:n])
            _box_muller(u1[:n], u2[:n], normals[:n], work[:n])
            np.copyto(noise[:n, ..., :-1], values[:n])
        for r in range(n):
            yield ind_idx[r], ood_idx[r], None if noise is None else noise[r]


def _train(config: TrainConfig, data: Dataset, rng: Rng, M: np.ndarray,
           with_generator: bool) -> TrainHistory:
    """The one loop behind `train_see_ood` and `train_wood`; see the module docstring."""
    if data.ind_train_x.shape[0] == 0:
        raise ValueError("training requires at least one labeled InD sample")
    if data.ood_train.shape[0] == 0:
        raise ValueError("training requires at least one observed OoD sample")
    check_architectures(config, data, with_generator, M)

    n_d = config.n_d if with_generator else 1
    n_g = config.n_g if with_generator else 0
    beta_z = config.beta_z if with_generator else 0.0
    # D and G stay private to the run: their flat vectors are updated in place.
    D = init_mlp(config.discriminator_arch, Head.SOFTMAX, rng)
    adam_d = init_adam(D)
    if with_generator:
        G = init_mlp(config.generator_arch, Head.IDENTITY, rng)
        adam_g = init_adam(G)

    # The pools with their ones columns, so `take` fills whole batch rows.
    ind_pool = _with_ones(*data.ind_train_x.shape, fill=data.ind_train_x)
    ood_pool = _with_ones(*data.ood_train.shape, fill=data.ood_train)
    targets = _one_hot(data.ind_train_y, data.K)
    n_ind = data.ind_train_x.shape[0]
    n_ood_pool = data.ood_train.shape[0]
    b_ood = config.effective_batch_ood(n_ood_pool)
    d_ws = _LossWorkspace(D, config.batch_ind, b_ood, config.batch_gen if with_generator else 0)
    d_step = _discriminator_step(D, d_ws, config.beta_ood, beta_z, M)
    d_adam = _adam(D.flat, d_ws.cache.grad, adam_d.m, adam_d.v, config.lr_d)
    ind_batch, ood_batch, gen_batch, ind_targets = d_ws.ind, d_ws.ood, d_ws.gen, d_ws.targets
    if with_generator:
        # G's weights change only in G steps, so the n_d D steps' noise
        # batches and the first G step's share one pass: `g_pass` holds it,
        # `g_out` its ones-column output by batch. `g_cache` is the first G
        # step's rows of it, with backward arrays; a later G step runs its
        # own pass there.
        bg = config.batch_gen
        g_pass = _cache(G, (n_d + 1) * bg)
        g_out = g_pass.a[-1].reshape(n_d + 1, bg, -1)
        g_cache = _with_backward(G, _rows(g_pass, n_d * bg, (n_d + 1) * bg))
        g_forward_stacked, g_forward = _forward(G, g_pass), _forward(G, g_cache)
        # D's pass and loss layer over G's output, for the G step, which
        # ascends: Adam descends the gradient of the negated objective.
        g_step = _generator_step(D, G, g_cache, _LossWorkspace(D, 0, 0, bg), config.beta_z, M,
                                 ascend=True)
        g_adam = _adam(G.flat, g_cache.grad, adam_g.m, adam_g.v, config.lr_g)
    draws = _draws(rng, config.iterations, n_d, n_g, config.batch_ind, n_ind, b_ood, n_ood_pool,
                   (config.batch_gen, config.noise_dim) if with_generator else None)

    records = []
    for it, (ind_idx, ood_idx, noise) in enumerate(draws, start=1):
        if with_generator:
            g_forward_stacked(noise[:n_d + 1].reshape((n_d + 1) * bg, -1))
        for j in range(n_d):
            # The indices are in range; mode "raise" would copy through a temporary.
            # The methods skip `np.take`'s Python wrapper.
            ind_pool.take(ind_idx[j], axis=0, out=ind_batch, mode="clip")
            targets.take(ind_idx[j], axis=0, out=ind_targets, mode="clip")
            ood_pool.take(ood_idx[j], axis=0, out=ood_batch, mode="clip")
            if with_generator:
                gen_batch[...] = g_out[j]
            loss, (ce, mean_ood, mean_gen) = d_step()
            d_adam((it - 1) * n_d + j + 1)

        if not with_generator:
            records.append(IterationRecord(it, loss, ce, mean_ood, None, None))
            continue
        for k in range(n_d, n_d + n_g):
            if k > n_d:
                g_forward(noise[k])
            objective = g_step(noise[k])
            g_adam((it - 1) * n_g + (k - n_d) + 1)
        records.append(IterationRecord(it, loss, ce, mean_ood, mean_gen, objective))

    # Fresh copies; constructing them checks that the trained weights are finite.
    return TrainHistory(tuple(records), replace(D, flat=D.flat.copy()),
                        replace(G, flat=G.flat.copy()) if with_generator else None)


def train_see_ood(config: TrainConfig, data: Dataset, rng: Rng, M: np.ndarray) -> TrainHistory:
    """Alternating adversarial training; ValueError for empty pools or a misfit architecture."""
    return _train(config, data, rng, M, with_generator=True)


def train_wood(config: TrainConfig, data: Dataset, rng: Rng, M: np.ndarray) -> TrainHistory:
    """Generator-free baseline: descend ``mean CE - beta_ood * mean score(OoD)``."""
    return _train(config, data, rng, M, with_generator=False)


def sample_generator(G: MlpParams, count: int, rng: Rng) -> np.ndarray:
    """`count` generated points from standard-normal noise of G's input width."""
    if count == 0:
        return np.empty((0, G.output_dim))
    return mlp_forward(G, sample_noise(G.input_dim, count, rng))


def write_history_csv(history: TrainHistory, path) -> None:
    """One row per iteration and column per `IterationRecord` field; None stays empty."""
    names = [f.name for f in fields(IterationRecord)]
    write_csv(path, names, ([getattr(rec, name) for name in names] for rec in history.records))
