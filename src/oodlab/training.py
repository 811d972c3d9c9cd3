"""Adversarial and baseline training of the scoring classifier.

Two trainers share one loss family. The discriminator loss on a minibatch is

    mean cross-entropy(InD)
      - beta_ood * mean score(observed OoD)
      - beta_z   * mean score(generated points)

which the discriminator descends: it learns to classify labeled points
confidently while mapping both observed and generated outliers to high
scores, so the generated batch acts as beta_z-weighted augmentation of the
observed pool. The generator ascends ``beta_z * mean score(D(G(z)))``,
steering its samples toward regions the discriminator still finds uncertain;
the two updates together let the pair stake out out-of-distribution
territory beyond the observed points. Both trainers run one loop: per outer
iteration, n_d discriminator steps, then n_g generator steps. `train_wood`
runs it without a generator, as the paper's baseline is SEE-OoD minus the
generator: an empty generated batch, beta_z = 0, and one discriminator step
per iteration whatever n_d says.

A discriminator step is one forward and one backward pass over the stacked
``[InD; observed OoD; generated]`` batch; a generator step backpropagates
through the frozen discriminator for its input gradient only. The loop checks
architectures and labels once per run, then calls the unchecked step kernels
behind `discriminator_loss_and_grads` and `generator_objective_and_grads`.

The loop allocates no array that grows with the networks. Before the first
step it sizes one workspace from the config: `_DiscriminatorWorkspace` holds
the stacked batch (filled by ``np.take`` and the generator's forward pass),
its one-hot targets and D's buffers over it (pre-activations, activations,
deltas, flat gradient); the generator step has G's buffers and D's over
G's output, and writes D's input gradient straight into G's upstream
gradient. D's and G's parameter vectors and Adam moments are private to the
run and updated in place by the `oodlab.nets` kernels; `TrainHistory` gets
fresh copies at the end, whose construction checks the trained weights are
finite. Each step still checks that the logits, the loss and the objective
are finite. What still allocates per step is small: the index and noise
draws and the (batch, K) arrays of the loss layer.

Minibatches are drawn uniformly with replacement from each pool, with the
OoD batch size clamped to the pool size. Runs are deterministic functions of
(config, data, seed): the discriminator is initialized first, then the
generator; each discriminator step then draws InD indices, OoD indices and
noise, and each generator step draws noise.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .data import Dataset, sample_noise
from .nets import (
    Activation,
    Head,
    MlpParams,
    NumericError,
    _adam,
    _backward,
    _Buffers,
    _buffers,
    _forward,
    init_mlp,
    log_softmax,
    mlp_forward,
    write_csv,
)
from .rng import Rng
from .wasserstein import binary_cost_matrix, score_rows, validate_cost_matrix

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
    """Every knob of a training run; defaults match the 2-D benchmark."""

    beta_ood: float = 1.0
    beta_z: float = 0.001
    n_d: int = 2
    n_g: int = 1
    lr_d: float = 1e-4
    lr_g: float = 1e-4
    batch_ind: int = 64
    batch_ood: int = 32
    batch_gen: int = 64
    noise_dim: int = 2
    iterations: int = 2000
    seed: int = 0
    discriminator_arch: tuple[int, ...] = (2, 128, 3)
    generator_arch: tuple[int, ...] = (2, 128, 2)
    adam_beta1: float = 0.5
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8

    def __post_init__(self):
        if self.beta_ood <= 0.0:
            raise ValueError(f"beta_ood must be > 0, got {self.beta_ood}")
        if self.beta_z < 0.0:
            raise ValueError(f"beta_z must be >= 0, got {self.beta_z}")
        for name in ("n_d", "n_g", "batch_ind", "batch_ood", "batch_gen", "noise_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lr_d", "lr_g"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not self.adam_epsilon > 0.0:
            raise ValueError(f"adam_epsilon must be > 0, got {self.adam_epsilon}")
        for name in ("discriminator_arch", "generator_arch"):
            if len(getattr(self, name)) < 2 or min(getattr(self, name)) < 1:
                raise ValueError(f"{name} needs at least two layer sizes, each >= 1, "
                                 f"got {getattr(self, name)}")

    def effective_batch_ood(self, pool_size: int) -> int:
        """OoD minibatches never exceed the observed pool."""
        return min(self.batch_ood, pool_size)


@dataclass(frozen=True)
class IterationRecord:
    """Loss breakdown of an iteration's last D step and objective of its last G step.

    Generator fields are None for runs without a generator.
    """

    iteration: int
    loss: float
    ce: float
    ood_score_mean: float
    gen_score_mean: float | None
    gen_objective: float | None


@dataclass(frozen=True)
class TrainHistory:
    records: tuple[IterationRecord, ...]
    discriminator: MlpParams
    generator: MlpParams | None


def _one_hot(labels: np.ndarray, K: int) -> np.ndarray:
    if labels.size and (labels.min() < 1 or labels.max() > K):
        raise ValueError(f"labels must lie in 1..{K}")
    return np.eye(K)[labels - 1]


def _score_values_and_logit_grads(probs: np.ndarray,
                                  M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row scores and d(score)/d(logits) for softmax outputs.

    With cost column g of the (smallest-index) argmin target, the chain rule
    through the softmax gives d(score)/dz_i = p_i * (g_i - p.g).
    """
    scores, k_star = score_rows(probs, M)
    g = M[:, k_star].T
    inner = np.sum(probs * g, axis=1, keepdims=True)
    return scores, probs * (g - inner)


class _DiscriminatorWorkspace:
    """Arrays of a discriminator step over stacked ``[InD; observed OoD; generated]`` rows.

    `x` holds the batch, with `ind`, `ood` and `gen` views onto its blocks,
    and `targets` the InD rows' one-hot labels; `buffers` holds D's pass over
    `x`, its gradient included, and `up` views onto the blocks of its
    upstream gradient.
    """

    def __init__(self, D: MlpParams, n_ind: int, n_ood: int, n_gen: int):
        self.x = np.empty((n_ind + n_ood + n_gen, D.input_dim))
        self.ind, self.ood, self.gen = np.split(self.x, [n_ind, n_ind + n_ood])
        self.targets = np.empty((n_ind, D.output_dim))
        self.buffers = _buffers(D, self.x.shape[0])
        self.up = np.split(self.buffers.deltas[-1], [n_ind, n_ind + n_ood])


def _discriminator_step(D: MlpParams, ws: _DiscriminatorWorkspace, beta_ood: float,
                        beta_z: float, M: np.ndarray) -> tuple[float, tuple[float, float, float]]:
    """Unchecked kernel of `discriminator_loss_and_grads` over the batch filled into `ws`.

    One forward and one backward pass over the stacked batch, with each
    block's loss weight folded into its rows of the upstream logit gradient.
    The gradient lands in ``ws.buffers.grad``.
    """
    n_ind, n_ood, n_gen = ws.ind.shape[0], ws.ood.shape[0], ws.gen.shape[0]
    probs = _forward(D, ws.x, ws.buffers)
    ce = float(-np.sum(log_softmax(ws.buffers.pres[-1][:n_ind]) * ws.targets) / n_ind)
    scores, g = _score_values_and_logit_grads(probs[n_ind:], M)
    mean_ood = float(scores[:n_ood].mean())
    mean_gen = float(scores[n_ood:].mean()) if n_gen else 0.0

    up_ind, up_ood, up_gen = ws.up
    np.subtract(probs[:n_ind], ws.targets, out=up_ind)
    np.divide(up_ind, n_ind, out=up_ind)
    np.multiply(-beta_ood / n_ood, g[:n_ood], out=up_ood)
    if n_gen:
        np.multiply(-beta_z / n_gen, g[n_ood:], out=up_gen)
    _backward(D, ws.x, ws.buffers)

    loss = ce - beta_ood * mean_ood - beta_z * mean_gen
    if not np.isfinite(loss):
        raise NumericError(f"discriminator loss is not finite: {loss}")
    return loss, (ce, mean_ood, mean_gen)


def discriminator_loss_and_grads(D: MlpParams, ind_x: np.ndarray, ind_y: np.ndarray,
                                 ood_x: np.ndarray, gen_x: np.ndarray, beta_ood: float,
                                 beta_z: float, M: np.ndarray
                                 ) -> tuple[float, tuple[float, float, float], np.ndarray]:
    """Full three-term loss and its gradient over the discriminator.

    ``loss = ce - beta_ood * mean_ood_score - beta_z * mean_gen_score``;
    returns (loss, (ce, mean_ood_score, mean_gen_score), grads) with grads
    the exact gradient of that loss. `gen_x` may be empty for generator-free
    training, in which case the third component is 0. The generated batch is
    treated as a fixed sample of augmentation points; nothing backpropagates
    into whatever produced it.
    """
    mat = validate_cost_matrix(M)
    if D.head is not Head.SOFTMAX:
        raise ValueError("the discriminator needs a Softmax head")
    ind_x = np.asarray(ind_x, dtype=float)
    if ind_x.ndim != 2 or ind_x.shape[0] == 0:
        raise ValueError("the labeled batch must be a nonempty (n, d) array")
    ood_x = np.asarray(ood_x, dtype=float)
    if ood_x.ndim != 2 or ood_x.shape[0] == 0:
        raise ValueError("the observed OoD batch must be a nonempty (n, d) array")
    gen_x = np.asarray(gen_x, dtype=float)
    targets = _one_hot(np.asarray(ind_y), D.output_dim)
    ws = _DiscriminatorWorkspace(D, ind_x.shape[0], ood_x.shape[0], gen_x.shape[0])
    np.concatenate([ind_x, ood_x, gen_x], out=ws.x)
    ws.targets[...] = targets
    loss, parts = _discriminator_step(D, ws, beta_ood, beta_z, mat)
    return loss, parts, ws.buffers.grad


def _generator_step(D: MlpParams, G: MlpParams, noise: np.ndarray, g_buf: _Buffers,
                    d_buf: _Buffers, beta_z: float, M: np.ndarray) -> float:
    """Unchecked kernel of `generator_objective_and_grads`, through G's and D's buffers.

    D's input gradient is written straight into G's upstream gradient; G's
    gradient lands in ``g_buf.grad``.
    """
    fake = _forward(G, noise, g_buf)
    probs = _forward(D, fake, d_buf)
    scores, logit_grads = _score_values_and_logit_grads(probs, M)
    objective = float(beta_z * scores.mean())
    if not np.isfinite(objective):
        raise NumericError(f"generator objective is not finite: {objective}")

    np.multiply(beta_z / noise.shape[0], logit_grads, out=d_buf.deltas[-1])
    _backward(D, fake, d_buf, dx=g_buf.deltas[-1])
    _backward(G, noise, g_buf)
    return objective


def generator_objective_and_grads(
    D: MlpParams,
    G: MlpParams,
    noise_batch: np.ndarray,
    beta_z: float,
    M: np.ndarray,
) -> tuple[float, np.ndarray]:
    """``beta_z * mean score(D(G(z)))`` and its gradient over the generator.

    The discriminator is treated as frozen; its input gradient chains the
    score back into G.
    """
    mat = validate_cost_matrix(M)
    noise = np.asarray(noise_batch, dtype=float)
    if noise.ndim != 2 or noise.shape[0] == 0:
        raise ValueError("the noise batch must be a nonempty (n, dim) array")
    if G.head is Head.SOFTMAX:
        raise ValueError("the generator head must be Identity or Tanh")
    if G.output_dim != D.input_dim:
        raise ValueError(
            f"generator emits dimension {G.output_dim}, discriminator expects {D.input_dim}"
        )
    if D.head is not Head.SOFTMAX:
        raise ValueError("the discriminator needs a Softmax head")
    g_buf = _buffers(G, noise.shape[0])
    objective = _generator_step(D, G, noise, g_buf, _buffers(D, noise.shape[0]), beta_z, mat)
    return objective, g_buf.grad


def check_architectures(config: TrainConfig, data: Dataset, with_generator: bool) -> None:
    """Raise ValueError unless the configured layer sizes fit the data and noise."""
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
    if with_generator:
        if config.generator_arch[0] != config.noise_dim:
            raise ValueError(
                f"generator input dimension {config.generator_arch[0]} "
                f"does not match noise_dim {config.noise_dim}"
            )
        if config.generator_arch[-1] != data.d:
            raise ValueError(
                f"generator output dimension {config.generator_arch[-1]} "
                f"does not match data dimension {data.d}"
            )


class _Adam:
    """Adam moments of one network, updating its parameter vector in place."""

    def __init__(self, params: MlpParams, config: TrainConfig):
        self.flat = params.flat
        self.m, self.v = np.zeros_like(self.flat), np.zeros_like(self.flat)
        self.scratch = (np.empty_like(self.flat), np.empty_like(self.flat))
        self.t = 0
        self.hyper = (config.adam_beta1, config.adam_beta2, config.adam_epsilon)

    def step(self, grad: np.ndarray, lr: float) -> None:
        self.t += 1
        _adam(self.flat, grad, self.m, self.v, self.t, lr, *self.hyper, self.scratch)


def _train(config: TrainConfig, data: Dataset, rng: Rng | None,
           with_generator: bool) -> TrainHistory:
    """The one loop behind `train_see_ood` and `train_wood`; see the module docstring."""
    if data.ood_train.shape[0] == 0:
        raise ValueError("training requires at least one observed OoD sample")
    if rng is None:
        rng = Rng(config.seed)
    check_architectures(config, data, with_generator)

    M = binary_cost_matrix(data.K)
    # D and G stay private to the run: their flat vectors are updated in place.
    D = init_mlp(config.discriminator_arch, Activation.RELU, Head.SOFTMAX, rng)
    adam_d = _Adam(D, config)
    G = None
    if with_generator:
        G = init_mlp(config.generator_arch, Activation.RELU, Head.IDENTITY, rng)
        adam_g = _Adam(G, config)
        # G's pass, and D's pass over G's output, over one noise batch.
        g_buf, dg_buf = _buffers(G, config.batch_gen), _buffers(D, config.batch_gen)

    targets = _one_hot(data.ind_train_y, data.K)
    n_ind = data.ind_train_x.shape[0]
    n_ood_pool = data.ood_train.shape[0]
    b_ood = config.effective_batch_ood(n_ood_pool)
    n_d = config.n_d if with_generator else 1
    beta_z = config.beta_z if with_generator else 0.0
    d_ws = _DiscriminatorWorkspace(D, config.batch_ind, b_ood,
                                   config.batch_gen if with_generator else 0)

    records = []
    for it in range(1, config.iterations + 1):
        for _ in range(n_d):
            ind_idx = rng.indices_below(n_ind, config.batch_ind)
            ood_idx = rng.indices_below(n_ood_pool, b_ood)
            # The indices are in range; mode "raise" would copy through a temporary.
            np.take(data.ind_train_x, ind_idx, axis=0, out=d_ws.ind, mode="clip")
            np.take(targets, ind_idx, axis=0, out=d_ws.targets, mode="clip")
            np.take(data.ood_train, ood_idx, axis=0, out=d_ws.ood, mode="clip")
            if with_generator:
                noise = sample_noise(config.noise_dim, config.batch_gen, rng)
                d_ws.gen[...] = _forward(G, noise, g_buf)
            loss, (ce, mean_ood, mean_gen) = _discriminator_step(
                D, d_ws, config.beta_ood, beta_z, M)
            adam_d.step(d_ws.buffers.grad, config.lr_d)

        if not with_generator:
            records.append(IterationRecord(it, loss, ce, mean_ood, None, None))
            continue
        for _ in range(config.n_g):
            noise = sample_noise(config.noise_dim, config.batch_gen, rng)
            objective = _generator_step(D, G, noise, g_buf, dg_buf, config.beta_z, M)
            # Ascent: feed Adam the negated gradient.
            np.negative(g_buf.grad, out=g_buf.grad)
            adam_g.step(g_buf.grad, config.lr_g)
        records.append(IterationRecord(it, loss, ce, mean_ood, mean_gen, objective))

    # Fresh copies; constructing them checks that the trained weights are finite.
    return TrainHistory(tuple(records), replace(D, flat=D.flat.copy()),
                        None if G is None else replace(G, flat=G.flat.copy()))


def train_see_ood(config: TrainConfig, data: Dataset, rng: Rng | None = None) -> TrainHistory:
    """Alternating adversarial training; requires at least one observed OoD point."""
    return _train(config, data, rng, with_generator=True)


def train_wood(config: TrainConfig, data: Dataset, rng: Rng | None = None) -> TrainHistory:
    """Generator-free baseline: descend ``mean CE - beta_ood * mean score(OoD)``."""
    return _train(config, data, rng, with_generator=False)


def sample_generator(G: MlpParams, count: int, n: int, rng: Rng) -> np.ndarray:
    """`count` generated points from standard-normal noise of dimension n."""
    if G.input_dim != n:
        raise ValueError(f"generator expects noise dimension {G.input_dim}, got {n}")
    if count == 0:
        return np.empty((0, G.output_dim))
    noise = sample_noise(n, count, rng)
    out, _ = mlp_forward(G, noise)
    return out


def write_history_csv(history: TrainHistory, path) -> None:
    """One row per iteration and column per `IterationRecord` field; None stays empty."""
    names = [f.name for f in fields(IterationRecord)]
    write_csv(path, names, ([getattr(rec, name) for name in names] for rec in history.records))
