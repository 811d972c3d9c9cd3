"""Minimal dense feed-forward network engine.

Forward pass, analytic backpropagation, bias-corrected Adam, a central
finite-difference gradient oracle for tests, and a flat text format for
weights. Everything is float64 and pure: functions return new values and
never mutate their arguments, so two calls with equal inputs give bitwise
equal outputs.

Gradient convention: for a ``Softmax`` head, :func:`mlp_backward` expects the
upstream gradient with respect to the pre-head logits (the loss layer folds
the softmax Jacobian in; see :mod:`oodlab.training`). For ``Tanh`` and
``Identity`` heads it expects the gradient with respect to the raw network
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rng import Rng

__all__ = [
    "Activation",
    "Head",
    "MlpParams",
    "Gradients",
    "AdamState",
    "ForwardCache",
    "NumericError",
    "init_mlp",
    "softmax",
    "mlp_forward",
    "mlp_backward",
    "adam_step",
    "finite_difference_gradient",
    "fmt_float",
    "params_to_text",
    "params_from_text",
    "write_params",
    "read_params",
]


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


class Activation(Enum):
    RELU = "ReLU"
    TANH = "Tanh"


class Head(Enum):
    SOFTMAX = "Softmax"
    TANH = "Tanh"
    IDENTITY = "Identity"


@dataclass(frozen=True)
class MlpParams:
    """Weights and biases of a dense network.

    ``weights[l]`` has shape (layer_sizes[l+1], layer_sizes[l]) and
    ``biases[l]`` has length layer_sizes[l+1]. The hidden activation is
    applied after every layer except the last, which gets `head`.
    """

    layer_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    hidden: Activation
    head: Head

    def __post_init__(self):
        sizes = self.layer_sizes
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"need at least two positive layer sizes, got {sizes}")
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ValueError("one weight matrix and one bias vector per layer required")
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[l + 1], sizes[l]):
                raise ValueError(
                    f"layer {l} weights have shape {w.shape}, expected {(sizes[l + 1], sizes[l])}"
                )
            if b.shape != (sizes[l + 1],):
                raise ValueError(f"layer {l} bias has shape {b.shape}, expected {(sizes[l + 1],)}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {l} has non-finite entries")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def n_scalars(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


@dataclass(frozen=True)
class Gradients:
    """Per-parameter gradients, shape-mirroring the MlpParams they came from."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def scaled(self, factor: float) -> "Gradients":
        return Gradients(
            tuple(factor * w for w in self.weights),
            tuple(factor * b for b in self.biases),
        )

    def plus(self, other: "Gradients") -> "Gradients":
        return Gradients(
            tuple(a + b for a, b in zip(self.weights, other.weights)),
            tuple(a + b for a, b in zip(self.biases, other.biases)),
        )

    def max_abs(self) -> float:
        parts = [np.max(np.abs(a)) if a.size else 0.0 for a in self.weights + self.biases]
        return float(max(parts))


def zero_gradients(params: MlpParams) -> Gradients:
    return Gradients(
        tuple(np.zeros_like(w) for w in params.weights),
        tuple(np.zeros_like(b) for b in params.biases),
    )


@dataclass(frozen=True)
class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    m: Gradients
    v: Gradients
    t: int
    beta1: float
    beta2: float
    epsilon: float

    def __post_init__(self):
        if self.t < 0:
            raise ValueError(f"step counter must be >= 0, got {self.t}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be > 0")


def init_adam(params: MlpParams, beta1: float = 0.5, beta2: float = 0.999,
              epsilon: float = 1e-8) -> AdamState:
    return AdamState(zero_gradients(params), zero_gradients(params), 0, beta1, beta2, epsilon)


def init_mlp(layer_sizes: list[int] | tuple[int, ...], hidden: Activation, head: Head,
             rng: Rng) -> MlpParams:
    """Fresh network with uniform Glorot weights and zero biases.

    Weight entries are drawn layer by layer in row-major order from
    ``U(-a, a)`` with ``a = sqrt(6 / (fan_in + fan_out))``; biases consume no
    draws. The draw order is part of the reproducibility contract.
    """
    sizes = tuple(int(s) for s in layer_sizes)
    weights = []
    biases = []
    for l in range(len(sizes) - 1):
        fan_in, fan_out = sizes[l], sizes[l + 1]
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        u = rng.uniform(fan_out * fan_in).reshape(fan_out, fan_in)
        weights.append((2.0 * u - 1.0) * bound)
        biases.append(np.zeros(fan_out))
    return MlpParams(sizes, tuple(weights), tuple(biases), hidden, head)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax computed after subtracting the max logit.

    Accepts a vector or a (batch, K) matrix; normalizes along the last axis.
    """
    z = np.asarray(logits, dtype=float)
    if z.size == 0:
        raise ValueError("softmax of an empty vector is undefined")
    if not np.isfinite(z).all():
        raise ValueError("softmax requires finite logits")
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """log(softmax(z)) in log-sum-exp form; never evaluates log(0)."""
    z = np.asarray(logits, dtype=float)
    shifted = z - np.max(z, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


@dataclass(frozen=True)
class ForwardCache:
    """Intermediate activations kept for backprop.

    ``pre_activations[l]`` and ``activations[l]`` are the values entering and
    leaving layer l's nonlinearity; ``activations[-1]`` is the network output.
    """

    layer_sizes: tuple[int, ...]
    single: bool
    inputs: np.ndarray
    pre_activations: tuple[np.ndarray, ...]
    activations: tuple[np.ndarray, ...]


def _apply_hidden(z: np.ndarray, activation: Activation) -> np.ndarray:
    if activation is Activation.RELU:
        return np.maximum(z, 0.0)
    return np.tanh(z)


def mlp_forward(params: MlpParams, inputs: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on one vector or a (batch, input_dim) matrix.

    Returns the output (same batch arrangement as the input) and the cache
    required by :func:`mlp_backward`.
    """
    x = np.asarray(inputs, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(
            f"input has shape {np.shape(inputs)}, expected vectors of length {params.input_dim}"
        )

    a = x
    pres = []
    acts = []
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w.T + b
        pres.append(z)
        if l < last:
            a = _apply_hidden(z, params.hidden)
        elif params.head is Head.SOFTMAX:
            a = softmax(z)
        elif params.head is Head.TANH:
            a = np.tanh(z)
        else:
            a = z
        acts.append(a)

    cache = ForwardCache(params.layer_sizes, single, x, tuple(pres), tuple(acts))
    out = acts[-1][0] if single else acts[-1]
    return out, cache


def mlp_backward(params: MlpParams, cache: ForwardCache,
                 output_gradient: np.ndarray) -> tuple[Gradients, np.ndarray]:
    """Backpropagate an upstream gradient through the cached forward pass.

    For a Softmax head `output_gradient` must already be with respect to the
    pre-head logits; for Tanh and Identity heads it is with respect to the
    output itself. Batched caches take a (batch, output_dim) gradient and the
    per-sample contributions are summed, so any 1/batch averaging belongs in
    the loss layer.
    """
    if cache.layer_sizes != params.layer_sizes:
        raise ValueError(
            f"cache built for layers {cache.layer_sizes}, params have {params.layer_sizes}"
        )
    g = np.asarray(output_gradient, dtype=float)
    if cache.single:
        g = g[None, :]
    if g.shape != cache.activations[-1].shape:
        raise ValueError(
            f"output gradient has shape {np.shape(output_gradient)}, "
            f"expected {cache.activations[-1].shape}"
        )

    last = len(params.weights) - 1
    if params.head is Head.TANH:
        delta = g * (1.0 - cache.activations[last] ** 2)
    else:
        # Identity head, or Softmax with the Jacobian folded in upstream.
        delta = g

    grad_w = [np.empty(0)] * len(params.weights)
    grad_b = [np.empty(0)] * len(params.biases)
    for l in range(last, -1, -1):
        below = cache.inputs if l == 0 else cache.activations[l - 1]
        grad_w[l] = delta.T @ below
        grad_b[l] = delta.sum(axis=0)
        delta = delta @ params.weights[l]
        if l > 0:
            z = cache.pre_activations[l - 1]
            if params.hidden is Activation.RELU:
                # Subgradient 0 at the kink.
                delta = delta * (z > 0.0)
            else:
                delta = delta * (1.0 - np.tanh(z) ** 2)

    input_gradient = delta[0] if cache.single else delta
    return Gradients(tuple(grad_w), tuple(grad_b)), input_gradient


def adam_step(params: MlpParams, grads: Gradients, state: AdamState,
              lr: float) -> tuple[MlpParams, AdamState]:
    """One bias-corrected Adam update; returns new params and state."""
    if lr <= 0.0:
        raise ValueError(f"learning rate must be > 0, got {lr}")
    if len(grads.weights) != len(params.weights):
        raise ValueError("gradient layer count does not match params")
    for gw, w in zip(grads.weights, params.weights):
        if gw.shape != w.shape:
            raise ValueError(f"gradient shape {gw.shape} does not match weights {w.shape}")

    t = state.t + 1
    b1, b2, eps = state.beta1, state.beta2, state.epsilon
    corr1 = 1.0 - b1 ** t
    corr2 = 1.0 - b2 ** t

    new_w, new_b, m_w, m_b, v_w, v_b = [], [], [], [], [], []
    parts = (
        (params.weights, grads.weights, state.m.weights, state.v.weights, new_w, m_w, v_w),
        (params.biases, grads.biases, state.m.biases, state.v.biases, new_b, m_b, v_b),
    )
    for values, gs, ms, vs, out_vals, out_m, out_v in parts:
        for p, g, m, v in zip(values, gs, ms, vs):
            m1 = b1 * m + (1.0 - b1) * g
            v1 = b2 * v + (1.0 - b2) * g * g
            step = lr * (m1 / corr1) / (np.sqrt(v1 / corr2) + eps)
            out_vals.append(p - step)
            out_m.append(m1)
            out_v.append(v1)

    updated = MlpParams(params.layer_sizes, tuple(new_w), tuple(new_b),
                        params.hidden, params.head)
    new_state = AdamState(
        Gradients(tuple(m_w), tuple(m_b)),
        Gradients(tuple(v_w), tuple(v_b)),
        t, b1, b2, eps,
    )
    return updated, new_state


def _with_scalar(params: MlpParams, layer: int, kind: str, index: tuple[int, ...],
                 value: float) -> MlpParams:
    weights = list(params.weights)
    biases = list(params.biases)
    if kind == "w":
        w = weights[layer].copy()
        w[index] = value
        weights[layer] = w
    else:
        b = biases[layer].copy()
        b[index] = value
        biases[layer] = b
    return MlpParams(params.layer_sizes, tuple(weights), tuple(biases),
                     params.hidden, params.head)


def finite_difference_gradient(loss, params: MlpParams, step: float) -> Gradients:
    """Central-difference gradient of ``loss(params)`` over every scalar.

    Test oracle only: O(n_scalars) loss evaluations. `loss` must be a
    deterministic function of the parameters.
    """
    if step <= 0.0:
        raise ValueError(f"step must be > 0, got {step}")

    def probe(layer: int, kind: str, index: tuple[int, ...], base: float) -> float:
        up = loss(_with_scalar(params, layer, kind, index, base + step))
        down = loss(_with_scalar(params, layer, kind, index, base - step))
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NumericError("loss returned a non-finite value during probing")
        return (up - down) / (2.0 * step)

    grad_w = []
    grad_b = []
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        gw = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            gw[idx] = probe(l, "w", idx, w[idx])
        gb = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            gb[idx] = probe(l, "b", idx, b[idx])
        grad_w.append(gw)
        grad_b.append(gb)
    return Gradients(tuple(grad_w), tuple(grad_b))


# ---------------------------------------------------------------------------
# Text serialization
# ---------------------------------------------------------------------------

def fmt_float(x: float) -> str:
    """Text form of a float with 17 significant digits, so it round-trips exactly."""
    return format(float(x), ".17g")


def params_to_text(params: MlpParams) -> str:
    """Flat text form of a network.

    Header line ``layers: s0 s1 ... sL; hidden: <ReLU|Tanh>; head:
    <Softmax|Tanh|Identity>``, then for each layer one line of row-major
    weights followed by one line of biases. Floats carry 17 significant
    digits, so text -> params -> text round-trips bit-exactly.
    """
    lines = [
        "layers: {}; hidden: {}; head: {}".format(
            " ".join(str(s) for s in params.layer_sizes),
            params.hidden.value,
            params.head.value,
        )
    ]
    for w, b in zip(params.weights, params.biases):
        lines.append(" ".join(fmt_float(x) for x in w.ravel(order="C")))
        lines.append(" ".join(fmt_float(x) for x in b))
    return "\n".join(lines) + "\n"


def params_from_text(text: str) -> MlpParams:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty parameter text")
    header = lines[0]
    try:
        layers_part, hidden_part, head_part = header.split(";")
        sizes = tuple(int(tok) for tok in layers_part.split(":", 1)[1].split())
        hidden = Activation(hidden_part.split(":", 1)[1].strip())
        head = Head(head_part.split(":", 1)[1].strip())
    except (ValueError, IndexError) as exc:
        raise ValueError(f"malformed parameter header: {header!r}") from exc

    n_layers = len(sizes) - 1
    if len(lines) != 1 + 2 * n_layers:
        raise ValueError(
            f"expected {1 + 2 * n_layers} lines for {n_layers} layers, got {len(lines)}"
        )
    weights = []
    biases = []
    for l in range(n_layers):
        rows, cols = sizes[l + 1], sizes[l]
        w_vals = np.array([float(tok) for tok in lines[1 + 2 * l].split()])
        if w_vals.size != rows * cols:
            raise ValueError(f"layer {l} expects {rows * cols} weights, got {w_vals.size}")
        b_vals = np.array([float(tok) for tok in lines[2 + 2 * l].split()])
        if b_vals.size != rows:
            raise ValueError(f"layer {l} expects {rows} biases, got {b_vals.size}")
        weights.append(w_vals.reshape(rows, cols))
        biases.append(b_vals)
    return MlpParams(sizes, tuple(weights), tuple(biases), hidden, head)


def write_params(params: MlpParams, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(params_to_text(params))


def read_params(path) -> MlpParams:
    with open(path, "r", encoding="utf-8") as f:
        return params_from_text(f.read())
