"""Reference kernels: the allocating bodies the in-place kernels replaced.

`oodlab.nets` runs one in-place kernel per operation. These are the earlier
pure bodies of `softmax`, `mlp_forward`, `mlp_backward` and `adam_step`; of
the loss layer's `log_softmax`, of `wasserstein._score_rows` and
`training._scores_and_logit_grads`; and of `Rng.standard_normal`'s
Box-Muller transform, kept unchanged, so the tests can require the kernels
to match them bit for bit. The cell-by-cell bodies of `nets.write_csv` and
`detection.write_heatmap_pgm` are kept the same way, so the writers must
match them byte for byte, and so is the separate-pass body of the removed
`detection.classification_accuracy`, which `detection.scores_and_accuracy`
must match.

The network bodies run on contiguous copies of each layer's weights and
biases (`contiguous_layers`), the memory they ran on before the parameters
moved into ``[W | b]`` blocks: ``delta @ W`` over a strided one-row view
takes another numpy path and can differ in the last bit.
"""

import csv
from dataclasses import dataclass, replace

import numpy as np

from oodlab.nets import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    AdamState,
    Head,
    MlpParams,
    _layer_views,
    mlp_forward,
)


@dataclass(frozen=True)
class ReferenceCache:
    """A reference forward pass: its batch and each layer's values, without ones columns."""

    layer_sizes: tuple[int, ...]
    inputs: np.ndarray
    pre_activations: tuple[np.ndarray, ...]
    activations: tuple[np.ndarray, ...]


def reference_softmax(logits: np.ndarray) -> np.ndarray:
    z = np.asarray(logits, dtype=float)
    if z.size == 0:
        raise ValueError("softmax of an empty vector is undefined")
    if not np.isfinite(z).all():
        raise ValueError("softmax requires finite logits")
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def contiguous_layers(params: MlpParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's (weights, biases) as contiguous copies."""
    return [(np.ascontiguousarray(w), b.copy()) for w, b in zip(params.weights, params.biases)]


def reference_forward(params: MlpParams,
                      inputs: np.ndarray) -> tuple[np.ndarray, ReferenceCache]:
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(
            f"input has shape {np.shape(inputs)}, expected (batch, {params.input_dim})"
        )

    a = x
    pres = []
    acts = []
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(contiguous_layers(params)):
        z = a @ w.T + b
        pres.append(z)
        if l < last:
            a = np.maximum(z, 0.0)
        elif params.head is Head.SOFTMAX:
            a = reference_softmax(z)
        else:
            a = z
        acts.append(a)

    return acts[-1], ReferenceCache(params.layer_sizes, x, tuple(pres), tuple(acts))


def reference_backward(params: MlpParams, cache: ReferenceCache, output_gradient: np.ndarray,
                       param_grad: bool = True) -> np.ndarray:
    if cache.layer_sizes != params.layer_sizes:
        raise ValueError(
            f"cache built for layers {cache.layer_sizes}, params have {params.layer_sizes}"
        )
    g = np.asarray(output_gradient, dtype=float)
    if g.shape != cache.activations[-1].shape:
        raise ValueError(
            f"output gradient has shape {np.shape(output_gradient)}, "
            f"expected {cache.activations[-1].shape}"
        )

    last = len(params.weights) - 1
    weights = [w for w, _ in contiguous_layers(params)]
    # Identity head, or Softmax with the Jacobian folded in upstream.
    delta = g

    if param_grad:
        grad = np.empty_like(params.flat)
        grad_w, grad_b = _layer_views(params.layer_sizes, grad)
    for l in range(last, -1, -1):
        if param_grad:
            below = cache.inputs if l == 0 else cache.activations[l - 1]
            grad_w[l][...] = delta.T @ below
            grad_b[l][...] = delta.sum(axis=0)
            if l == 0:
                return grad
        delta = delta @ weights[l]
        if l > 0:
            # Subgradient 0 at the kink.
            delta = delta * (cache.pre_activations[l - 1] > 0.0)
    return delta


def reference_adam(params: MlpParams, grad: np.ndarray, state: AdamState,
                   lr: float) -> tuple[MlpParams, AdamState]:
    if lr <= 0.0:
        raise ValueError(f"learning rate must be > 0, got {lr}")
    if grad.shape != params.flat.shape:
        raise ValueError(
            f"gradient shape {grad.shape} does not match parameters {params.flat.shape}"
        )

    t = state.t + 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
    m = b1 * state.m + (1.0 - b1) * grad
    v = b2 * state.v + (1.0 - b2) * grad * grad
    step = lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
    return replace(params, flat=params.flat - step), AdamState(m, v, t)


def reference_classification_accuracy(D: MlpParams, points, labels) -> float:
    """Fraction of points whose argmax class (smallest index on ties) matches the label."""
    probs = mlp_forward(D, np.asarray(points, dtype=float))
    predicted = np.argmax(probs, axis=1) + 1
    return float(np.mean(predicted == np.asarray(labels)))


def reference_log_softmax(logits: np.ndarray) -> np.ndarray:
    """log(softmax(z)) in log-sum-exp form; never evaluates log(0)."""
    z = np.asarray(logits, dtype=float)
    shifted = z - np.max(z, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def reference_score_rows(probs: np.ndarray, M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    costs = probs @ M
    k_star = np.argmin(costs, axis=1)
    return costs[np.arange(costs.shape[0]), k_star], k_star


def reference_score_values_and_logit_grads(probs: np.ndarray,
                                           M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores, k_star = reference_score_rows(probs, M)
    g = M[:, k_star].T
    inner = np.sum(probs * g, axis=1, keepdims=True)
    return scores, probs * (g - inner)


def reference_standard_normal(rng, count: int) -> np.ndarray:
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return np.empty(0)
    pairs = (count + 1) // 2
    u1 = rng.uniform(pairs)
    u2 = rng.uniform(pairs)
    # 1 - u1 lies in (0, 1], keeping the log finite.
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    draws = np.empty(2 * pairs)
    draws[0::2] = radius * np.cos(angle)
    draws[1::2] = radius * np.sin(angle)
    return draws[:count]


def reference_write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        if header is not None:
            writer.writerow(header)
        writer.writerows([format(float(v), ".17g") if isinstance(v, float)
                          else "" if v is None else v for v in row] for row in rows)


def reference_write_heatmap_pgm(heatmap: np.ndarray, K: int, path) -> None:
    cells = np.asarray(heatmap, dtype=float)
    top = 1.0 - 1.0 / K
    grays = np.clip(np.floor(cells / top * 255.0 + 0.5), 0, 255).astype(int)
    lines = ["P2", f"{cells.shape[1]} {cells.shape[0]}", "255"]
    for row in grays:
        tokens = [str(v) for v in row]
        for start in range(0, len(tokens), 16):
            lines.append(" ".join(tokens[start:start + 16]))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
