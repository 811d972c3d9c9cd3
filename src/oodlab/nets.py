"""Dense ReLU networks in float64: forward, backprop, Adam, text and CSV output.

A network is a ReLU MLP with a Softmax head (the discriminator) or an
Identity head (the generator). Every Adam update uses ``ADAM_BETA1``,
``ADAM_BETA2`` and ``ADAM_EPSILON``.

Parameter layout: one 1-D vector per network, holding one row-major
``(fan_out, fan_in + 1)`` block ``[W | b]`` per layer; gradients and Adam
moments share it. The text format has its own order, independent of it.

Kernels: `_softmax`, `_forward`, `_backward` and `_adam` are binders. Each
takes caller-owned arrays (a network pass's are a :class:`ForwardCache`),
makes every view and picks every branch once, and returns a closure that
runs the kernel in place as a flat run of numpy calls that allocates no
array data. The views see every in-place update of the parameter vector.
The kernels check no shapes; `_softmax` rejects non-finite logits on every
run. :func:`softmax`, :func:`mlp_forward`, :func:`mlp_backward` and
:func:`adam_step` are the checked, pure wrappers: they bind the same
kernels to fresh arrays, so equal inputs give equal bits either way.

Bits: each layer's input carries a ones column (`_with_ones`), so layer 0's
forward pass is one product ``[x | 1] @ [W0 | b0]^T`` and each parameter
gradient one product ``delta^T @ [below | 1]``. Up to 256 rows, the batch
sizes training uses, these keep the bits of a separate product and bias add
or column sum, but on a single row at an input width other than 2, layer
0's forward product may differ in the last bit. Past 256 rows a bias
gradient may too. Row reductions over fewer than 8 columns run as column
ops (`_fold_columns`) in numpy's own left-to-right order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from pathlib import Path

import numpy as np

from .rng import Rng

__all__ = [
    "ADAM_BETA1",
    "ADAM_BETA2",
    "ADAM_EPSILON",
    "Head",
    "MlpParams",
    "AdamState",
    "NumericError",
    "init_adam",
    "init_mlp",
    "softmax",
    "mlp_forward",
    "mlp_backward",
    "adam_step",
    "fmt_float",
    "write_csv",
    "params_to_text",
    "params_from_text",
    "write_params",
]


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


class Head(Enum):
    SOFTMAX = "Softmax"
    IDENTITY = "Identity"


# Adam's moment decay rates and denominator offset, the same for every network.
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.5, 0.999, 1e-8


def _n_scalars(sizes: tuple[int, ...]) -> int:
    return sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(sizes, sizes[1:]))


def _blocks(sizes: tuple[int, ...], flat: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-layer ``[W | b]`` views into a parameter-layout vector."""
    blocks, start = [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        end = start + fan_out * (fan_in + 1)
        blocks.append(flat[start:end].reshape(fan_out, fan_in + 1))
        start = end
    return tuple(blocks)


def _with_ones(rows: int, width: int, fill: np.ndarray | None = None) -> np.ndarray:
    """A new (rows, width + 1) array: ones in the last column, `fill` (if given) before it."""
    out = np.empty((rows, width + 1))
    out[:, width] = 1.0
    if fill is not None:
        out[:, :width] = fill
    return out


@dataclass(frozen=True)
class MlpParams:
    """A network over one flat float64 vector, checked when built: finite, of the layout's length.

    ``blocks[l]`` is layer l's ``(layer_sizes[l+1], layer_sizes[l] + 1)``
    block ``[W | b]``; ``weights[l]`` and ``biases[l]`` are its first columns
    and its last one. All are views into `flat`, so writing them writes it.
    ReLU follows every layer but the last, which gets `head`.
    """

    layer_sizes: tuple[int, ...]
    flat: np.ndarray
    head: Head

    def __post_init__(self):
        sizes = self.layer_sizes
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"need at least two positive layer sizes, got {sizes}")
        n = _n_scalars(sizes)
        if self.flat.shape != (n,):
            raise ValueError(f"parameter vector has shape {self.flat.shape}, expected ({n},)")
        if not np.isfinite(self.flat).all():
            raise ValueError("parameter vector has non-finite entries")

    @cached_property
    def blocks(self) -> tuple[np.ndarray, ...]:
        return _blocks(self.layer_sizes, self.flat)

    @cached_property
    def weights(self) -> tuple[np.ndarray, ...]:
        return tuple(b[:, :-1] for b in self.blocks)

    @cached_property
    def biases(self) -> tuple[np.ndarray, ...]:
        return tuple(b[:, -1] for b in self.blocks)

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]


@dataclass(frozen=True)
class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int

    def __post_init__(self):
        if self.t < 0:
            raise ValueError(f"step counter must be >= 0, got {self.t}")


def init_adam(params: MlpParams) -> AdamState:
    return AdamState(np.zeros_like(params.flat), np.zeros_like(params.flat), 0)


def init_mlp(layer_sizes: list[int] | tuple[int, ...], head: Head, rng: Rng) -> MlpParams:
    """Fresh network with uniform Glorot weights and zero biases.

    Weights are drawn layer by layer in row-major order from ``U(-a, a)``,
    ``a = sqrt(6 / (fan_in + fan_out))``; biases draw nothing. The draw order
    is part of the reproducibility contract.
    """
    sizes = tuple(int(s) for s in layer_sizes)
    params = MlpParams(sizes, np.zeros(_n_scalars(sizes)), head)
    for w in params.weights:
        fan_out, fan_in = w.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = ((2.0 * rng.uniform(w.size) - 1.0) * bound).reshape(w.shape)
    return params


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of a vector or (batch, K) matrix, max logit subtracted; pure."""
    z = np.asarray(logits, dtype=float)
    out = np.empty_like(z)
    _softmax(z, out, np.empty((2,) + z.shape[:-1] + (1,)))()
    return out


# numpy sums fewer than this many entries left to right, and pairwise from it on.
_PAIRWISE_FROM = 8


def _fold_columns(op, a: np.ndarray, out: np.ndarray):
    """Bind ``op.reduce(a, axis=-1, keepdims=True, out=out)``; the closure runs it bit for bit.

    `op` is ``np.add``, ``np.maximum`` or ``np.minimum``. Rows of 2 to 7
    entries fold as left-to-right column ops, which skip the reduction's
    per-row inner loop.
    """
    K = a.shape[-1]
    if not 2 <= K < _PAIRWISE_FROM:
        return lambda: op.reduce(a, axis=-1, keepdims=True, out=out)
    first, second = a[..., :1], a[..., 1:2]
    rest = tuple(a[..., k:k + 1] for k in range(2, K))

    def fold():
        op(first, second, out=out)
        for column in rest:
            op(out, column, out=out)
    return fold


def _scalar(value: float) -> np.ndarray:
    """`value` as a 0-d float64 array, a scalar operand numpy need not convert on each call."""
    return np.array(value, dtype=float)


def _softmax(z: np.ndarray, out: np.ndarray, col: np.ndarray):
    """Bind the softmax kernel: the closure writes :func:`softmax` of `z` into `out`.

    It leaves each row's max in ``col[0]`` and its sum of shifted
    exponentials in ``col[1]``, each shaped like a keepdims reduction of `z`,
    from which a caller forms log-softmax. Each run rejects non-finite logits.
    """
    if z.size == 0:
        raise ValueError("softmax of an empty vector is undefined")
    row_max, exp_sum = col[0], col[1]
    fold_max, fold_sum = _fold_columns(np.maximum, z, row_max), _fold_columns(np.add, out, exp_sum)

    def run():
        # A finite sum means every entry is finite; only a non-finite one needs the exact check.
        if not math.isfinite(np.add.reduce(z, axis=None)) and not np.isfinite(z).all():
            raise ValueError("softmax requires finite logits")
        fold_max()
        np.subtract(z, row_max, out=out)
        np.exp(out, out=out)
        fold_sum()
        np.divide(out, exp_sum, out=out)
    return run


def _width_views(kind: str) -> cached_property:
    """The ``[:, :width]`` view of each layer's array of a `ForwardCache` kind, made once."""
    return cached_property(lambda cache: tuple(
        x[:, :w] for x, w in zip(getattr(cache, kind), cache.layer_sizes[1:])))


@dataclass(frozen=True)
class ForwardCache:
    """The arrays a network's pass over a batch of rows writes.

    ``a[l]``, layer l's output, and ``d[l]``, the gradient at its
    pre-activation, are `_with_ones` (rows, width + 1) arrays, but a Softmax
    head's are C-contiguous (rows, K); ``activations`` and ``deltas`` are
    their ``[:, :width]`` views. A Softmax head keeps its input in
    ``logits`` and its row max and exp-sum in ``col``. The backward arrays
    `d`, `grad` and its ``[W | b]`` views `grad_blocks` are empty unless
    asked for. `_backward` overwrites each hidden ``a[l]``, so a cache takes
    one backward pass per forward pass.
    """

    layer_sizes: tuple[int, ...]
    a: tuple[np.ndarray, ...]
    logits: np.ndarray | None = None
    col: np.ndarray | None = None
    d: tuple[np.ndarray, ...] = ()
    grad: np.ndarray | None = None
    grad_blocks: tuple[np.ndarray, ...] = ()
    activations = _width_views("a")
    deltas = _width_views("d")


def _layer_arrays(params: MlpParams, rows: int) -> tuple[np.ndarray, ...]:
    """New arrays, one per layer of `params` over `rows` rows, shaped as `ForwardCache` says."""
    *hidden, K = params.layer_sizes[1:]
    head = np.empty((rows, K)) if params.head is Head.SOFTMAX else _with_ones(rows, K)
    return tuple(_with_ones(rows, w) for w in hidden) + (head,)


def _as_batch(params: MlpParams, inputs, name: str = "input") -> np.ndarray:
    """`inputs` as a float (batch, input_dim) array; ValueError naming `name` otherwise."""
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(
            f"{name} has shape {np.shape(inputs)}, expected (batch, {params.input_dim})"
        )
    return x


def _cache(params: MlpParams, rows: int) -> ForwardCache:
    """New forward arrays for a pass of `params` over `rows` inputs."""
    logits = np.empty((rows, params.output_dim)) if params.head is Head.SOFTMAX else None
    return ForwardCache(params.layer_sizes, _layer_arrays(params, rows), logits,
                        np.empty((2, rows, 1)))


def _with_backward(params: MlpParams, cache: ForwardCache) -> ForwardCache:
    """`cache` plus fresh backward arrays; the two share the forward arrays."""
    rows, grad = cache.a[0].shape[0], np.empty_like(params.flat)
    return replace(cache, d=_layer_arrays(params, rows), grad=grad,
                   grad_blocks=_blocks(params.layer_sizes, grad))


def _rows(cache: ForwardCache, start: int, stop: int) -> ForwardCache:
    """Views onto rows ``start:stop`` of a kernel cache's forward arrays."""
    logits = None if cache.logits is None else cache.logits[start:stop]
    return ForwardCache(cache.layer_sizes, tuple(x[start:stop] for x in cache.a), logits,
                        cache.col[:, start:stop])


def _forward(params: MlpParams, cache: ForwardCache):
    """Bind the forward kernel: ``run(x)`` runs the network on `x` in `cache`'s arrays.

    ``run`` returns the output array, ``cache.a[-1]``. Unchecked: `x` must be
    a `_with_ones` (rows, input_dim + 1) array with `cache`'s row count.
    """
    last = len(params.blocks) - 1
    softmax = params.head is Head.SOFTMAX
    zero, out = _scalar(0.0), cache.activations[last]
    z = cache.activations[:last] + (cache.logits if softmax else out,)
    # [x | 1] @ [W0 | b0]^T: the bias rides on the ones column.
    w0, z0 = params.blocks[0].T, z[0]
    # Per hidden layer l: the array ReLU runs on in place (the whole array, as
    # max(1, 0) keeps the ones column), then layer l + 1's input, transposed
    # weights, bias and product.
    hidden = tuple((cache.a[l], cache.activations[l], params.weights[l + 1].T,
                    params.biases[l + 1], z[l + 1])
                   for l in range(last))
    head = _softmax(cache.logits, out, cache.col) if softmax else None

    def run(x: np.ndarray) -> np.ndarray:
        np.matmul(x, w0, out=z0)
        for h, below, w, b, z_next in hidden:
            np.maximum(h, zero, out=h)
            np.matmul(below, w, out=z_next)
            np.add(z_next, b, out=z_next)
        if head is not None:
            head()
        return out
    return run


def _backward(params: MlpParams, cache: ForwardCache, dx: np.ndarray | None = None):
    """Bind the backward kernel: ``run(x)`` backpropagates ``cache.deltas[-1]`` through `x`'s pass.

    `x` is the batch `_forward` last ran on in `cache`. ``run`` writes the
    parameter gradient into ``cache.grad``; given `dx`, a (rows,
    input_dim + 1) array, it writes only the input gradient, into its first
    columns, and reads nothing of `x`. The upstream gradient is taken as it
    is: a Softmax head's Jacobian is the caller's to fold in. The pass in
    `cache` is spent. Unchecked, like `_forward`.
    """
    last, param_grad, zero = len(params.blocks) - 1, dx is None, _scalar(0.0)
    # Per layer l from the top down to 1: delta^T and delta; the [a | 1] below
    # and the gradient block; [W | b]; and the delta below.
    layers = tuple((cache.deltas[l].T, cache.deltas[l], cache.a[l - 1],
                    cache.grad_blocks[l] if param_grad else None, params.blocks[l],
                    cache.d[l - 1])
                   for l in range(last, 0, -1))
    delta0, delta0_t = cache.deltas[0], cache.deltas[0].T
    if param_grad:
        grad0 = cache.grad_blocks[0]
    else:
        # Over [W0 | b0] or a strided view of W0, BLAS rounds differently at
        # some input widths and row counts; a contiguous copy keeps the bits.
        w0, w0_copy, dx0 = params.weights[0], np.empty(params.weights[0].shape), dx[:, :-1]

    def run(x: np.ndarray) -> None:
        for delta_t, delta, a, grad, block, d in layers:
            if param_grad:
                np.matmul(delta_t, a, out=grad)
            # delta @ [W | b] into a whole array: its first columns are delta @ W.
            np.matmul(delta, block, out=d)
            # Subgradient 0 at the kink; 1 > 0 keeps the ones column.
            np.greater(a, zero, out=a)
            np.multiply(d, a, out=d)
        if param_grad:
            np.matmul(delta0_t, x, out=grad0)
        else:
            np.copyto(w0_copy, w0)
            np.matmul(delta0, w0_copy, out=dx0)
    return run


def _adam(flat: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray, lr: float):
    """Bind the Adam kernel: ``run(t)`` makes the t-th bias-corrected update of `flat`, `m`, `v`.

    ``run`` reads `grad` and updates the three in place. Unchecked.
    """
    beta1, beta2 = ADAM_BETA1, ADAM_BETA2
    s, r = np.empty_like(flat), np.empty_like(flat)
    b1, b2, keep1, keep2 = (_scalar(c) for c in (beta1, beta2, 1.0 - beta1, 1.0 - beta2))
    rate, eps = _scalar(lr), _scalar(ADAM_EPSILON)

    def run(t: int) -> None:
        np.multiply(grad, keep1, out=s)
        np.multiply(m, b1, out=m)
        np.add(m, s, out=m)
        np.multiply(grad, keep2, out=s)
        np.multiply(s, grad, out=s)
        np.multiply(v, b2, out=v)
        np.add(v, s, out=v)
        np.divide(m, 1.0 - beta1 ** t, out=s)
        np.multiply(s, rate, out=s)
        np.divide(v, 1.0 - beta2 ** t, out=r)
        np.sqrt(r, out=r)
        np.add(r, eps, out=r)
        np.divide(s, r, out=s)
        np.subtract(flat, s, out=flat)
    return run


def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """The (batch, output_dim) output of the network on a (batch, input_dim) matrix; pure."""
    x = _as_batch(params, x)
    x = _with_ones(*x.shape, fill=x)
    return _forward(params, _cache(params, x.shape[0]))(x)


def mlp_backward(params: MlpParams, x: np.ndarray, upstream: np.ndarray,
                 param_grad: bool = True) -> np.ndarray:
    """Backpropagate `upstream` through the network's pass over the batch `x`; pure.

    `x` is (batch, input_dim) and `upstream` (batch, output_dim): for a
    Softmax head the gradient at the logits, for an Identity head at the
    output. Rows are summed, not averaged. Returns the flat parameter
    gradient or, with ``param_grad=False``, the (batch, input_dim) input
    gradient; each skips the products only the other needs.
    """
    x = _as_batch(params, x, "inputs")
    g = np.asarray(upstream, dtype=float)
    if g.shape != (x.shape[0], params.output_dim):
        raise ValueError(f"upstream gradient has shape {np.shape(upstream)}, "
                         f"expected ({x.shape[0]}, {params.output_dim})")
    x = _with_ones(*x.shape, fill=x)
    cache = _with_backward(params, _cache(params, x.shape[0]))
    _forward(params, cache)(x)
    cache.deltas[-1][...] = g
    dx = None if param_grad else np.empty_like(x)
    _backward(params, cache, dx)(x)
    return cache.grad if param_grad else dx[:, :-1]


def adam_step(params: MlpParams, grad: np.ndarray, state: AdamState,
              lr: float) -> tuple[MlpParams, AdamState]:
    """One bias-corrected Adam update; returns new params and state, arguments untouched."""
    if lr <= 0.0:
        raise ValueError(f"learning rate must be > 0, got {lr}")
    if grad.shape != params.flat.shape:
        raise ValueError(
            f"gradient shape {grad.shape} does not match parameters {params.flat.shape}"
        )

    t = state.t + 1
    flat = params.flat.astype(float)
    m, v = state.m.astype(float), state.v.astype(float)
    _adam(flat, grad, m, v, lr)(t)
    return replace(params, flat=flat), AdamState(m, v, t)


def fmt_float(x: float) -> str:
    """The one float format, ``%.17g``: 17 significant digits, so text -> float is exact."""
    return "%.17g" % float(x)


def write_csv(path, header, rows) -> None:
    """Write `header`, then `rows`, as CSV with ``\\r\\n`` line ends.

    Float cells, numpy's included, take :func:`fmt_float`'s form and None an
    empty cell; other cells are written as they are.
    """
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([fmt_float(v) if isinstance(v, float) else "" if v is None else v
                          for v in row] for row in rows)


def params_to_text(params: MlpParams) -> str:
    """Flat text form of a network, which :func:`params_from_text` reads back bit for bit.

    Header line ``layers: s0 s1 ... sL; hidden: ReLU; head:
    <Softmax|Identity>``, then per layer one line of row-major weights and
    one of biases, each float in :func:`fmt_float`'s form.
    """
    lines = [
        "layers: {}; hidden: ReLU; head: {}".format(
            " ".join(str(s) for s in params.layer_sizes), params.head.value)
    ]
    for w, b in zip(params.weights, params.biases):
        lines.append(" ".join(fmt_float(x) for x in w.ravel(order="C")))
        lines.append(" ".join(fmt_float(x) for x in b))
    return "\n".join(lines) + "\n"


def params_from_text(text: str) -> MlpParams:
    """The network :func:`params_to_text` wrote; ValueError for any other header or shape."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty parameter text")
    header = lines[0]
    try:
        fields = [part.split(":", 1) for part in header.split(";")]
        if [name.strip() for name, _ in fields] != ["layers", "hidden", "head"]:
            raise ValueError("the header's fields must be layers, hidden and head")
        (_, layers), (_, hidden), (_, head_name) = fields
        sizes = tuple(int(tok) for tok in layers.split())
        if hidden.strip() != "ReLU":
            raise ValueError("the hidden activation must be ReLU")
        head = Head(head_name.strip())
    except ValueError as exc:
        raise ValueError(f"malformed parameter header: {header!r}") from exc

    n_layers = len(sizes) - 1
    if len(lines) != 1 + 2 * n_layers:
        raise ValueError(
            f"expected {1 + 2 * n_layers} lines for {n_layers} layers, got {len(lines)}"
        )
    views = MlpParams(sizes, np.zeros(_n_scalars(sizes)), head)
    for i, line in enumerate(lines[1:]):
        part = (views.biases if i % 2 else views.weights)[i // 2]
        row = [float(tok) for tok in line.split()]
        if len(row) != part.size:
            kind = "biases" if i % 2 else "weights"
            raise ValueError(f"layer {i // 2} expects {part.size} {kind}, got {len(row)}")
        part[...] = np.reshape(row, part.shape)
    # Built again over the filled vector, so the values are checked finite.
    return MlpParams(sizes, views.flat, head)


def write_params(params: MlpParams, path) -> None:
    Path(path).write_text(params_to_text(params), encoding="utf-8")
