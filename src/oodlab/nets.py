"""Minimal dense feed-forward network engine.

Forward pass, analytic backpropagation, bias-corrected Adam, a central
finite-difference gradient oracle for tests, a flat text format for weights
(`write_params` writes it, `params_from_text` reads it back), the one CSV
writer and the one float-matrix CSV reader. Everything is float64.

Every network is a ReLU MLP with a Softmax head (the discriminator) or an
Identity head (the generator), and every Adam update uses ``ADAM_BETA1``,
``ADAM_BETA2`` and ``ADAM_EPSILON``.

Each of softmax, forward, backward and Adam has one in-place kernel:
`_softmax`, `_forward`, `_backward` and `_adam`. Each is a binder: it takes
the caller-owned arrays it works in, a network pass's from a
:class:`ForwardCache` built by `_cache` and `_with_backward`, makes every
view, turns every scalar operand into a 0-d array (`_scalar`) and picks
every branch once, and returns a closure that runs the kernel as a flat run
of numpy calls. A forward or backward closure takes the
batch, so one binding serves each new batch in a fixed buffer; Adam's takes
the step count. A training loop or a blocked scorer binds once per run and
then runs without allocating. The views are views of the parameter vector,
so a bound pass sees every in-place update of it. The kernels check no
shapes; `_softmax` rejects non-finite logits on every run, so every Softmax
forward pass checks its logits. The public :func:`softmax`,
:func:`mlp_forward`, :func:`mlp_backward` and :func:`adam_step` are the
checked, pure wrappers: they bind the same kernels to fresh arrays, run them
once and never mutate their arguments, so equal inputs give equal bits
either way.

Parameter layout: a network's parameters live in one 1-D float64 vector,
one row-major ``(fan_out, fan_in + 1)`` block ``[W | b]`` per layer, so row i
of layer l's block is ``W_l[i, :]`` followed by ``b_l[i]``. ``weights[l]`` and
``biases[l]`` are views onto the block's columns; the text format writes
them in its own order (row-major weights, then biases), so it does not
depend on this layout. Gradients from :func:`finite_difference_gradient` and
:func:`mlp_backward` and the Adam moments are plain vectors in the same
layout, so Adam and the finite-difference oracle each run over one array.

Ones columns: a batch is a ``(rows, fan_in + 1)`` array whose last column
is ones, from `_with_ones`, and so is each layer's array in a pass but a
Softmax head's (see :class:`ForwardCache`); the nonlinearities and their
derivatives run in place and keep that column. So layer 0's forward pass is
one product ``[x | 1] @ [W0 | b0]^T``, each layer's parameter gradient one
product ``delta^T @ [below | 1]``, and each hidden layer's input gradient
one product ``delta @ [W | b]`` whose first columns are ``delta @ W``.
Layer 0's input gradient is ``delta @ W0`` over a contiguous copy of
``W0``, as over the block BLAS rounds differently at input widths other
than 2. Up to the 256-row batches training uses, they keep the bits of the
separate product and bias add, column sum, or product over a contiguous
``W``; deeper layers keep the separate bias add. Past that the bias
gradient may differ in the last bit. On a single row at an input width
other than 2, layer 0's forward product may too.

Narrow rows: the softmax's row max and exp-sum and the score layer's row
reductions over K < 8 classes run as K - 1 column ops (`_fold_columns`,
bound to its column views like the kernels): max and min are exact, and
numpy sums fewer than 8 entries left to right, the order the column ops
keep.
"""

from __future__ import annotations

import csv
import math
import warnings
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
    "finite_difference_gradient",
    "fmt_float",
    "write_csv",
    "params_to_text",
    "params_from_text",
    "read_float_csv",
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
    """Per-layer ``(fan_out, fan_in + 1)`` views ``[W | b]`` into a parameter-layout vector."""
    blocks, start = [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        end = start + fan_out * (fan_in + 1)
        blocks.append(flat[start:end].reshape(fan_out, fan_in + 1))
        start = end
    return tuple(blocks)


def _layer_views(sizes: tuple[int, ...],
                 flat: np.ndarray) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Per-layer (weights, biases) views into a parameter-layout vector."""
    blocks = _blocks(sizes, flat)
    return tuple(b[:, :-1] for b in blocks), tuple(b[:, -1] for b in blocks)


def _with_ones(rows: int, width: int, fill: np.ndarray | None = None) -> np.ndarray:
    """A (rows, width + 1) array whose last column is ones, the kernels' batch layout.

    The first `width` columns hold `fill` if given; else the caller fills them.
    """
    out = np.empty((rows, width + 1))
    out[:, width] = 1.0
    if fill is not None:
        out[:, :width] = fill
    return out


@dataclass(frozen=True)
class MlpParams:
    """Parameters of a dense network, stored as one flat float64 vector.

    `flat` holds one row-major ``[W | b]`` block per layer (see the module
    docstring); gradients and Adam moments share this layout. ``blocks[l]``,
    of shape (layer_sizes[l+1], layer_sizes[l] + 1), is that block;
    ``weights[l]`` and ``biases[l]`` are its first layer_sizes[l] columns and
    its last column. All three are tuples of views into `flat`. ReLU is
    applied after every layer except the last, which gets `head`.
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

    Weight entries are drawn layer by layer in row-major order from
    ``U(-a, a)`` with ``a = sqrt(6 / (fan_in + fan_out))``; biases consume no
    draws. The draw order is part of the reproducibility contract.
    """
    sizes = tuple(int(s) for s in layer_sizes)
    flat = np.zeros(_n_scalars(sizes))
    for w in _layer_views(sizes, flat)[0]:
        fan_out, fan_in = w.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w[...] = ((2.0 * rng.uniform(w.size) - 1.0) * bound).reshape(w.shape)
    return MlpParams(sizes, flat, head)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax computed after subtracting the max logit.

    Accepts a vector or a (batch, K) matrix; normalizes along the last axis.
    """
    z = np.asarray(logits, dtype=float)
    out = np.empty_like(z)
    _softmax(z, out, np.empty((2,) + z.shape[:-1] + (1,)))()
    return out


# numpy sums fewer than this many entries left to right, and pairwise from it on.
_PAIRWISE_FROM = 8


def _fold_columns(op, a: np.ndarray, out: np.ndarray):
    """Bind ``op.reduce(a, axis=-1, keepdims=True, out=out)``; the closure runs it bit for bit.

    `op` is ``np.add``, ``np.maximum`` or ``np.minimum``. Rows of fewer than
    `_PAIRWISE_FROM` entries fold as K - 1 column ops over views made here,
    left to right, which skip the reduction's per-row inner loop; wider rows
    take the reduction.
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

    ``col[0]`` and ``col[1]``, each shaped like a keepdims reduction of `z`,
    keep each row's max and the sum of its shifted exponentials, so a caller
    can form ``log_softmax(z) = (z - col[0]) - log(col[1])`` without a second
    pass. Each run rejects non-finite logits.
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
    """A network's pass over a batch of rows: the arrays the kernels write.

    ``a[l]`` holds layer l's output and ``d[l]`` the gradient with respect
    to its pre-activation, one array per layer. Each is a `_with_ones`
    (rows, width + 1) array but a Softmax head's, a C-contiguous (rows, K)
    one. So ``a[l]`` is the ``[a | 1]`` batch the next layer's gradient, or
    another network, takes; the last column of ``d`` is work space.
    ``activations`` and ``deltas`` are their ``[:, :width]`` views, made once
    per cache and read when a kernel is bound. A Softmax head also keeps
    ``logits``, a C-contiguous (rows, K) array of the softmax's input; for
    an Identity head it is None.

    `_backward` overwrites each hidden ``a[l]`` with its ReLU derivative, so
    a cache takes one backward pass per forward pass.

    ``col`` is the Softmax head's (2, rows, 1) row max and exp-sum. The
    backward arrays, `d` and the flat parameter gradient `grad`
    with its per-layer ``[W | b]`` views `grad_blocks`, are empty unless
    asked for; the caller writes the upstream gradient into ``deltas[-1]``.
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
    """One fresh array per layer of `params` over `rows` rows, under `ForwardCache`'s rule."""
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
    """Empty forward arrays for a pass of `params` over `rows` inputs."""
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
    """Bind the forward kernel to `params` and `cache`: ``run(x)`` runs the network on `x`.

    ``run`` writes each layer's product into its ``activations[l]``, or a
    Softmax head's ``logits``, runs ReLU or the softmax there in place, and
    returns the output array. Every view and branch is taken here, once; the
    views track in-place updates of ``params.flat``. Unchecked: `x` must be
    a (rows, input_dim + 1) float array from `_with_ones`, matching `cache`.
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

    ``run`` takes the batch that `_forward`'s pass in `cache` ran on. It
    writes the parameter gradient into ``cache.grad``, one ``delta^T @
    [below | 1]`` product per layer, skipping layer 0's ``delta @ W0``; or,
    given `dx`, a (rows, input_dim + 1) array, only the input gradient, into
    its first columns, over a copy of ``W0`` taken on each run, and then it
    reads nothing of `x`. Once layer l's
    gradient has read ``a[l - 1]``, the ReLU derivative overwrites it, ones
    column kept, so the pass in `cache` is spent. Both heads take the
    upstream gradient as it is (a Softmax head's Jacobian is folded in
    upstream). Views are made here, once, as in `_forward`. Unchecked, like
    `_forward`.
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

    ``run`` reads `grad` and updates the three in place, through two work
    vectors made here. Unchecked.
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
    """The (batch, output_dim) output of the network on a (batch, input_dim) matrix.

    A single point is a (1, input_dim) batch.
    """
    x = _as_batch(params, x)
    x = _with_ones(*x.shape, fill=x)
    return _forward(params, _cache(params, x.shape[0]))(x)


def mlp_backward(params: MlpParams, x: np.ndarray, upstream: np.ndarray,
                 param_grad: bool = True) -> np.ndarray:
    """Backpropagate an upstream gradient through the network's pass over the batch `x`.

    `x` is a (batch, input_dim) matrix and `upstream` a (batch, output_dim)
    one: for a Softmax head the gradient with respect to the pre-head
    logits (the loss layer folds the softmax Jacobian in), for an Identity
    head with respect to the output itself. The per-sample
    contributions are summed, so any 1/batch averaging belongs in the loss
    layer. Returns one array: the flat parameter gradient, skipping layer
    0's ``delta @ W0`` that only the input gradient needs; or, with
    ``param_grad=False``, the (batch, input_dim) input gradient, skipping
    every parameter product, for callers that chain through a frozen network.
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
    """One bias-corrected Adam update over the flat vector; returns new params and state."""
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


def finite_difference_gradient(loss, params: MlpParams, step: float) -> np.ndarray:
    """Central-difference gradient of ``loss(params)`` over every scalar of `flat`.

    Test oracle only: O(n_scalars) loss evaluations. `loss` must be a
    deterministic function of the parameters.
    """
    if step <= 0.0:
        raise ValueError(f"step must be > 0, got {step}")

    def loss_at(i: int, value: float) -> float:
        flat = params.flat.copy()
        flat[i] = value
        return loss(replace(params, flat=flat))

    grad = np.zeros_like(params.flat)
    for i, base in enumerate(params.flat):
        up, down = loss_at(i, base + step), loss_at(i, base - step)
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NumericError("loss returned a non-finite value during probing")
        grad[i] = (up - down) / (2.0 * step)
    return grad


# ---------------------------------------------------------------------------
# Text serialization
# ---------------------------------------------------------------------------

# The one float format: 17 significant digits, so text -> float round-trips
# exactly.
_FLOAT_FORMAT = "%.17g"


def fmt_float(x: float) -> str:
    """Text form of a float in the ``%.17g`` format, so it round-trips exactly."""
    return _FLOAT_FORMAT % float(x)


def write_csv(path, header, rows) -> None:
    """Write `rows` as CSV, after `header` unless it is None, with ``\\r\\n`` line ends.

    A float cell, numpy floats included, goes through :func:`fmt_float`; None
    becomes an empty cell; ints and strings are written as they are.
    """
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        if header is not None:
            writer.writerow(header)
        writer.writerows([fmt_float(v) if isinstance(v, float) else "" if v is None else v
                          for v in row] for row in rows)


def read_float_csv(path, kind: str) -> np.ndarray:
    """A CSV file of floats, one row per line, as a 2-D array.

    ValueError, naming the `kind` file, if it is empty or ragged or holds a
    cell that is not a finite number.
    """
    with warnings.catch_warnings():
        # An empty file warns before it returns an empty array, checked below.
        warnings.simplefilter("ignore", UserWarning)
        try:
            cells = np.loadtxt(path, delimiter=",", ndmin=2, comments=None, encoding="utf-8")
        except ValueError as exc:
            raise ValueError(f"{kind} file {path}: {exc}") from exc
    if cells.size == 0:
        raise ValueError(f"{kind} file {path} is empty")
    if not np.isfinite(cells).all():
        raise ValueError(f"{kind} file {path} holds a non-finite cell")
    return cells


def params_to_text(params: MlpParams) -> str:
    """Flat text form of a network.

    Header line ``layers: s0 s1 ... sL; hidden: ReLU; head:
    <Softmax|Identity>``, then for each layer one line of row-major weights
    followed by one line of biases. Every network is ReLU, so `hidden` is
    always ``ReLU``, and :func:`params_from_text` rejects any other value.
    Floats carry 17 significant digits, so text -> params -> text round-trips
    bit-exactly.
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
    flat = np.empty(_n_scalars(sizes))
    weights, biases = _layer_views(sizes, flat)
    for i, line in enumerate(lines[1:]):
        part = biases[i // 2] if i % 2 else weights[i // 2]
        row = [float(tok) for tok in line.split()]
        if len(row) != part.size:
            kind = "biases" if i % 2 else "weights"
            raise ValueError(f"layer {i // 2} expects {part.size} {kind}, got {len(row)}")
        part[...] = np.reshape(row, part.shape)
    return MlpParams(sizes, flat, head)


def write_params(params: MlpParams, path) -> None:
    Path(path).write_text(params_to_text(params), encoding="utf-8")
