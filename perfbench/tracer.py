"""Outside-in span tracer for the oodlab modules.

The tracer replaces each public function of the traced modules (and each
public method of the classes they define) with a wrapper that records one
span per call: function, start, end, parent span and run id. A function is
patched in every ``oodlab`` namespace that holds it, so ``training``'s
imported ``mlp_forward`` is traced like ``nets.mlp_forward`` itself. Spans
live in flat in-memory columns and are written out once, at the end.

Nothing in the program changes: uninstalling puts every original back, and a
traced run produces byte-identical outputs to an untraced one.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from importlib import import_module
from pathlib import Path

import numpy as np

PACKAGE = "oodlab"
MODULES = ("nets", "wasserstein", "training", "rng", "data", "detection",
           "experiment", "config", "cli")

SETUP_RUN = 0


def _layer_flops(params) -> int:
    sizes = params.layer_sizes
    return sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))


def _rows(array_like) -> int:
    shape = np.shape(array_like)
    return shape[0] if len(shape) == 2 else 1


# Per-call counts computed from argument shapes: (rows, flops, ref), where ref
# identifies an argument object so spans can be related to each other.
def _forward_counts(args, result):
    rows = _rows(args[1])
    return rows, 2 * rows * _layer_flops(args[0]), 0


def _backward_counts(args, result):
    rows = _rows(args[2])
    # Weight gradients plus input gradients: two matmuls per layer.
    return rows, 4 * rows * _layer_flops(args[0]), id(args[0])


def _generator_counts(args, result):
    return 0, 0, id(args[0])


def _score_counts(args, result):
    return len(args[1]), 0, 0


def _file_bytes(args, result):
    return os.path.getsize(args[1]), 0, 0


COUNT_HOOKS = {
    "nets.mlp_forward": _forward_counts,
    "nets.mlp_backward": _backward_counts,
    "training.generator_objective_and_grads": _generator_counts,
    "wasserstein.score_batch": _score_counts,
    "detection.write_heatmap_csv": _file_bytes,
}


def trainers() -> set[str]:
    """Names of the public ``training.train*`` functions."""
    return {name for name in public_functions() if name.startswith("training.train")}


def public_functions() -> dict[str, tuple[object, str, object]]:
    """Map ``module.function`` / ``module.Class.method`` to (owner, attribute, function)."""
    found = {}
    for short in MODULES:
        module = import_module(f"{PACKAGE}.{short}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found[f"{short}.{name}"] = (module, name, obj)
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        found[f"{short}.{name}.{attr}"] = (obj, attr, member)
    return found


class Tracer:
    """Records spans of calls into the traced functions while installed.

    Use as a context manager; set ``run_id`` before each operation so its
    spans can be told apart. ``only`` restricts tracing to the named functions.
    """

    def __init__(self, only=None):
        self.run_id = SETUP_RUN
        self.names: list[str] = []
        self._stack: list[int] = []
        self._counter = [0]
        # Spans as (index, fid, parent, run, start, end), appended when the call
        # returns; index numbers spans in start order. Moved into int64 chunks
        # on every uninstall to keep memory at 48 bytes per span.
        self._spans: list[tuple] = []
        self._counts: list[tuple] = []
        self._chunks: list[np.ndarray] = []
        self._count_chunks: list[np.ndarray] = []
        self._patches = []
        for name, (owner, attr, fn) in sorted(public_functions().items()):
            if only is not None and name not in only:
                continue
            wrapper = self._wrap(len(self.names), fn, COUNT_HOOKS.get(name))
            self.names.append(name)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, fn, wrapper))
                continue
            # Every namespace of the package that imported the function.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn, wrapper))

    def _wrap(self, fid: int, fn, hook):
        stack, counter = self._stack, self._counter
        spans, counts = self._spans, self._counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = counter[0]
            counter[0] = index + 1
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((index, fid, parent, self.run_id, start, end))
            if hook is not None:
                try:
                    counts.append((index, *hook(args, result)))
                except (AttributeError, IndexError, TypeError, OSError):
                    # A changed signature loses the counts, never the run.
                    pass
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)
        self._stack.clear()
        if self._spans:
            self._chunks.append(np.array(self._spans, dtype=np.int64))
            self._spans.clear()
        if self._counts:
            self._count_chunks.append(np.array(self._counts, dtype=np.int64))
            self._counts.clear()

    def __len__(self) -> int:
        return self._counter[0]

    def columns(self) -> dict[str, np.ndarray]:
        """Columns of the spans recorded so far, in start order.

        Every call that took an index has returned once the tracer is
        uninstalled, so row i is span i and ``parent`` indexes rows directly.
        """
        spans = np.concatenate(self._chunks) if self._chunks else np.empty((0, 6), np.int64)
        spans = spans[np.argsort(spans[:, 0])]
        cols = {name: spans[:, i].copy() for i, name in
                enumerate(("index", "fid", "parent", "run", "start", "end"))}
        cols["dur"] = cols["end"] - cols["start"]
        for name in ("rows", "flops", "ref"):
            cols[name] = np.zeros(len(spans), dtype=np.int64)
        if self._count_chunks:
            counts = np.concatenate(self._count_chunks)
            for i, name in enumerate(("rows", "flops", "ref"), start=1):
                cols[name][counts[:, 0]] = counts[:, i]
        return cols

    @staticmethod
    def self_ns(cols: dict[str, np.ndarray]) -> np.ndarray:
        """Each span's duration minus the durations of its direct child spans."""
        own = cols["dur"].copy()
        child = cols["parent"] >= 0
        np.subtract.at(own, cols["parent"][child], cols["dur"][child])
        return own

    def write(self, path) -> None:
        """Write every span, with the function-name table, as one .npz file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = self.columns()
        del cols["dur"]
        np.savez(path, names=np.array(self.names), **cols)
