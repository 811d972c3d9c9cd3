#!/usr/bin/env python3
"""Numpy calls per training iteration of a preset, by function and by kernel (non-gating).

    PYTHONPATH=src python3 scripts/op_count.py --preset setting1

A training step costs its count of numpy calls (README, "Performance"), and
unlike a timing that count repeats exactly. The script trains one
replication of the preset twice, cut to 10 and to 110 iterations, and
prints the difference of the two runs' counts over 100: set-up and scoring
cancel, and what is left is the calls of one iteration. `_draws` takes its
random numbers a chunk of iterations at a time, so its share can be a
fraction.

Counted are the calls of every ufunc (``matmul`` among them) and of
``copyto``, through counting wrappers put in place of the ``numpy`` module's
attributes for the two runs (the kernels look them up there when they run,
or when they are bound), and every method call on an array or a ufunc
(``take``, ``argmin``, ``add.reduce``), through ``sys.setprofile``'s
``c_call`` events; the random generator's draws are not counted. Each call
is booked to the innermost oodlab function running it, which in a step is
the bound closure of a kernel, such as ``nets._forward.run``. The
replication is built as `replicate` builds replication 0: builtin data, the
OoD pool subsampled, the binary cost matrix.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import replace

import numpy as np

from oodlab.config import PRESETS, preset_config
from oodlab.data import make_simulation_dataset, subsample_ood
from oodlab.rng import Rng
from oodlab.training import train_see_ood, train_wood
from oodlab.wasserstein import binary_cost_matrix

SHORT, LONG = 10, 110


def _kernel(frame) -> str:
    """The innermost oodlab function at or above `frame`, as ``module.qualname``."""
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module.startswith("oodlab."):
            code = frame.f_code
            name = getattr(code, "co_qualname", code.co_name).replace(".<locals>", "")
            return f"{module[len('oodlab.'):]}.{name}"
        frame = frame.f_back
    return "(outside oodlab)"


class _Counted:
    """A numpy function that books each call; attributes such as ``.reduce`` pass through."""

    def __init__(self, function, name: str, counts: Counter):
        self._function, self._name, self._counts = function, name, counts

    def __call__(self, *args, **kwargs):
        self._counts[self._name, _kernel(sys._getframe(1))] += 1
        return self._function(*args, **kwargs)

    def __getattr__(self, attribute):
        return getattr(self._function, attribute)


def count_calls(preset: str, iterations: int) -> Counter:
    """(function, kernel) -> calls while training replication 0 of `preset` for `iterations`."""
    cfg = preset_config(preset)
    config = replace(cfg.train, iterations=iterations)
    train = train_see_ood if cfg.method == "see_ood" else train_wood
    counts = Counter()

    def profile(frame, event, arg):
        owner = getattr(arg, "__self__", None)
        if event == "c_call" and isinstance(owner, np.ndarray):
            counts[arg.__name__, _kernel(frame)] += 1
        elif event == "c_call" and isinstance(owner, np.ufunc):
            counts[f"{owner.__name__}.{arg.__name__}", _kernel(frame)] += 1

    names = [n for n in dir(np) if isinstance(getattr(np, n), np.ufunc)] + ["copyto"]
    originals = {n: getattr(np, n) for n in names}
    try:
        for n, function in originals.items():
            setattr(np, n, _Counted(function, n, counts))
        rng = Rng(config.seed)
        data = subsample_ood(make_simulation_dataset(rng), cfg.ood_subsample, rng)
        M = binary_cost_matrix(data.K)
        sys.setprofile(profile)
        try:
            train(config, data, rng, M)
        finally:
            sys.setprofile(None)
    finally:
        for n, function in originals.items():
            setattr(np, n, function)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", required=True, choices=sorted(PRESETS))
    args = parser.parse_args(argv)

    per_iteration = count_calls(args.preset, LONG)
    per_iteration.subtract(count_calls(args.preset, SHORT))
    by_function, by_kernel, split = Counter(), Counter(), {}
    for (function, kernel), calls in per_iteration.items():
        if calls:
            by_function[function] += calls
            by_kernel[kernel] += calls
            split.setdefault(kernel, Counter())[function] += calls

    def ranked(counter):
        return sorted(counter.items(), key=lambda item: (-item[1], item[0]))

    steps = LONG - SHORT
    print(f"numpy calls per iteration of {args.preset}: "
          f"({LONG}-iteration run - {SHORT}-iteration run) / {steps}")
    print(f"{'function':24s}  calls")
    for function, calls in ranked(by_function):
        print(f"{function:24s}  {calls / steps:.2f}")
    print(f"{'total':24s}  {sum(by_function.values()) / steps:.2f}")
    print(f"{'kernel':40s}  calls  by function")
    for kernel, calls in ranked(by_kernel):
        parts = ", ".join(f"{f} {c / steps:.2f}" for f, c in ranked(split[kernel]))
        print(f"{kernel:40s}  {calls / steps:.2f}  {parts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
