#!/usr/bin/env python3
"""Time two oodlab checkouts against each other in one process (non-gating).

    python3 scripts/ab_time.py PARENT CHANGE --preset setting1 --iterations 1000 --rounds 12

PARENT and CHANGE are source checkouts, each with src/oodlab; they may be
the same, and each trainer must take the run's cost matrix as its last
argument. The script uses only public names of each checkout. Every preset
trains on the builtin data with its OoD pool subsampled and the binary cost
matrix, so each replication is built from `make_simulation_dataset`,
`subsample_ood` and `binary_cost_matrix`, with the draws a run makes. Each
checkout's package is loaded under its own module name, so both run in this
process and see the same machine load. Every round trains
one replication of the preset, cut to the given iterations, on each side,
alternating which side goes first, and scores its heatmap. The script
prints each round's training µs per iteration, optimizer steps per second
and `score_heatmap` ms, then each side's median and interquartile range, the
change/parent ratio of the medians and how many rounds the change won.
Each round also runs one untimed `score_heatmap` and heatmap write per side
under `tracemalloc`, writing to a temporary directory, and prints that
side's traced peak in KB and whether it repeats exactly in every round. The
write is the checkout's `write_heatmap` (`.npy`) and `write_heatmap_pgm`,
the two heatmap files a run writes.
Steps follow the benchmark's `steps_per_s` rule: n_d + n_g per iteration
for see_ood and one for wood, over the training time. It also says whether
the two sides' trained weights and heatmaps are byte-equal; the exit status
is 1 if any differ. BLAS runs on one thread unless the environment says
otherwise.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import sys
import tempfile
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread settings)

SIDES = ("parent", "change")


def load(checkout: str, name: str):
    """The checkout's src/oodlab as package `name`; its relative imports resolve inside it."""
    package = Path(checkout).resolve() / "src" / "oodlab"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Side:
    """One checkout's training and heatmap entry points, with the preset's config."""

    def __init__(self, checkout: str, name: str, preset: str, iterations: int):
        load(checkout, name)
        config = importlib.import_module(f"{name}.config")
        self.data = importlib.import_module(f"{name}.data")
        self.wasserstein = importlib.import_module(f"{name}.wasserstein")
        self.training = importlib.import_module(f"{name}.training")
        self.detection = importlib.import_module(f"{name}.detection")
        self.Rng = importlib.import_module(f"{name}.rng").Rng
        cfg = config.preset_config(preset)
        self.config = replace(cfg, train=replace(cfg.train, iterations=iterations))
        per_iteration = cfg.train.n_d + cfg.train.n_g if cfg.method == "see_ood" else 1
        self.steps = per_iteration * iterations

    def replication(self, index: int, directory: str) -> tuple[float, float, bytes, bytes, float]:
        """Train replication `index` and score its heatmap.

        Returns (training s, heatmap s, trained weights bytes, heatmap bytes,
        traced peak KB of one more heatmap scored and written into `directory`).
        """
        cfg = self.config
        rng = self.Rng(cfg.train.seed + index)
        data = self.data.subsample_ood(self.data.make_simulation_dataset(rng), cfg.ood_subsample,
                                       rng)
        M = self.wasserstein.binary_cost_matrix(data.K)
        train = self.training.train_see_ood if cfg.method == "see_ood" else self.training.train_wood
        start = time.perf_counter()
        history = train(cfg.train, data, rng, M)
        trained = time.perf_counter()
        heatmap = self.detection.score_heatmap(history.discriminator, cfg.grid, M)
        scored = time.perf_counter()
        weights = history.discriminator.flat.tobytes()
        if history.generator is not None:
            weights += history.generator.flat.tobytes()
        tracemalloc.start()
        try:
            again = self.detection.score_heatmap(history.discriminator, cfg.grid, M)
            self.detection.write_heatmap(again, Path(directory) / "heatmap.npy")
            self.detection.write_heatmap_pgm(again, data.K, Path(directory) / "heatmap.pgm")
            peak_kb = tracemalloc.get_traced_memory()[1] / 1024
        finally:
            tracemalloc.stop()
        return trained - start, scored - trained, weights, heatmap.tobytes(), peak_kb


def spread(low: float, high: float) -> str:
    """"low to high" with the fewest decimals, at least one, that tell two unequal values apart."""
    digits = 1
    while f"{low:.{digits}f}" == f"{high:.{digits}f}":
        digits += 1
    return f"{low:.{digits}f} to {high:.{digits}f}"


def quartiles(values) -> tuple[float, float, float]:
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(q2), float(q3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--preset", required=True)
    parser.add_argument("--iterations", type=int, default=1000,
                        help="training iterations per replication (default 1000)")
    parser.add_argument("--rounds", type=int, default=10, help="rounds (default 10)")
    args = parser.parse_args(argv)
    if args.iterations < 1 or args.rounds < 1:
        parser.error("--iterations and --rounds must be >= 1")

    sides = [Side(path, f"oodlab_ab_{side}", args.preset, args.iterations)
             for side, path in zip(SIDES, (args.parent, args.change))]
    per_iteration = {side: [] for side in SIDES}
    steps_per_s = {side: [] for side in SIDES}
    heatmap_ms = {side: [] for side in SIDES}
    peak_kb = {side: [] for side in SIDES}
    equal_weights = equal_heatmaps = 0
    print("round  first   parent_us/it  change_us/it  parent_steps/s  change_steps/s  "
          "parent_heat_ms  change_heat_ms  parent_peak_kb  change_peak_kb")
    with tempfile.TemporaryDirectory() as directory:
        for r in range(args.rounds):
            index = r % sides[0].config.replications
            order = (0, 1) if r % 2 == 0 else (1, 0)
            results = [None, None]
            for i in order:
                results[i] = sides[i].replication(index, directory)
            for side, (train_s, heat_s, _, _, peak) in zip(SIDES, results):
                per_iteration[side].append(1e6 * train_s / args.iterations)
                steps_per_s[side].append(sides[0].steps / train_s)
                heatmap_ms[side].append(1e3 * heat_s)
                peak_kb[side].append(peak)
            equal_weights += results[0][2] == results[1][2]
            equal_heatmaps += results[0][3] == results[1][3]
            print(f"{r:5d}  {SIDES[order[0]]:6s}  {per_iteration['parent'][-1]:12.1f}  "
                  f"{per_iteration['change'][-1]:12.1f}  {steps_per_s['parent'][-1]:14.1f}  "
                  f"{steps_per_s['change'][-1]:14.1f}  {heatmap_ms['parent'][-1]:14.2f}  "
                  f"{heatmap_ms['change'][-1]:14.2f}  {peak_kb['parent'][-1]:14.1f}  "
                  f"{peak_kb['change'][-1]:14.1f}", flush=True)

    print(f"trained weights byte-equal in {equal_weights} of {args.rounds} rounds")
    print(f"heatmaps byte-equal in {equal_heatmaps} of {args.rounds} rounds")
    for side in SIDES:
        low, high = min(peak_kb[side]), max(peak_kb[side])
        repeats = "repeats exactly" if low == high else f"varies from {spread(low, high)} KB"
        print(f"{side} traced peak {repeats} over {args.rounds} rounds")
    print("metric            parent median (IQR)   change median (IQR)   change/parent  change won")
    for metric, values, lower_wins in (("us_per_iteration", per_iteration, True),
                                       ("steps_per_s", steps_per_s, False),
                                       ("heatmap_ms", heatmap_ms, True),
                                       ("peak_kb", peak_kb, True)):
        (p1, p2, p3), (c1, c2, c3) = quartiles(values["parent"]), quartiles(values["change"])
        won = sum(c < p if lower_wins else c > p
                  for p, c in zip(values["parent"], values["change"]))
        print(f"{metric:16s}  {p2:10.2f} ({p3 - p1:7.2f})  {c2:10.2f} ({c3 - c1:7.2f})  "
              f"{c2 / p2:13.3f}  {won:3d} of {args.rounds}")
    return 0 if equal_weights == equal_heatmaps == args.rounds else 1


if __name__ == "__main__":
    sys.exit(main())
