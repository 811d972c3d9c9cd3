#!/usr/bin/env python3
"""Distribution of a preset's acceptance metrics over base seeds (non-gating).

    PYTHONPATH=src python3 scripts/seed_sweep.py --preset setting2 --seeds 10

The acceptance suite gates on the minimum accuracy and the minimum TPR at
95% TNR over one run of a preset: its replications on seeds ``seed ..
seed + R - 1``. This script repeats that run for N disjoint seed sets, set k
starting at ``seed + k * R``, so set 0 is the gated one. It prints each set's
two minima, then their quartiles, to show whether the gated margins are
typical or lucky. Nothing is written to disk; expect about as long as N full
`replicate` runs of the preset.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from oodlab.config import PRESETS, preset_config
from oodlab.experiment import run_replication

TNR = 0.95


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", required=True, choices=sorted(PRESETS))
    parser.add_argument("--seeds", type=int, default=10, help="number of seed sets (default 10)")
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")

    cfg = preset_config(args.preset)
    column = cfg.tnr_targets.index(TNR)
    R = cfg.replications

    min_accs, min_tprs = [], []
    print("set  seeds        min_accuracy  min_tpr_at_95")
    for k in range(args.seeds):
        base = cfg.train.seed + k * R
        set_cfg = replace(cfg, train=replace(cfg.train, seed=base))
        reps = [run_replication(set_cfg, r) for r in range(R)]
        min_accs.append(min(rep.accuracy for rep in reps))
        min_tprs.append(min(rep.tprs[column] for rep in reps))
        print(f"{k:3d}  {base:5d}..{base + R - 1:<5d}  {min_accs[-1]:12.4f}  {min_tprs[-1]:13.4f}",
              flush=True)

    print("quartiles (q1 median q3):")
    for name, values in (("min_accuracy", min_accs), ("min_tpr_at_95", min_tprs)):
        q1, q2, q3 = np.percentile(values, [25, 50, 75])
        print(f"  {name:13s}  {q1:.4f} {q2:.4f} {q3:.4f}  (range {min(values):.4f}..{max(values):.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
