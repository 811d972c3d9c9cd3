"""Command-line front end.

Subcommands: gen-data, replicate, compare. Runs are configured by a config
file (--config), a named preset (--preset), or both defaults; --seed
overrides the base seed. A single run is `replicate` with `[eval]
replications = 1`. Exit codes: 0 success, 2 configuration error, 3 runtime
or numeric error, including an --out that already holds files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import config as config_mod
from .config import ConfigError, ExperimentConfig, _tnr_label, parse_config, preset_config
from .data import make_simulation_dataset, write_dataset_csv
from .experiment import (compare_rejection_regions, load_report, run_experiment,
                         write_comparison_csv)
from .rng import Rng

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oodlab",
        description="Wasserstein-score out-of-distribution detection lab",
        epilog=config_mod.__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--config", help="experiment config file")
        p.add_argument("--preset", choices=sorted(config_mod.PRESETS),
                       help="named configuration; file keys override it")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="override the base seed")

    add_common(sub.add_parser("gen-data", help="write the builtin dataset as CSV"))
    add_common(sub.add_parser("replicate", help="train, evaluate and write each replication"))

    cmp_parser = sub.add_parser("compare",
                                help="compare rejection regions of two finished runs")
    cmp_parser.add_argument("--a", required=True, help="first run directory")
    cmp_parser.add_argument("--b", required=True, help="second run directory")
    cmp_parser.add_argument("--tnr", type=float, default=0.95,
                            help="TNR target whose thresholds to use (default 0.95)")
    cmp_parser.add_argument("--out", required=True, help="output directory")
    return parser


def _resolve_config(args) -> ExperimentConfig:
    cfg = preset_config(args.preset) if args.preset else None
    if args.config:
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8"), base=cfg)
    elif cfg is None:
        cfg = ExperimentConfig()
    if args.seed is not None:
        try:
            cfg = replace(cfg, train=replace(cfg.train, seed=args.seed))
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from None
    return cfg


def _cmd_gen_data(args) -> int:
    cfg = _resolve_config(args)
    data = make_simulation_dataset(Rng(cfg.train.seed))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "dataset.csv"
    write_dataset_csv(data, path)
    print(f"wrote {path}")
    return 0


def _cmd_replicate(args) -> int:
    cfg = _resolve_config(args)
    report = run_experiment(cfg, args.out)
    for target, tpr, dev in zip(cfg.tnr_targets, report.mean_tprs, report.mad_tprs):
        print(f"mean tpr@{_tnr_label(target)}: {tpr:.6f} (mad {dev:.6f})")
    print(f"mean accuracy: {report.mean_accuracy:.6f} (mad {report.mad_accuracy:.6f})")
    print(f"wrote {args.out}/report.csv and {args.out}/summary.txt")
    return 0


def _cmd_compare(args) -> int:
    record = compare_rejection_regions(load_report(args.a), load_report(args.b), args.tnr)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "comparison.csv"
    write_comparison_csv(record, path)
    for i, (a, b, diff) in enumerate(zip(record.areas_a, record.areas_b,
                                         record.differences)):
        print(f"rep {i}: area_a={a:.6f} area_b={b:.6f} difference={diff:+.6f}")
    print(f"mean difference: {record.mean_difference:+.6f}")
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "replicate": _cmd_replicate,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
