"""Command-line front end.

Subcommands: gen-data, replicate, compare. `replicate` is configured by a
config file (--config), a named preset (--preset), or both; --seed
overrides the base seed. A single run is `replicate` with `[eval]
replications = 1`. `gen-data` writes the builtin dataset drawn from --seed
(default 0). Every command refuses an --out that already holds files, before
any work, and publishes --out whole or not at all. Exit codes: 0 success, 2
configuration or usage error, 3 runtime or numeric error, including a used
--out.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import config as config_mod
from .config import ConfigError, ExperimentConfig, _tnr_label, parse_config, preset_config
from .data import make_simulation_dataset, write_dataset_csv
from .experiment import (compare_rejection_regions, load_report, publish_dir, run_experiment,
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

    gen_parser = sub.add_parser("gen-data", help="write the builtin dataset as CSV")
    gen_parser.add_argument("--out", required=True, help="output directory")
    gen_parser.add_argument("--seed", type=int, default=0, help="dataset seed (default 0)")

    rep_parser = sub.add_parser("replicate", help="train, evaluate and write each replication")
    rep_parser.add_argument("--config", help="experiment config file")
    rep_parser.add_argument("--preset", choices=sorted(config_mod.PRESETS),
                            help="named configuration; file keys override it")
    rep_parser.add_argument("--out", required=True, help="output directory")
    rep_parser.add_argument("--seed", type=int, help="override the base seed")

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
    if args.seed < 0:
        raise ConfigError(f"--seed: seed must be >= 0, got {args.seed}")
    publishing = publish_dir(args.out)
    data = make_simulation_dataset(Rng(args.seed))
    with publishing as build:
        write_dataset_csv(data, build / "dataset.csv")
    print(f"wrote {Path(args.out) / 'dataset.csv'}")
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
    publishing = publish_dir(args.out)
    record = compare_rejection_regions(load_report(args.a), load_report(args.b), args.tnr)
    with publishing as build:
        write_comparison_csv(record, build / "comparison.csv")
    for i, (a, b, diff) in enumerate(zip(record.areas_a, record.areas_b,
                                         record.differences)):
        print(f"rep {i}: area_a={a:.6f} area_b={b:.6f} difference={diff:+.6f}")
    print(f"mean difference: {record.mean_difference:+.6f}")
    print(f"wrote {Path(args.out) / 'comparison.csv'}")
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
