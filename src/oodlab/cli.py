"""Command-line front end.

Subcommands: gen-data, train, evaluate, heatmap, replicate, compare. Runs
are configured by a config file (--config), a named preset (--preset), or
both defaults; --seed overrides the base seed. Exit codes: 0 success, 2
configuration error, 3 runtime or numeric error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import config as config_mod
from .config import ConfigError, ExperimentConfig, _tnr_label, parse_config, preset_config
from .data import make_simulation_dataset, write_dataset_csv
from .experiment import (
    _replication_heatmap,
    _train_replication,
    compare_rejection_regions,
    load_report,
    run_experiment,
    write_comparison_csv,
    write_heatmap_files,
    write_training_files,
)
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
    add_common(sub.add_parser("train", help="single training run: history and weights"))
    add_common(sub.add_parser("evaluate", help="single replication with metrics report"))
    add_common(sub.add_parser("heatmap", help="single training run: score heatmap files"))
    add_common(sub.add_parser("replicate", help="full replicated experiment with aggregates"))

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


def _cmd_train(args) -> int:
    _, _, _, history = _train_replication(_resolve_config(args), 0)
    out = Path(args.out)
    write_training_files(history, out)
    final = history.records[-1] if history.records else None
    if final is not None:
        print(f"final loss {final.loss:.6f} (ce {final.ce:.6f}, "
              f"ood score {final.ood_score_mean:.6f})")
    print(f"wrote {out}/history.csv and weights")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = replace(_resolve_config(args), replications=1)
    report = run_experiment(cfg, args.out)
    rep = report.replications[0]
    print(f"accuracy: {rep.accuracy:.6f}")
    for target, tpr, eta in zip(cfg.tnr_targets, rep.tprs, rep.etas):
        print(f"tpr@{_tnr_label(target)}: {tpr:.6f} (eta {eta:.6f})")
    print(f"wrote {args.out}/report.csv")
    return 0


def _cmd_heatmap(args) -> int:
    cfg = _resolve_config(args)
    # Training requires the data's width to equal this one, so this fails before any work.
    width = cfg.train.discriminator_arch[0]
    if width != 2:
        raise ValueError(f"heatmaps require 2-D data; discriminator_arch takes {width}-D inputs")
    _, data, M, history = _train_replication(cfg, 0)
    heatmap = _replication_heatmap(cfg, data, M, history)
    out = Path(args.out)
    write_heatmap_files(heatmap, history.discriminator.output_dim, out)
    print(f"wrote {out}/heatmap.csv and {out}/heatmap.pgm")
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
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "heatmap": _cmd_heatmap,
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
