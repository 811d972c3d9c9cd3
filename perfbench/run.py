#!/usr/bin/env python3
"""oodlab benchmark.

    python3 perfbench/run.py --workload d-heavy --seed 1 --seconds 30 --trace 0

Runs one workload in this process with one BLAS thread, for ``--seconds``
seconds, and prints human-readable ``#`` lines followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
Without ``--workload`` every workload runs in turn, each in its own process.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"
PINNED_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 11
WORKLOADS = ("d-heavy", "g-heavy", "replicate-io")

# (function, stats). calls, rows, mflop, bytes and self_ms are per operation;
# us_p50/us_p99 are per-call percentiles; ms is the median milliseconds per call.
LAYER_METRICS = (
    ("nets.mlp_forward", ("calls", "us_p50", "us_p99", "self_ms", "rows", "mflop")),
    ("nets.mlp_backward", ("calls", "us_p50", "us_p99", "self_ms", "rows", "mflop")),
    ("nets.adam_step", ("calls", "us_p50", "us_p99", "self_ms")),
    ("training.discriminator_loss_and_grads", ("calls", "us_p50", "us_p99", "self_ms")),
    ("training.generator_objective_and_grads", ("calls", "us_p50", "us_p99", "self_ms")),
    ("training.train_see_ood", ("calls", "self_ms")),
    ("training.train_wood", ("calls", "self_ms")),
    ("wasserstein.validate_cost_matrix", ("calls", "us_p50")),
    ("wasserstein.score_batch", ("calls", "rows", "us_p50", "us_p99")),
    ("rng.Rng.standard_normal", ("calls", "us_p50")),
    ("rng.Rng.indices_below", ("calls", "us_p50")),
    ("data.sample_noise", ("calls", "us_p50")),
    ("data.make_simulation_dataset", ("ms",)),
    ("config.parse_config", ("ms",)),
    ("detection.score_heatmap", ("calls", "ms")),
    ("detection.tpr_at_tnr", ("ms",)),
    ("detection.write_heatmap_csv", ("ms", "bytes")),
    ("detection.write_heatmap_pgm", ("ms",)),
    ("detection.read_heatmap_csv", ("ms",)),
    ("experiment.run_replication", ("calls", "self_ms")),
    ("experiment.load_report", ("ms",)),
    ("cli.main", ("self_ms",)),
)
STAT_UNITS = {"calls": "count", "us_p50": "us", "us_p99": "us", "self_ms": "ms", "ms": "ms",
              "rows": "count", "mflop": "Mflop", "bytes": "bytes"}
DERIVED_LAYER_METRICS = {
    "training.discarded_backward_share": "1",
    "experiment.bytes_written": "bytes",
    "trace.overhead_share": "1",
}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB",
                    "accuracy": "1", "tpr_at_95": "1", "ok_share": "1"}


def _pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(PINNED_THREADS)


def _import_program():
    """Put the checkout's ``src`` first on the path and import oodlab from it."""
    sys.path.insert(0, str(ROOT / "src"))
    import oodlab

    location = Path(oodlab.__file__).resolve()
    if ROOT / "src" not in location.parents:
        raise ImportError(f"oodlab imported from {location}, not from {ROOT / 'src'}")


def fingerprint() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": PINNED_THREADS,
        "process_threads": threads,
        "nproc": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count()),
        "cpu": cpu,
    }


def percentiles(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n == 0:
        return "n=0"
    text = f"p50 {statistics.median(values):.6g} (n={n})"
    if n >= 20:
        p = math.floor(100 * (1 - 10 / n))
        text += f", p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"
    else:
        text += ", no higher percentile has 10 samples beyond it (n<20)"
    return text


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until it reports set-up done."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def _run_op(workload, k: int, tracer=None):
    """Run operation k, traced if a tracer is given; return (seconds, outcome, error)."""
    gc.collect()
    try:
        with tracer if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            raw = workload.run(k)
            elapsed = time.perf_counter() - start
        return elapsed, workload.check(k, raw), None
    except Exception as exc:  # any raise is a failed operation, not a failed benchmark
        traceback.print_exc(file=sys.stderr)
        return 0.0, None, f"{type(exc).__name__}: {exc}"


class Ledger:
    """Counts attempted and failed operations and checks repeat determinism."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first: dict[int, object] = {}

    def record(self, k: int, outcome, error, expected=None) -> bool:
        self.attempted += 1
        if outcome is not None:
            reference = expected if expected is not None else self.first.get(outcome.seed_index)
            if reference is not None and reference.key() != outcome.key():
                error = f"outputs differ from an earlier run of seed {outcome.seed_index}"
            self.first.setdefault(outcome.seed_index, outcome)
        if error is not None:
            self.failed += 1
            print(f"# operation {k} failed: {error}", file=sys.stderr)
            return False
        return True


def measure_end_to_end(workload, seconds: int) -> tuple[Ledger, dict, list[str]]:
    import resource

    from tracer import Tracer, trainers

    setups = [probe_setup(workload.name, workload.seed) for _ in range(SETUP_PROBES)]
    workload.setup()
    ledger = Ledger()
    walls, rates = [], []
    # Times the trainer entry points (train_see_ood, train_wood, or whatever
    # training.train* a refactor leaves); only outermost calls count.
    stopwatch = Tracer(only=trainers())
    began = time.perf_counter()
    k = 0
    # At least one full pass over the seeds plus one repeat.
    while time.perf_counter() - began < seconds or k <= workload.distinct:
        stopwatch.run_id = k + 1
        wall, outcome, error = _run_op(workload, k, stopwatch)
        if ledger.record(k, outcome, error):
            walls.append(wall)
            cols = stopwatch.columns()
            train_ns = cols["dur"][(cols["run"] == k + 1) & (cols["parent"] < 0)].sum()
            if train_ns > 0:
                rates.append(outcome.steps / (train_ns * 1e-9))
        k += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    per_seed = sorted(ledger.first.items())
    values = {
        "setup_s": setups,
        "wall_s": walls,
        "steps_per_s": rates,
        "peak_rss_mb": [peak_mb],
        "accuracy": [o.accuracy for _, o in per_seed],
        "tpr_at_95": [o.tpr_at_95 for _, o in per_seed],
        "ok_share": [(ledger.attempted - ledger.failed) / ledger.attempted],
    }
    metrics = {name: statistics.median(v) if v else 0.0 for name, v in values.items()}
    lines = [f"{name} [{END_TO_END_UNITS[name]}]: {percentiles(v)}" for name, v in values.items()]
    lines.append(f"fail_share [1]: {ledger.failed / ledger.attempted:.6g} "
                 f"({ledger.failed} of {ledger.attempted} operations)")
    return ledger, metrics, lines


def layer_metrics(tracer, ops: int, bytes_written: float, overhead: float) -> dict:
    import numpy as np

    cols = tracer.columns()
    own = tracer.self_ns(cols)
    in_op = cols["run"] > 0
    index = {name: i for i, name in enumerate(tracer.names)}
    metrics = {}
    for name, stats in LAYER_METRICS:
        # A function the program no longer has, or no longer calls, reads 0.
        mask = cols["fid"] == index.get(name, -1)
        per_op = mask & in_op
        dur = cols["dur"][mask]
        for stat in stats:
            if stat == "calls":
                value = per_op.sum() / ops
            elif stat in ("us_p50", "us_p99"):
                value = np.percentile(dur, int(stat[-2:])) / 1e3 if dur.size else 0.0
            elif stat == "ms":
                value = np.median(dur) / 1e6 if dur.size else 0.0
            elif stat == "self_ms":
                value = own[per_op].sum() / 1e6 / ops
            elif stat in ("rows", "bytes"):
                value = cols["rows"][per_op].sum() / ops
            else:  # mflop
                value = cols["flops"][per_op].sum() / 1e6 / ops
            metrics[f"{name}.{stat}"] = float(value)

    backward = (cols["fid"] == index.get("nets.mlp_backward", -1)) & in_op
    parent = cols["parent"][backward]
    inside_g = np.zeros(parent.shape, dtype=bool)
    has_parent = parent >= 0
    g_fid = index.get("training.generator_objective_and_grads", -1)
    inside_g[has_parent] = ((cols["fid"][parent[has_parent]] == g_fid)
                            & (cols["ref"][parent[has_parent]] == cols["ref"][backward][has_parent]))
    # Backprop through D inside the G objective: its weight gradients are dropped.
    metrics["training.discarded_backward_share"] = (
        float(inside_g.sum() / backward.sum()) if backward.any() else 0.0)
    metrics["experiment.bytes_written"] = float(bytes_written)
    metrics["trace.overhead_share"] = float(overhead)
    return metrics


def measure_layers(workload, seconds: int) -> tuple[Ledger, dict, list[str]]:
    from tracer import Tracer

    tracer = Tracer()
    with tracer:
        workload.setup()
    ledger = Ledger()
    bare, traced, written = [], [], []
    began = time.perf_counter()
    pair = 0
    # Pairs of an untraced and a traced run of the same seed, whose outputs must agree.
    while time.perf_counter() - began < seconds or pair < 2:
        wall, outcome, error = _run_op(workload, pair)
        ok = ledger.record(pair, outcome, error)
        tracer.run_id = pair + 1
        wall_t, outcome_t, error_t = _run_op(workload, pair, tracer)
        if ledger.record(pair, outcome_t, error_t, expected=outcome) and ok:
            bare.append(wall)
            traced.append(wall_t)
            written.append(outcome_t.bytes_written)
        pair += 1
    overhead = statistics.median(traced) / statistics.median(bare) - 1.0 if bare else 0.0
    metrics = layer_metrics(tracer, pair, statistics.median(written) if written else 0.0,
                            overhead)
    path = WORK_DIR / f"trace-{workload.name}.npz"
    tracer.write(path)
    lines = [f"untraced wall_s [s]: {percentiles(bare)}",
             f"traced wall_s [s]: {percentiles(traced)}",
             f"spans: {len(tracer)} written to {path.relative_to(ROOT)}"]
    lines += [f"{name} [{unit_of(name)}]: {value:.6g}" for name, value in metrics.items()]
    return ledger, metrics, lines


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in DERIVED_LAYER_METRICS:
        return DERIVED_LAYER_METRICS[name]
    return STAT_UNITS[name.rsplit(".", 1)[1]]


def report(workload, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """Measure one workload; return the result object and the ``#`` lines."""
    measure = measure_layers if trace else measure_end_to_end
    ledger, metrics, lines = measure(workload, seconds)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    return result, lines


def run_workload(args) -> int:
    import workloads

    workload = workloads.make(args.workload, args.seed, WORK_DIR / "work")
    print(f"# env {json.dumps(fingerprint())}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
          f"seconds {args.seconds}: closed loop, 1 caller, {workload.distinct} replication seeds")
    result, lines = report(workload, args.seconds, args.trace)
    for line in lines:
        print(f"# {args.workload} {line}")
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process of this script."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, check=False)
        status = status or proc.returncode
    return status


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="workload to run; all of them, one process each, if omitted")
    parser.add_argument("--seed", type=_non_negative, default=0, help="workload seed")
    parser.add_argument("--seconds", type=_non_negative, default=30, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _pin_threads()
    try:
        _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import oodlab from this checkout: {exc}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    if args.probe_setup:
        import workloads

        workloads.make(args.workload, args.seed, WORK_DIR / "work").setup()
        print("ready", flush=True)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
