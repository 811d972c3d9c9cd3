"""Self-tests of the benchmark: run with ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from oodlab import config, experiment, nets, training  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _write_replication(rep, out: Path) -> dict[str, bytes]:
    out.mkdir()
    training.write_history_csv(rep.history, out / "history.csv")
    nets.write_params(rep.history.discriminator, out / "weights_discriminator.txt")
    nets.write_params(rep.history.generator, out / "weights_generator.txt")
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_traced_replication_is_byte_identical(tmp_path):
    cfg = config.parse_config("[method]\npreset = setting2\n[train]\niterations = 40\n")
    plain = _write_replication(experiment.run_replication(cfg, 0), tmp_path / "plain")
    tracer = Tracer()
    tracer.run_id = 1
    with tracer:
        traced = _write_replication(experiment.run_replication(cfg, 0), tmp_path / "traced")
    assert traced == plain
    cols = tracer.columns()
    assert len(tracer) == len(cols["fid"]) > 0
    # Uninstalling restores every patched namespace.
    assert training.mlp_forward is nets.mlp_forward
    assert not hasattr(nets.mlp_forward, "__wrapped__")


def test_tracer_patches_importing_namespaces():
    tracer = Tracer()
    with tracer:
        assert training.mlp_forward is nets.mlp_forward
        assert hasattr(training.mlp_forward, "__wrapped__")
        assert hasattr(experiment.train_see_ood, "__wrapped__")
    assert not hasattr(experiment.train_see_ood, "__wrapped__")


def test_layer_metrics_read_zero_for_untraced_functions():
    tracer = Tracer(only=set())
    metrics = run.layer_metrics(tracer, ops=1, bytes_written=0, overhead=0.0)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert all(value == 0.0 for value in metrics.values())


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_output_names_every_metric(name, trace, tmp_path):
    small = {} if name == "replicate-io" else {"iterations": 20}
    workload = workloads.make(name, 3, tmp_path / "work", distinct=2, **small)
    result, lines = run.report(workload, seconds=0, trace=trace)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    if trace:
        metrics = {n: m["value"] for n, m in result["metrics"].items()}
        share = {"d-heavy": 1 / 8, "g-heavy": 3 / 9, "replicate-io": 0.0}[name]
        assert metrics["training.discarded_backward_share"] == pytest.approx(share)
        assert all(v > 0 for v in (metrics["nets.mlp_forward.calls"],
                                   metrics["nets.adam_step.calls"],
                                   metrics["experiment.run_replication.calls"]))
    else:
        assert all(result["metrics"][n]["value"] > 0
                   for n in ("setup_s", "wall_s", "steps_per_s", "peak_rss_mb"))
        assert result["metrics"]["ok_share"]["value"] == 1.0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "d-heavy", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
