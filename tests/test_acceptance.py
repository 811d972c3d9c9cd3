"""Acceptance suite: one test per shipped criterion, pass/fail line printed.

The three preset experiments (two adversarial settings and the baseline) are
run once per session into temporary directories and shared across criteria.
Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.
"""

import time
from itertools import product

import numpy as np
import pytest
from kernel_reference import finite_difference_gradient

from oodlab.config import preset_config
from oodlab.data import sample_noise
from oodlab.detection import rejection_region_area, select_threshold
from oodlab.experiment import compare_rejection_regions, load_report, run_experiment
from oodlab.nets import Head, adam_step, init_adam, init_mlp
from oodlab.rng import Rng
from oodlab.training import (
    discriminator_loss_and_grads,
    generator_objective_and_grads,
)
from oodlab.wasserstein import binary_cost_matrix, wasserstein_score

TNR95 = 0.95


def check(label, ok, detail):
    print(f"{label}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def preset_runs(tmp_path_factory):
    runs = {}
    for name in ("setting1", "setting2", "wood2d"):
        out = tmp_path_factory.mktemp(name)
        start = time.perf_counter()
        report = run_experiment(preset_config(name), out)
        elapsed = time.perf_counter() - start
        runs[name] = {"report": report, "dir": out, "seconds": elapsed}
    return runs


def min_tpr_and_acc(report):
    idx = report.config.tnr_targets.index(TNR95)
    tprs = [rep.tprs[idx] for rep in report.replications]
    accs = [rep.accuracy for rep in report.replications]
    return min(tprs), min(accs)


def test_criterion_1_setting1_reproduction(preset_runs):
    run = preset_runs["setting1"]
    tpr, acc = min_tpr_and_acc(run["report"])
    per_rep = run["seconds"] / run["report"].config.replications
    check(
        "criterion 1 (setting1: TPR/accuracy/runtime)",
        tpr >= 0.995 and acc >= 0.99 and per_rep <= 180.0,
        f"min TPR@95={tpr:.4f} (>=0.995), min acc={acc:.4f} (>=0.99), "
        f"{per_rep:.1f}s/replication (<=180s)",
    )


def test_criterion_2_setting2_reproduction(preset_runs):
    tpr, acc = min_tpr_and_acc(preset_runs["setting2"]["report"])
    check(
        "criterion 2 (setting2: TPR/accuracy)",
        tpr >= 0.995 and acc >= 0.99,
        f"min TPR@95={tpr:.4f} (>=0.995), min acc={acc:.4f} (>=0.99)",
    )


def test_criterion_3_wood_baseline(preset_runs):
    tpr, _ = min_tpr_and_acc(preset_runs["wood2d"]["report"])
    check("criterion 3 (baseline TPR)", tpr >= 0.995, f"min TPR@95={tpr:.4f} (>=0.995)")


def rejection_areas(report):
    idx = report.config.tnr_targets.index(TNR95)
    areas = []
    for rep in report.replications:
        areas.append(rejection_region_area(rep.heatmap, rep.etas[idx]))
    return areas


def test_criterion_4_rejection_regions(preset_runs):
    wood_areas = rejection_areas(preset_runs["wood2d"]["report"])
    details = []
    ok = True
    for name in ("setting1", "setting2"):
        areas = rejection_areas(preset_runs[name]["report"])
        wins = sum(a > w for a, w in zip(areas, wood_areas))
        ok = ok and wins >= 2
        details.append(f"{name} wins {wins}/3 "
                       f"(areas {', '.join(f'{a:.3f}' for a in areas)} vs "
                       f"wood {', '.join(f'{w:.3f}' for w in wood_areas)})")
    # Same comparison through the file-level path.
    record = compare_rejection_regions(
        load_report(preset_runs["setting1"]["dir"]),
        load_report(preset_runs["wood2d"]["dir"]),
        TNR95,
    )
    file_areas = rejection_areas(preset_runs["setting1"]["report"])
    assert np.allclose(record.areas_a, file_areas, atol=1e-12)
    check("criterion 4 (rejection regions, both settings, >=2/3)", ok, "; ".join(details))


def test_criterion_5_score_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    K = 4
    Mb = binary_cost_matrix(K)
    raw = rng.exponential(size=(1000, K))
    probs = raw / raw.sum(axis=1, keepdims=True)

    for p in probs:
        score, _ = wasserstein_score(p, Mb)
        brute = min(float(p @ Mb[:, k]) for k in range(K))
        assert abs(score - brute) < 1e-12
        assert abs(score - (1.0 - p.max())) < 1e-12
        assert 0.0 <= score <= 1.0 - 1.0 / K

    top, _ = wasserstein_score(np.full(K, 1.0 / K), Mb)
    bottom, _ = wasserstein_score(np.eye(K)[1], Mb)
    assert bottom == 0.0 and abs(top - (1.0 - 1.0 / K)) < 1e-15

    others = rng.dirichlet(np.ones(K), size=1000)
    for u, v in zip(probs, others):
        su, _ = wasserstein_score(u, Mb)
        sv, _ = wasserstein_score(v, Mb)
        assert abs(su - sv) <= np.linalg.norm(u - v) + 1e-15

    elapsed = time.perf_counter() - start
    check(
        "criterion 5 (score property suite)",
        elapsed < 5.0,
        f"1000 closed-form/enumeration matches at 1e-12, bounds with extremes, "
        f"1000 Lipschitz pairs, {elapsed:.2f}s (<5s)",
    )


def worst_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        if abs(a) < 1e-8:
            assert abs(n - a) < 1e-7
        else:
            worst = max(worst, abs(n - a) / abs(a))
    return worst


def biased_net(sizes, head, rng):
    """Glorot weights plus nonzero biases.

    Zero biases leave dead-ReLU inputs with exactly tied logits, where the
    score's argmin genuinely jumps and central differences are meaningless;
    random biases keep the frozen seeds clear of those discontinuities.
    """
    net = init_mlp(sizes, head, rng)
    for b in net.biases:  # views into the fresh net's flat vector
        b[...] = 0.6 * rng.uniform(b.size) - 0.3
    return net


def test_criterion_6_gradient_fidelity():
    # The binary matrix, and a graded one: moving mass between classes 1 and 3 costs 2.
    matrices = (binary_cost_matrix(3), np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0],
                                                  [2.0, 1.0, 0.0]]))
    worst = 0.0
    for seed, M in product(range(20), matrices):
        rng = Rng(seed + 500)
        D = biased_net((2, 6, 3), Head.SOFTMAX, rng)
        G = biased_net((2, 5, 2), Head.IDENTITY, rng)
        ind_x = rng.standard_normal(8).reshape(4, 2)
        ind_y = rng.indices_below(3, 4) + 1
        ood_x = rng.standard_normal(6).reshape(3, 2)
        noise = sample_noise(2, 3, rng)
        gen_x = rng.standard_normal(6).reshape(3, 2)

        _, _, d_grads = discriminator_loss_and_grads(
            D, ind_x, ind_y, ood_x, gen_x, 1.0, 0.5, M)
        d_numeric = finite_difference_gradient(
            lambda p: discriminator_loss_and_grads(
                p, ind_x, ind_y, ood_x, gen_x, 1.0, 0.5, M)[0],
            D, 1e-5)
        worst = max(worst, worst_relative_error(d_grads, d_numeric))

        _, g_grads = generator_objective_and_grads(D, G, noise, 0.7, M)
        g_numeric = finite_difference_gradient(
            lambda p: generator_objective_and_grads(D, p, noise, 0.7, M)[0],
            G, 1e-5)
        worst = max(worst, worst_relative_error(g_grads, g_numeric))

    check(
        "criterion 6 (gradient fidelity)",
        worst < 1e-4,
        f"20 nets/batches x 2 cost matrices, worst relative error {worst:.2e} (<1e-4)",
    )


def test_criterion_7_threshold_calibration():
    rng = np.random.default_rng(31)
    checked = 0
    for _ in range(500):
        scores = rng.uniform(0.0, 0.7, size=int(rng.integers(1, 400)))
        for target in (0.9, 0.95, 0.99, 1.0):
            eta = select_threshold(scores, target)
            n = scores.size
            assert np.sum(scores <= eta) / n >= target
            for candidate in np.unique(scores[scores < eta]):
                assert np.sum(scores <= candidate) / n < target
            checked += 1
    check(
        "criterion 7 (threshold calibration)",
        checked == 2000,
        f"{checked} calibrations sound and minimal at targets 0.9/0.95/0.99/1.0",
    )


def test_criterion_8_soft_optimality_checks(preset_runs):
    report = preset_runs["setting1"]["report"]
    K = 3
    top = 1.0 - 1.0 / K
    ind_ok = all(rep.mean_ind_score < 0.1 * top for rep in report.replications)
    ood_ok = all(rep.mean_ood_score > 0.5 * top for rep in report.replications)

    trend_ok = True
    for rep in report.replications:
        gen_scores = [r.gen_score_mean for r in rep.history.records]
        tenth = max(1, len(gen_scores) // 10)
        trend_ok = trend_ok and (np.mean(gen_scores[-tenth:]) >= np.mean(gen_scores[:tenth]))

    inds = [rep.mean_ind_score for rep in report.replications]
    oods = [rep.mean_ood_score for rep in report.replications]
    check(
        "criterion 8 (soft optimality checks after setting1)",
        ind_ok and ood_ok and trend_ok,
        f"max mean InD score {max(inds):.4f} (<{0.1 * top:.4f}), "
        f"min mean OoD score {min(oods):.4f} (>{0.5 * top:.4f}), "
        f"generated-score trend non-decreasing in all replications",
    )


def test_criterion_9_byte_determinism(preset_runs, tmp_path_factory):
    first = preset_runs["wood2d"]["dir"]
    second = tmp_path_factory.mktemp("wood2d_again")
    run_experiment(preset_config("wood2d"), second)
    compared = 0
    for path in sorted(first.rglob("*")):
        if not path.is_file():
            continue
        twin = second / path.relative_to(first)
        assert twin.exists(), twin
        assert path.read_bytes() == twin.read_bytes(), path.name
        compared += 1
    check(
        "criterion 9 (byte-identical reruns)",
        compared >= 7,
        f"{compared} files byte-identical across two runs of the wood2d preset",
    )


def test_property_frozen_discriminator_generator_ascent(preset_runs):
    """With the trained setting2 discriminator frozen, 200 generator-only
    steps must not decrease the generator objective overall."""
    report = preset_runs["setting2"]["report"]
    D = report.replications[0].history.discriminator
    cfg = preset_runs["setting2"]["report"].config.train
    M = binary_cost_matrix(3)
    rng = Rng(9999)
    G = init_mlp(cfg.generator_arch, Head.IDENTITY, rng)
    state = init_adam(G)
    first = None
    last = None
    for _ in range(200):
        noise = sample_noise(cfg.noise_dim, cfg.batch_gen, rng)
        objective, grads = generator_objective_and_grads(D, G, noise, cfg.beta_z, M)
        if first is None:
            first = objective
        last = objective
        G, state = adam_step(G, -grads, state, cfg.lr_g)
    check(
        "property (frozen-discriminator generator ascent)",
        last >= first,
        f"objective {first:.4f} -> {last:.4f} over 200 steps",
    )
