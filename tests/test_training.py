"""Loss components, gradient fidelity, trainer determinism and conventions."""

import inspect
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from kernel_reference import (
    reference_adam,
    reference_backward,
    reference_forward,
    reference_log_softmax,
    reference_score_values_and_logit_grads,
)
from test_nets import perturbed_net

import oodlab.training as training
from oodlab.data import make_simulation_dataset, sample_noise, subsample_ood
from oodlab.nets import (
    Head,
    MlpParams,
    NumericError,
    _adam,
    _cache,
    _forward,
    _with_backward,
    _with_ones,
    finite_difference_gradient,
    init_adam,
    init_mlp,
    mlp_backward,
    mlp_forward,
    params_to_text,
)
from oodlab.rng import Rng
from oodlab.training import (
    IterationRecord,
    TrainConfig,
    TrainHistory,
    discriminator_loss_and_grads,
    generator_objective_and_grads,
    sample_generator,
    train_see_ood,
    train_wood,
    write_history_csv,
)
from oodlab.wasserstein import binary_cost_matrix

M3 = binary_cost_matrix(3)
# A non-binary cost matrix: moving mass between classes 1 and 3 costs twice as much.
GRADED = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])


def zero_discriminator(K=3, d=2):
    return MlpParams((d, K), np.zeros(K * d + K), Head.SOFTMAX)


def tiny_batches(seed=0, n_ind=4, n_ood=3, n_gen=3, d=2, K=3):
    rng = Rng(seed)
    ind_x = rng.standard_normal(n_ind * d).reshape(n_ind, d)
    ind_y = rng.indices_below(K, n_ind) + 1
    ood_x = rng.standard_normal(n_ood * d).reshape(n_ood, d)
    gen_x = rng.standard_normal(n_gen * d).reshape(n_gen, d)
    return ind_x, ind_y, ood_x, gen_x


def small_dataset(seed=0, n_ood=2):
    rng = Rng(seed)
    data = make_simulation_dataset(rng)
    return subsample_ood(data, n_ood, rng)


class TestTrainConfig:
    def test_defaults_validate(self):
        TrainConfig()

    @pytest.mark.parametrize("field,value", [
        ("beta_ood", 0.0), ("beta_z", -1.0), ("n_d", 0), ("lr_d", 0.0),
        ("batch_ood", 0), ("iterations", -1),
    ])
    def test_invalid_fields(self, field, value):
        with pytest.raises(ValueError):
            replace(TrainConfig(), **{field: value})

    def test_ood_batch_clamped_to_pool(self):
        cfg = TrainConfig(batch_ood=32)
        assert cfg.effective_batch_ood(2) == 2
        assert cfg.effective_batch_ood(100) == 32

    def test_noise_dim_is_generator_input_width(self):
        assert TrainConfig(generator_arch=(3, 8, 2)).noise_dim == 3
        with pytest.raises(TypeError):
            replace(TrainConfig(), noise_dim=3)

    @pytest.mark.parametrize("trainer", [train_see_ood, train_wood])
    def test_trainers_take_the_rng(self, trainer):
        for name in ("rng", "M"):
            assert inspect.signature(trainer).parameters[name].default is inspect.Parameter.empty

    @pytest.mark.parametrize("trainer", [train_see_ood, train_wood])
    def test_cost_matrix_of_other_class_count_rejected(self, trainer):
        with pytest.raises(ValueError, match="cost matrix is 4x4 but data has 3 classes"):
            trainer(quick_config(), small_dataset(), Rng(0), binary_cost_matrix(4))


class TestDiscriminatorLoss:
    def test_uniform_discriminator_hand_value(self):
        # Zero weights emit the uniform vector everywhere, so each score term
        # is 1 - 1/3 and the loss is ln 3 - 2/3 - 2/3.
        D = zero_discriminator()
        ind_x, ind_y, ood_x, gen_x = tiny_batches()
        loss, (ce, ood, gen), _ = discriminator_loss_and_grads(
            D, ind_x, ind_y, ood_x, gen_x, 1.0, 1.0, binary_cost_matrix(3))
        assert ce == pytest.approx(math.log(3.0), abs=1e-12)
        assert ood == pytest.approx(2 / 3, abs=1e-12)
        assert gen == pytest.approx(2 / 3, abs=1e-12)
        assert loss == pytest.approx(math.log(3.0) - 4 / 3, abs=1e-12)

    def test_zero_weights_reduce_to_cross_entropy(self):
        D = init_mlp((2, 6, 3), Head.SOFTMAX, Rng(4))
        ind_x, ind_y, ood_x, gen_x = tiny_batches(1)
        loss, (ce, _, _), grads = discriminator_loss_and_grads(
            D, ind_x, ind_y, ood_x, gen_x, 1e-30, 0.0, binary_cost_matrix(3))
        assert loss == pytest.approx(ce, rel=1e-12)
        ce_only = finite_difference_gradient(
            lambda p: _ce_value(p, ind_x, ind_y), D, 1e-5)
        _assert_gradients_close(grads, ce_only, rtol=2e-4)

    def test_loss_decomposition_exact(self):
        D = init_mlp((2, 6, 3), Head.SOFTMAX, Rng(6))
        ind_x, ind_y, ood_x, gen_x = tiny_batches(2)
        for beta_ood, beta_z in ((1.0, 0.001), (0.3, 2.0), (5.0, 0.0)):
            loss, (c1, c2, c3), _ = discriminator_loss_and_grads(
                D, ind_x, ind_y, ood_x, gen_x, beta_ood, beta_z, binary_cost_matrix(3))
            assert abs(loss - (c1 - beta_ood * c2 - beta_z * c3)) < 1e-12

    def test_empty_gen_batch_skips_third_term(self):
        D = init_mlp((2, 6, 3), Head.SOFTMAX, Rng(7))
        ind_x, ind_y, ood_x, _ = tiny_batches(3)
        loss, (c1, c2, c3), _ = discriminator_loss_and_grads(
            D, ind_x, ind_y, ood_x, np.empty((0, 2)), 1.5, 7.0, binary_cost_matrix(3))
        assert c3 == 0.0
        assert loss == pytest.approx(c1 - 1.5 * c2, abs=1e-12)

    def test_empty_ind_batch_rejected(self):
        D = zero_discriminator()
        with pytest.raises(ValueError):
            discriminator_loss_and_grads(
                D, np.empty((0, 2)), np.empty(0, dtype=int),
                np.zeros((1, 2)), np.empty((0, 2)), 1.0, 1.0, binary_cost_matrix(3))

    def test_cost_matrix_of_other_class_count_rejected(self):
        with pytest.raises(ValueError, match="net outputs 3 classes but M is 4x4"):
            discriminator_loss_and_grads(zero_discriminator(), *tiny_batches(), 1.0, 1.0,
                                         binary_cost_matrix(4))

    @pytest.mark.parametrize("name", ["ind_x", "ood_x", "gen_x"])
    def test_batch_of_other_width_rejected(self, name):
        ind_x, ind_y, ood_x, gen_x = tiny_batches()
        batches = {"ind_x": ind_x, "ood_x": ood_x, "gen_x": gen_x}
        batches[name] = np.zeros((4, 3))
        with pytest.raises(ValueError,
                           match=rf"{name} has shape \(4, 3\), expected \(batch, 2\)"):
            discriminator_loss_and_grads(zero_discriminator(), batches["ind_x"], ind_y,
                                         batches["ood_x"], batches["gen_x"], 1.0, 1.0,
                                         binary_cost_matrix(3))

    @pytest.mark.parametrize("M", [M3, GRADED], ids=["binary", "graded"])
    def test_gradients_match_finite_differences(self, M):
        ind_x, ind_y, ood_x, gen_x = tiny_batches(5, n_ind=4)
        D = init_mlp((2, 6, 3), Head.SOFTMAX, Rng(17))
        _, _, grads = discriminator_loss_and_grads(
            D, ind_x, ind_y, ood_x, gen_x, 1.3, 0.7, M)

        def loss_of(params):
            value, _, _ = discriminator_loss_and_grads(
                params, ind_x, ind_y, ood_x, gen_x, 1.3, 0.7, M)
            return value

        numeric = finite_difference_gradient(loss_of, D, 1e-5)
        _assert_gradients_close(grads, numeric, rtol=1e-4)


def _logits(D, x):
    """D's pre-softmax logits over the rows of `x`, from a kernel pass."""
    cache = _cache(D, x.shape[0])
    _forward(D, cache)(_with_ones(*x.shape, fill=x))
    return cache.logits


def three_pass_loss_and_grads(D, ind_x, ind_y, ood_x, gen_x, beta_ood, beta_z, M):
    """Reference discriminator loss: one forward and backward pass per batch."""
    targets = np.eye(D.output_dim)[np.asarray(ind_y) - 1]
    n_ind = ind_x.shape[0]
    ce = float(-np.sum(reference_log_softmax(_logits(D, ind_x)) * targets) / n_ind)
    grads = mlp_backward(D, ind_x, (mlp_forward(D, ind_x) - targets) / n_ind)

    n_ood = ood_x.shape[0]
    ood_scores, ood_logit_grads = reference_score_values_and_logit_grads(
        mlp_forward(D, ood_x), M)
    mean_ood = float(ood_scores.mean())
    g_ood = mlp_backward(D, ood_x, (-beta_ood / n_ood) * ood_logit_grads)
    grads = grads + g_ood

    mean_gen = 0.0
    if gen_x.shape[0] > 0:
        n_gen = gen_x.shape[0]
        gen_scores, gen_logit_grads = reference_score_values_and_logit_grads(
            mlp_forward(D, gen_x), M)
        mean_gen = float(gen_scores.mean())
        g_gen = mlp_backward(D, gen_x, (-beta_z / n_gen) * gen_logit_grads)
        grads = grads + g_gen

    loss = ce - beta_ood * mean_ood - beta_z * mean_gen
    return loss, (ce, mean_ood, mean_gen), grads


class TestStackedDiscriminatorStep:
    @pytest.mark.parametrize("n_ood", [1, 2, 32])
    @pytest.mark.parametrize("n_gen", [0, 5, 64])
    def test_matches_three_pass_reference(self, n_ood, n_gen):
        M = binary_cost_matrix(3)
        ind_x, ind_y, ood_x, gen_x = tiny_batches(
            100 * n_ood + n_gen, n_ind=64, n_ood=n_ood, n_gen=n_gen)
        # Off-center inputs and nonzero biases, so ReLUs are mixed and no row is uniform.
        D = init_mlp((2, 128, 3), Head.SOFTMAX, Rng(n_ood + n_gen))
        D = replace(D, flat=D.flat + 0.1 * Rng(7).standard_normal(D.flat.size))
        for beta_ood, beta_z in ((1.0, 0.001), (0.3, 2.0)):
            args = (D, 3.0 * ind_x, ind_y, 3.0 * ood_x, 3.0 * gen_x, beta_ood, beta_z, M)
            loss, parts, grads = discriminator_loss_and_grads(*args)
            ref_loss, ref_parts, ref_grads = three_pass_loss_and_grads(*args)
            for value, ref in zip((loss, *parts), (ref_loss, *ref_parts)):
                assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref))
            scale = np.abs(ref_grads).max()
            assert scale > 0.0
            assert np.abs(grads - ref_grads).max() <= 1e-12 * scale


def _ce_value(params, ind_x, ind_y):
    targets = np.eye(params.output_dim)[np.asarray(ind_y) - 1]
    return float(-np.sum(reference_log_softmax(_logits(params, ind_x)) * targets)
                 / ind_x.shape[0])


def _assert_gradients_close(analytic, numeric, rtol):
    for a, n in zip(analytic, numeric):
        if abs(a) < 1e-8:
            assert abs(n - a) < 1e-7
        else:
            assert abs(n - a) / abs(a) < rtol


class TestGeneratorObjective:
    def test_constant_discriminator_gives_flat_objective(self):
        D = zero_discriminator()
        G = init_mlp((2, 6, 2), Head.IDENTITY, Rng(8))
        noise = sample_noise(2, 5, Rng(9))
        obj, grads = generator_objective_and_grads(D, G, noise, 2.0, binary_cost_matrix(3))
        assert obj == pytest.approx(2.0 * (1 - 1 / 3), abs=1e-12)
        assert np.abs(grads).max() == 0.0

    def test_zero_weight_scales_to_zero(self):
        D = init_mlp((2, 6, 3), Head.SOFTMAX, Rng(10))
        G = init_mlp((2, 6, 2), Head.IDENTITY, Rng(11))
        noise = sample_noise(2, 4, Rng(12))
        obj, grads = generator_objective_and_grads(D, G, noise, 0.0, binary_cost_matrix(3))
        assert obj == 0.0
        assert np.abs(grads).max() == 0.0

    @pytest.mark.parametrize("M", [M3, GRADED], ids=["binary", "graded"])
    def test_gradients_match_finite_differences(self, M):
        D = init_mlp((2, 6, 3), Head.SOFTMAX, Rng(13))
        # Nonzero biases: a ReLU G with zero biases maps a noise row whose hidden
        # units are all dead to exactly 0, where D's logits tie and the score's
        # argmin jumps, so central differences there are meaningless.
        G = perturbed_net((2, 5, 2), Head.IDENTITY, 14)
        noise = sample_noise(2, 4, Rng(15))
        obj, grads = generator_objective_and_grads(D, G, noise, 0.4, M)

        def objective_of(g_params):
            value, _ = generator_objective_and_grads(D, g_params, noise, 0.4, M)
            return value

        numeric = finite_difference_gradient(objective_of, G, 1e-5)
        _assert_gradients_close(grads, numeric, rtol=1e-4)

    def test_softmax_head_rejected(self):
        D = init_mlp((2, 6, 3), Head.SOFTMAX, Rng(16))
        G = init_mlp((2, 6, 2), Head.SOFTMAX, Rng(17))
        with pytest.raises(ValueError, match="the generator head must be Identity"):
            generator_objective_and_grads(D, G, sample_noise(2, 2, Rng(0)), 1.0,
                                          binary_cost_matrix(3))

    def test_dimension_mismatch_rejected(self):
        D = init_mlp((2, 6, 3), Head.SOFTMAX, Rng(16))
        G = init_mlp((2, 6, 3), Head.IDENTITY, Rng(17))
        with pytest.raises(ValueError):
            generator_objective_and_grads(D, G, sample_noise(2, 2, Rng(0)), 1.0,
                                          binary_cost_matrix(3))

    def test_cost_matrix_of_other_class_count_rejected(self):
        D = init_mlp((2, 6, 3), Head.SOFTMAX, Rng(16))
        G = init_mlp((2, 6, 2), Head.IDENTITY, Rng(17))
        with pytest.raises(ValueError, match="net outputs 3 classes but M is 4x4"):
            generator_objective_and_grads(D, G, sample_noise(2, 2, Rng(0)), 1.0,
                                          binary_cost_matrix(4))

    def test_noise_of_other_width_rejected(self):
        D = init_mlp((2, 6, 3), Head.SOFTMAX, Rng(16))
        G = init_mlp((2, 6, 2), Head.IDENTITY, Rng(17))
        with pytest.raises(ValueError,
                           match=r"noise_batch has shape \(4, 3\), expected \(batch, 2\)"):
            generator_objective_and_grads(D, G, np.zeros((4, 3)), 1.0, binary_cost_matrix(3))


def quick_config(**kwargs):
    base = dict(iterations=20, batch_ind=16, batch_gen=8, seed=3)
    base.update(kwargs)
    return TrainConfig(**base)


class TestTrainSeeOod:
    def test_zero_iterations_returns_initializations(self):
        cfg = quick_config(iterations=0)
        data = small_dataset()
        history = train_see_ood(cfg, data, Rng(cfg.seed), M3)
        assert history.records == ()
        check = Rng(cfg.seed)
        expected_d = init_mlp(cfg.discriminator_arch, Head.SOFTMAX, check)
        expected_g = init_mlp(cfg.generator_arch, Head.IDENTITY, check)
        assert params_to_text(history.discriminator) == params_to_text(expected_d)
        assert params_to_text(history.generator) == params_to_text(expected_g)

    def test_requires_observed_ood(self):
        data = small_dataset(n_ood=0)
        with pytest.raises(ValueError):
            train_see_ood(quick_config(), data, Rng(0), M3)

    def test_deterministic_given_seed(self):
        cfg = quick_config()
        data = small_dataset()
        a = train_see_ood(cfg, data, Rng(cfg.seed), M3)
        b = train_see_ood(cfg, data, Rng(cfg.seed), M3)
        assert a.records == b.records
        assert params_to_text(a.discriminator) == params_to_text(b.discriminator)
        assert params_to_text(a.generator) == params_to_text(b.generator)

    def test_record_fields_finite_and_counted(self):
        cfg = quick_config(iterations=15)
        history = train_see_ood(cfg, small_dataset(), Rng(cfg.seed), M3)
        assert len(history.records) == 15
        for i, rec in enumerate(history.records, start=1):
            assert rec.iteration == i
            for value in (rec.loss, rec.ce, rec.ood_score_mean,
                          rec.gen_score_mean, rec.gen_objective):
                assert value is not None and np.isfinite(value)

    def test_oversized_ood_batch_clamped(self, monkeypatch):
        seen = []
        original = training._discriminator_step

        def spy(D, ws, beta_ood, beta_z, M):
            seen.append(ws.ood.shape[0])
            return original(D, ws, beta_ood, beta_z, M)

        monkeypatch.setattr(training, "_discriminator_step", spy)
        cfg = quick_config(iterations=5, batch_ood=32)
        train_see_ood(cfg, small_dataset(n_ood=2), Rng(0), M3)
        assert seen and all(size == 2 for size in seen)


class TestTrainWood:
    def test_deterministic(self):
        cfg = quick_config(lr_d=1e-3)
        data = small_dataset()
        a = train_wood(cfg, data, Rng(cfg.seed), M3)
        b = train_wood(cfg, data, Rng(cfg.seed), M3)
        assert a.records == b.records
        assert params_to_text(a.discriminator) == params_to_text(b.discriminator)

    def test_no_generator(self):
        cfg = quick_config(lr_d=1e-3, iterations=5)
        history = train_wood(cfg, small_dataset(), Rng(cfg.seed), M3)
        assert history.generator is None
        assert all(r.gen_score_mean is None and r.gen_objective is None
                   for r in history.records)

    def test_requires_observed_ood(self):
        with pytest.raises(ValueError):
            train_wood(quick_config(), small_dataset(n_ood=0), Rng(0), M3)

    @pytest.mark.parametrize("trainer", [train_see_ood, train_wood])
    def test_requires_labeled_ind(self, trainer):
        data = small_dataset()
        data = replace(data, ind_train_x=data.ind_train_x[:0], ind_train_y=data.ind_train_y[:0])
        with pytest.raises(ValueError, match="at least one labeled InD sample"):
            trainer(quick_config(), data, Rng(0), M3)

    def test_ignores_n_d(self):
        # The baseline takes one discriminator step per iteration whatever n_d says.
        data = small_dataset()
        one = train_wood(quick_config(lr_d=1e-3, n_d=1), data, Rng(0), M3)
        three = train_wood(quick_config(lr_d=1e-3, n_d=3), data, Rng(0), M3)
        assert one.records == three.records
        assert params_to_text(one.discriminator) == params_to_text(three.discriminator)


def reference_discriminator_step(D, ind_x, targets, ood_x, gen_x, beta_ood, beta_z, M):
    """The allocating discriminator step the workspace replaced, on the reference kernels."""
    n_ind, n_ood, n_gen = ind_x.shape[0], ood_x.shape[0], gen_x.shape[0]
    probs, cache = reference_forward(D, np.concatenate([ind_x, ood_x, gen_x]))
    log_probs = reference_log_softmax(cache.pre_activations[-1][:n_ind])
    ce = float(-np.sum(log_probs * targets) / n_ind)
    scores, g = reference_score_values_and_logit_grads(probs[n_ind:], M)
    mean_ood = float(scores[:n_ood].mean())
    mean_gen = float(scores[n_ood:].mean()) if n_gen else 0.0

    up = np.empty_like(probs)
    up[:n_ind] = (probs[:n_ind] - targets) / n_ind
    up[n_ind:n_ind + n_ood] = (-beta_ood / n_ood) * g[:n_ood]
    if n_gen:
        up[n_ind + n_ood:] = (-beta_z / n_gen) * g[n_ood:]
    grads = reference_backward(D, cache, up)

    loss = ce - beta_ood * mean_ood - beta_z * mean_gen
    if not np.isfinite(loss):
        raise NumericError(f"discriminator loss is not finite: {loss}")
    return loss, (ce, mean_ood, mean_gen), grads


def reference_generator_step(D, G, noise, beta_z, M):
    """The allocating generator step the workspace replaced, on the reference kernels."""
    fake, cache_g = reference_forward(G, noise)
    probs, cache_d = reference_forward(D, fake)
    scores, logit_grads = reference_score_values_and_logit_grads(probs, M)
    objective = float(beta_z * scores.mean())
    if not np.isfinite(objective):
        raise NumericError(f"generator objective is not finite: {objective}")

    d_fake = reference_backward(D, cache_d, (beta_z / noise.shape[0]) * logit_grads,
                                param_grad=False)
    grads = reference_backward(G, cache_g, d_fake)
    return objective, grads


def reference_train(config, data, rng, M, with_generator):
    """The allocating training loop the workspace replaced, on the reference kernels."""
    D = init_mlp(config.discriminator_arch, Head.SOFTMAX, rng)
    adam_d = init_adam(D)
    G = adam_g = None
    if with_generator:
        G = init_mlp(config.generator_arch, Head.IDENTITY, rng)
        adam_g = init_adam(G)

    targets = training._one_hot(data.ind_train_y, data.K)
    n_ind = data.ind_train_x.shape[0]
    n_ood_pool = data.ood_train.shape[0]
    b_ood = config.effective_batch_ood(n_ood_pool)
    n_d = config.n_d if with_generator else 1
    beta_z = config.beta_z if with_generator else 0.0
    gen_x = np.empty((0, data.d))

    records = []
    for it in range(1, config.iterations + 1):
        for _ in range(n_d):
            ind_idx = rng.indices_below(n_ind, config.batch_ind)
            ood_idx = rng.indices_below(n_ood_pool, b_ood)
            if with_generator:
                noise = sample_noise(config.noise_dim, config.batch_gen, rng)
                gen_x, _ = reference_forward(G, noise)
            loss, (ce, mean_ood, mean_gen), grads = reference_discriminator_step(
                D, data.ind_train_x[ind_idx], targets[ind_idx], data.ood_train[ood_idx],
                gen_x, config.beta_ood, beta_z, M)
            D, adam_d = reference_adam(D, grads, adam_d, config.lr_d)

        if not with_generator:
            records.append(IterationRecord(it, loss, ce, mean_ood, None, None))
            continue
        for _ in range(config.n_g):
            noise = sample_noise(config.noise_dim, config.batch_gen, rng)
            objective, g_grads = reference_generator_step(D, G, noise, config.beta_z, M)
            # Ascent: feed Adam the negated gradient.
            G, adam_g = reference_adam(G, -g_grads, adam_g, config.lr_g)
        records.append(IterationRecord(it, loss, ce, mean_ood, mean_gen, objective))

    return TrainHistory(tuple(records), D, G)


class TestWorkspaceMatchesReference:
    """The in-place trainer and steps against the allocating loop, bit for bit."""

    @pytest.mark.parametrize("method, with_generator",
                             [(train_see_ood, True), (train_wood, False)])
    @pytest.mark.parametrize("pool, settings", [
        (40, dict(n_d=2, n_g=1)),
        (40, dict(n_d=1, n_g=3)),
        (5, dict(batch_ood=32)),
        (40, dict(batch_ind=24, batch_gen=40)),
        # 63 noise values per batch; chunks of 2 (see_ood) and 10 (wood) iterations.
        (40, dict(batch_gen=21, generator_arch=(3, 16, 2), iterations=25,
                  chunk=1000)),
    ], ids=["d-heavy-mix", "g-heavy-mix", "ood-clamped", "batch-gen-differs",
            "multi-chunk-odd-noise"])
    @pytest.mark.parametrize("M", [M3, GRADED], ids=["binary", "graded"])
    def test_trainer(self, monkeypatch, method, with_generator, pool, settings, M):
        settings = dict(settings)
        if "chunk" in settings:
            monkeypatch.setattr(training, "DRAW_CHUNK_UNIFORMS", settings.pop("chunk"))
        cfg = TrainConfig(**{**dict(iterations=12, lr_d=1e-3, lr_g=1e-3, beta_z=0.5, seed=9),
                             **settings})
        data = small_dataset(seed=4, n_ood=pool)
        got_rng, want_rng = Rng(cfg.seed), Rng(cfg.seed)
        got = method(cfg, data, got_rng, M)
        want = reference_train(cfg, data, want_rng, M, with_generator)
        # A caller reusing its Rng after training sees the same next draw.
        assert got_rng.uniform(4).tobytes() == want_rng.uniform(4).tobytes()
        assert got.records == want.records
        assert got.discriminator.flat.tobytes() == want.discriminator.flat.tobytes()
        if with_generator:
            assert got.generator.flat.tobytes() == want.generator.flat.tobytes()
        else:
            assert got.generator is None

    @pytest.mark.parametrize("n_gen", [0, 5])
    def test_discriminator_step(self, n_gen):
        M = binary_cost_matrix(3)
        ind_x, ind_y, ood_x, gen_x = tiny_batches(11, n_ind=16, n_ood=4, n_gen=n_gen)
        D = init_mlp((2, 32, 3), Head.SOFTMAX, Rng(12))
        args = (3.0 * ind_x, ind_y, 3.0 * ood_x, 3.0 * gen_x, 1.3, 0.7, M)
        loss, parts, grads = discriminator_loss_and_grads(D, *args)
        targets = np.eye(3)[ind_y - 1]
        ref_loss, ref_parts, ref_grads = reference_discriminator_step(
            D, args[0], targets, *args[2:])
        assert (loss, parts) == (ref_loss, ref_parts)
        assert grads.tobytes() == ref_grads.tobytes()

    def test_generator_step(self):
        M = binary_cost_matrix(3)
        D = init_mlp((2, 32, 3), Head.SOFTMAX, Rng(13))
        G = init_mlp((2, 16, 2), Head.IDENTITY, Rng(14))
        noise = sample_noise(2, 9, Rng(15))
        objective, grads = generator_objective_and_grads(D, G, noise, 0.4, M)
        ref_objective, ref_grads = reference_generator_step(D, G, noise, 0.4, M)
        assert objective == ref_objective
        assert grads.tobytes() == ref_grads.tobytes()


def test_bound_steps_allocate_no_array_data():
    """After a warm-up step, bound D and G steps with Adam allocate no array data."""
    rng, M = Rng(16), binary_cost_matrix(3)
    D = init_mlp((2, 128, 3), Head.SOFTMAX, rng)
    G = init_mlp((2, 128, 2), Head.IDENTITY, rng)
    d_ws = training._LossWorkspace(D, 64, 32, 64)
    d_ws.x[:, :-1] = 3.0 * rng.standard_normal(2 * 160).reshape(160, 2)
    d_ws.targets[...] = np.eye(3)[rng.indices_below(3, 64)]
    d_step = training._discriminator_step(D, d_ws, 1.0, 0.5, M)
    d_state, g_state = init_adam(D), init_adam(G)
    d_adam = _adam(D.flat, d_ws.cache.grad, d_state.m, d_state.v, 1e-4)
    g_cache = _with_backward(G, _cache(G, 64))
    g_forward = _forward(G, g_cache)
    g_step = training._generator_step(D, G, g_cache, training._LossWorkspace(D, 0, 0, 64),
                                      0.5, M, ascend=True)
    g_adam = _adam(G.flat, g_cache.grad, g_state.m, g_state.v, 1e-4)
    noise = _with_ones(64, 2, fill=sample_noise(2, 64, rng))

    def steps(t):
        d_step()
        d_adam(t)
        g_forward(noise)
        g_step(noise)
        g_adam(t)

    steps(1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for t in range(2, 102):
            steps(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Less than one (64, 129) float64 array, the size of G's hidden layer.
    assert peak - base < 64 * 129 * 8


class TestBlockDraws:
    """`training._draws` against per-step `indices_below` and `sample_noise` calls."""

    @pytest.mark.parametrize("iterations, chunk", [(0, None), (7, None), (7, 600), (23, 600)])
    @pytest.mark.parametrize("n_d, n_g, noise_shape", [
        (2, 1, (21, 3)),
        (1, 3, (64, 2)),
        (1, 0, None),
    ], ids=["odd-noise", "g-heavy", "wood"])
    def test_matches_per_step_draws(self, monkeypatch, iterations, chunk, n_d, n_g,
                                    noise_shape):
        # With 600 uniforms a chunk holds 2, 1 and 20 iterations of these mixes.
        if chunk is not None:
            monkeypatch.setattr(training, "DRAW_CHUNK_UNIFORMS", chunk)
        batch_ind, n_ind, b_ood, n_ood_pool = 24, 3000, 5, 7
        got_rng, want_rng = Rng(3), Rng(3)
        draws = training._draws(got_rng, iterations, n_d, n_g, batch_ind, n_ind, b_ood,
                                n_ood_pool, noise_shape)
        seen = 0
        for ind_idx, ood_idx, noise in draws:
            for j in range(n_d):
                assert np.array_equal(ind_idx[j], want_rng.indices_below(n_ind, batch_ind))
                assert np.array_equal(ood_idx[j], want_rng.indices_below(n_ood_pool, b_ood))
                if noise_shape is not None:
                    want = sample_noise(noise_shape[1], noise_shape[0], want_rng)
                    assert np.array_equal(noise[j][:, :-1], want)
            for k in range(n_d, n_d + n_g):
                want = sample_noise(noise_shape[1], noise_shape[0], want_rng)
                assert np.array_equal(noise[k][:, :-1], want)
            assert (noise is None) == (noise_shape is None)
            # Each noise batch carries the ones column the kernels take.
            assert noise is None or (noise[..., -1] == 1.0).all()
            seen += 1
        assert seen == iterations
        assert got_rng.uniform(4).tobytes() == want_rng.uniform(4).tobytes()


class TestSampleGenerator:
    def test_empty(self):
        G = init_mlp((2, 4, 2), Head.IDENTITY, Rng(0))
        assert sample_generator(G, 0, Rng(1)).shape == (0, 2)

    def test_identity_generator_returns_noise(self):
        G = MlpParams((2, 2), np.column_stack([np.eye(2), np.zeros(2)]).ravel(),
                      Head.IDENTITY)
        out = sample_generator(G, 6, Rng(21))
        expected = sample_noise(2, 6, Rng(21))
        npt.assert_allclose(out, expected, rtol=1e-15)

    def test_deterministic(self):
        G = init_mlp((3, 5, 2), Head.IDENTITY, Rng(2))
        npt.assert_array_equal(sample_generator(G, 4, Rng(5)), sample_generator(G, 4, Rng(5)))


class TestHistoryCsv:
    def test_columns_and_empty_generator_cells(self, tmp_path):
        cfg = quick_config(lr_d=1e-3, iterations=3)
        history = train_wood(cfg, small_dataset(), Rng(cfg.seed), M3)
        path = tmp_path / "history.csv"
        write_history_csv(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,loss,ce,ood_score_mean,gen_score_mean,gen_objective"
        assert len(lines) == 4
        assert lines[1].endswith(",,")

    def test_round_numbers_survive(self, tmp_path):
        cfg = quick_config(iterations=3)
        history = train_see_ood(cfg, small_dataset(), Rng(cfg.seed), M3)
        path = tmp_path / "history.csv"
        write_history_csv(history, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        for rec, row in zip(history.records, rows):
            assert float(row[1]) == rec.loss
            assert float(row[5]) == rec.gen_objective
