"""Network engine: forward, backprop vs finite differences, Adam, text I/O."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from kernel_reference import (
    finite_difference_gradient,
    reference_adam,
    reference_backward,
    reference_forward,
    reference_softmax,
    reference_write_csv,
)

from oodlab.nets import (
    Head,
    MlpParams,
    NumericError,
    _adam,
    _backward,
    _cache,
    _forward,
    _rows,
    _with_backward,
    _with_ones,
    adam_step,
    fmt_float,
    init_adam,
    init_mlp,
    mlp_backward,
    mlp_forward,
    params_from_text,
    params_to_text,
    softmax,
    write_csv,
)
from oodlab.rng import Rng


def linear_net(w, b, head=Head.IDENTITY):
    w = np.atleast_2d(np.asarray(w, dtype=float))
    b = np.asarray(b, dtype=float)
    return MlpParams((w.shape[1], w.shape[0]), np.column_stack([w, b]).ravel(), head)


def relative_error(analytic, numeric):
    """Per-entry comparison: relative where the scale allows, absolute below it."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        if abs(a) < 1e-8:
            assert abs(n - a) < 1e-7
        else:
            worst = max(worst, abs(n - a) / abs(a))
    return worst


class TestSoftmax:
    def test_symmetric_logits(self):
        npt.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_large_logits_stable(self):
        out = softmax([1000.0, 0.0])
        assert np.isfinite(out).all()
        npt.assert_allclose(out, [1.0, 0.0], atol=1e-300)

    def test_shift_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            z = rng.normal(size=5)
            c = rng.normal()
            npt.assert_allclose(softmax(z + c), softmax(z), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_logits_rejected(self, bad):
        for logits in ([0.0, bad, 1.0], [[0.0, 1.0], [bad, 2.0]]):
            with pytest.raises(ValueError, match="finite logits"):
                softmax(logits)

    def test_matches_reference_bitwise(self):
        z = 30.0 * Rng(3).standard_normal(60).reshape(20, 3)
        assert np.array_equal(softmax(z), reference_softmax(z))
        assert np.array_equal(softmax(z[4]), reference_softmax(z[4]))


class TestForward:
    def test_identity_network(self):
        net = linear_net(np.eye(2), np.zeros(2))
        out = mlp_forward(net, [[1.0, 2.0]])
        npt.assert_array_equal(out, [[1.0, 2.0]])

    def test_zero_logits_give_uniform(self):
        net = linear_net(np.zeros((3, 2)), np.zeros(3), head=Head.SOFTMAX)
        out = mlp_forward(net, [[4.2, -1.3]])
        npt.assert_allclose(out[0], np.full(3, 1 / 3), atol=1e-15)

    def test_random_nets_emit_probability_vectors(self):
        for seed in range(100):
            net = init_mlp((2, 16, 3), Head.SOFTMAX, Rng(seed))
            out = mlp_forward(net, Rng(seed + 1000).standard_normal(2).reshape(1, 2))
            assert abs(out.sum() - 1.0) < 1e-12
            assert (out > 0).all()

    def test_batched_matches_single(self):
        net = init_mlp((2, 8, 3), Head.SOFTMAX, Rng(3))
        x = Rng(4).standard_normal(10).reshape(5, 2)
        batch_out = mlp_forward(net, x)
        for i in range(5):
            single = mlp_forward(net, x[i:i + 1])
            # Batches of 5 and of 1 may use different BLAS kernels; agree
            # to floating-point noise, not necessarily bit-exactly.
            npt.assert_allclose(batch_out[i], single[0], rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("head", [Head.SOFTMAX, Head.IDENTITY])
    def test_forward_is_pure(self, head):
        """The pure wrappers give equal bits twice and never mutate an argument."""
        net = init_mlp((2, 8, 3), Head.SOFTMAX, Rng(5))
        x = np.array([[0.3, -0.7]])
        npt.assert_array_equal(mlp_forward(net, x), mlp_forward(net, x))

        # The backward kernel spends its pass.
        net = init_mlp((2, 8, 3), head, Rng(6))
        x = Rng(7).standard_normal(8).reshape(4, 2)
        up = Rng(8).standard_normal(12).reshape(4, 3)
        _, state = adam_step(net, np.ones_like(net.flat), init_adam(net), 0.1)
        grad = mlp_backward(net, x, up)
        arguments = [net.flat, x, up, grad, state.m, state.v]
        before = [arg.copy() for arg in arguments]
        for param_grad in (True, False):
            npt.assert_array_equal(mlp_backward(net, x, up, param_grad),
                                   mlp_backward(net, x, up, param_grad))
        a_params, a_state = adam_step(net, grad, state, 0.1)
        b_params, b_state = adam_step(net, grad, state, 0.1)
        npt.assert_array_equal(a_params.flat, b_params.flat)
        assert state.t == 1 and a_state.t == 2
        for arg, copy in zip(arguments, before):
            npt.assert_array_equal(arg, copy)

    def test_dimension_mismatch(self):
        net = init_mlp((2, 4, 3), Head.SOFTMAX, Rng(0))
        with pytest.raises(ValueError):
            mlp_forward(net, [[1.0, 2.0, 3.0]])

    def test_vector_input_rejected(self):
        net = init_mlp((2, 4, 3), Head.SOFTMAX, Rng(0))
        with pytest.raises(ValueError):
            mlp_forward(net, [1.0, 2.0])
        with pytest.raises(ValueError):
            mlp_backward(net, [1.0, 2.0], np.zeros((1, 3)))
        with pytest.raises(ValueError):
            mlp_backward(net, [[1.0, 2.0]], np.zeros(3))


class TestBackward:
    def test_zero_output_gradient(self):
        net = init_mlp((2, 8, 3), Head.IDENTITY, Rng(1))
        x = [[0.5, -0.2]]
        grads = mlp_backward(net, x, np.zeros((1, 3)))
        assert np.abs(grads).max() == 0.0
        dx = mlp_backward(net, x, np.zeros((1, 3)), param_grad=False)
        npt.assert_array_equal(dx, [[0.0, 0.0]])

    def test_single_linear_layer(self):
        w = np.array([[2.0, -3.0]])
        net = linear_net(w, [0.0])
        x = np.array([[0.7, 1.1]])
        grads = mlp_backward(net, x, np.array([[1.0]]))
        dx = mlp_backward(net, x, np.array([[1.0]]), param_grad=False)
        npt.assert_allclose(grads[:2], x[0])
        npt.assert_allclose(dx[0], w[0])

    def test_matches_finite_differences(self):
        direction = Rng(99).standard_normal(3)

        def scalar_loss(params):
            return float(direction @ mlp_forward(params, np.array([[0.37, -0.81]]))[0])

        net = init_mlp((2, 8, 3), Head.IDENTITY, Rng(11))
        analytic = mlp_backward(net, np.array([[0.37, -0.81]]), direction[None, :])
        numeric = finite_difference_gradient(scalar_loss, net, 1e-5)
        assert relative_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("head", [Head.SOFTMAX, Head.IDENTITY])
    @pytest.mark.parametrize("sizes", [(2, 3), (2, 16, 3), (4, 16, 2), (2, 8, 6, 3)])
    def test_input_gradient_matches_finite_differences(self, head, sizes):
        rng = Rng(23)
        net = init_mlp(sizes, head, rng)
        x = rng.standard_normal(4 * sizes[0]).reshape(4, sizes[0])
        direction = rng.standard_normal(4 * sizes[-1]).reshape(4, sizes[-1])

        def input_loss(points):
            cache = _cache(net, points.shape[0])
            out = _forward(net, cache)(_with_ones(*points.shape, fill=points))
            # A Softmax head takes its upstream gradient with respect to the logits.
            return float(np.sum(direction * (cache.logits if head is Head.SOFTMAX else out)))

        analytic = mlp_backward(net, x, direction, param_grad=False)
        assert analytic.shape == x.shape
        step = 1e-5
        numeric = np.zeros_like(x)
        for i in np.ndindex(x.shape):
            up, down = x.copy(), x.copy()
            up[i] += step
            down[i] -= step
            numeric[i] = (input_loss(up) - input_loss(down)) / (2.0 * step)
        assert relative_error(analytic.ravel(), numeric.ravel()) < 1e-4

    def test_wrong_input_width_rejected(self):
        net = init_mlp((2, 8, 3), Head.IDENTITY, Rng(1))
        with pytest.raises(ValueError, match="inputs"):
            mlp_backward(net, [[0.1, 0.2, 0.3]], np.zeros((1, 3)))
        with pytest.raises(ValueError, match="upstream"):
            mlp_backward(net, [[0.1, 0.2]], np.zeros((2, 3)))

    def test_gradient_correctness_over_random_nets(self):
        """20 seeded nets and batches: analytic vs central differences."""
        for seed in range(20):
            rng = Rng(seed)
            net = init_mlp((2, 6, 3), Head.IDENTITY, rng)
            batch = rng.standard_normal(8).reshape(4, 2)
            direction = rng.standard_normal(12).reshape(4, 3)

            def batch_loss(params):
                return float(np.sum(direction * mlp_forward(params, batch)))

            analytic = mlp_backward(net, batch, direction)
            numeric = finite_difference_gradient(batch_loss, net, 1e-5)
            assert relative_error(analytic, numeric) < 1e-4


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        net = init_mlp((2, 4, 2), Head.IDENTITY, Rng(0))
        state = init_adam(net)
        grads = mlp_backward(net, [[0.0, 0.0]], np.zeros((1, 2)))
        updated, new_state = adam_step(net, grads, state, 0.1)
        assert new_state.t == 1
        for old, new in zip(net.weights, updated.weights):
            npt.assert_array_equal(old, new)

    def test_hand_computed_first_step(self):
        # Fresh state, g = 1, lr = 0.1: corrected moments are exactly 1,
        # so the update is -0.1 / (1 + 1e-8).
        net = linear_net([[1.0]], [0.0])
        state = init_adam(net)
        grads = np.array([1.0, 0.0])
        updated, new_state = adam_step(net, grads, state, 0.1)
        expected = 1.0 - 0.1 / (1.0 + 1e-8)
        npt.assert_allclose(updated.weights[0][0, 0], expected, rtol=1e-15)
        assert new_state.t == 1

    @pytest.mark.parametrize("g", [2.5, -0.3])
    def test_moves_against_gradient_sign(self, g):
        net = linear_net([[0.7]], [0.0])
        state = init_adam(net)
        grads = np.array([g, 0.0])
        updated, _ = adam_step(net, grads, state, 0.05)
        delta = updated.weights[0][0, 0] - 0.7
        assert np.sign(delta) == -np.sign(g)

    def test_bitwise_deterministic(self):
        net = init_mlp((2, 5, 2), Head.IDENTITY, Rng(8))
        state = init_adam(net)
        grads = mlp_backward(net, [[0.4, 0.6]], np.array([[1.0, -2.0]]))
        a_params, a_state = adam_step(net, grads, state, 0.01)
        b_params, b_state = adam_step(net, grads, state, 0.01)
        for wa, wb in zip(a_params.weights, b_params.weights):
            npt.assert_array_equal(wa, wb)
        npt.assert_array_equal(a_state.m, b_state.m)

    def test_shape_mismatch_rejected(self):
        net = linear_net([[1.0]], [0.0])
        state = init_adam(net)
        bad = np.zeros(6)
        with pytest.raises(ValueError):
            adam_step(net, bad, state, 0.1)


def perturbed_net(sizes, head, seed):
    """A Glorot net plus noise, so biases are nonzero and ReLUs are mixed."""
    net = init_mlp(sizes, head, Rng(seed))
    return replace(net, flat=net.flat + 0.1 * Rng(seed + 1).standard_normal(net.flat.size))


class TestKernelsBitwise:
    """The in-place kernels and the pure wrappers against the reference bodies, bit for bit."""

    @pytest.mark.parametrize("param_grad", [True, False])
    @pytest.mark.parametrize("rows", [1, 2, 7, 64, 66, 130, 192])
    @pytest.mark.parametrize("head", [Head.SOFTMAX, Head.IDENTITY])
    # No hidden layer, D's and G's default shapes, and two or three hidden layers.
    @pytest.mark.parametrize("sizes", [(2, 3), (2, 128, 3), (2, 128, 2), (2, 8, 6, 3),
                                       (2, 16, 8, 3), (2, 5, 4, 2, 3)])
    def test_forward_and_backward(self, sizes, head, rows, param_grad):
        net = perturbed_net(sizes, head, rows)
        rng = Rng(100 + rows)
        n_in, k = sizes[0], sizes[-1]
        x = 3.0 * rng.standard_normal(n_in * rows).reshape(rows, n_in)
        up = rng.standard_normal(k * rows).reshape(rows, k)
        ref_out, ref_cache = reference_forward(net, x)
        ref = reference_backward(net, ref_cache, up, param_grad)

        cache = _with_backward(net, _cache(net, rows))
        batch = _with_ones(rows, n_in, fill=x)
        assert np.array_equal(_forward(net, cache)(batch), ref_out)
        for got, want in zip(cache.activations, ref_cache.activations):
            assert np.array_equal(got, want)
        if head is Head.SOFTMAX:
            assert np.array_equal(cache.logits, ref_cache.pre_activations[-1])
        cache.deltas[-1][...] = up
        if param_grad:
            _backward(net, cache)(batch)
            got = cache.grad
        else:
            wide = np.empty_like(batch)
            _backward(net, cache, dx=wide)(batch)
            got = wide[:, :-1]
        assert np.array_equal(got, ref)

        assert np.array_equal(mlp_forward(net, x), ref_out)
        assert np.array_equal(mlp_backward(net, x, up, param_grad), ref)

    @pytest.mark.parametrize("rows", [1, 2, 7, 64, 66, 130, 192])
    @pytest.mark.parametrize("sizes", [(4, 16, 2), (3, 5, 4, 2, 2)])
    def test_generator_pass_at_wider_noise(self, sizes, rows):
        """G's noise width is free; G's pass only ever takes the parameter gradient."""
        net = perturbed_net(sizes, Head.IDENTITY, rows)
        rng = Rng(200 + rows)
        x = rng.standard_normal(sizes[0] * rows).reshape(rows, sizes[0])
        up = rng.standard_normal(2 * rows).reshape(rows, 2)
        ref_out, ref_cache = reference_forward(net, x)
        ref = reference_backward(net, ref_cache, up)

        cache = _with_backward(net, _cache(net, rows))
        batch = _with_ones(rows, sizes[0], fill=x)
        assert np.array_equal(_forward(net, cache)(batch), ref_out)
        cache.deltas[-1][...] = up
        _backward(net, cache)(batch)
        assert np.array_equal(cache.grad, ref)
        assert np.array_equal(mlp_backward(net, x, up), ref)

    @pytest.mark.parametrize("rows", [1, 5, 64, 130, 256])
    @pytest.mark.parametrize("sizes", [(2, 128, 3), (3, 128, 3), (4, 128, 3), (4, 16, 2),
                                       (3, 16, 8, 3)])
    def test_input_gradient_at_every_width(self, sizes, rows):
        """Layer 0's input gradient keeps the reference's bits at input widths 2 to 4.

        Only the backward pass is compared: on a single row, layer 0's forward
        product can differ in the last bit at input width 3.
        """
        net = perturbed_net(sizes, Head.SOFTMAX, rows)
        rng = Rng(300 + rows)
        x = 3.0 * rng.standard_normal(sizes[0] * rows).reshape(rows, sizes[0])
        up = rng.standard_normal(sizes[-1] * rows).reshape(rows, sizes[-1])
        _, ref_cache = reference_forward(net, x)
        ref = reference_backward(net, ref_cache, up, param_grad=False)

        cache = _with_backward(net, _cache(net, rows))
        batch = _with_ones(rows, sizes[0], fill=x)
        _forward(net, cache)(batch)
        cache.deltas[-1][...] = up
        wide = np.empty_like(batch)
        _backward(net, cache, dx=wide)(batch)
        assert np.array_equal(wide[:, :-1], ref)
        assert np.array_equal(mlp_backward(net, x, up, param_grad=False), ref)

    def test_adam_over_several_steps(self):
        net = perturbed_net((2, 128, 3), Head.SOFTMAX, 4)
        ref_params, ref_state = net, init_adam(net)
        params, state = ref_params, ref_state
        flat, m, v = net.flat.copy(), np.zeros_like(net.flat), np.zeros_like(net.flat)
        grad = np.empty_like(flat)
        adam = _adam(flat, grad, m, v, 0.01)
        for t in range(1, 7):
            # Gradients of changing sign and scale, like the G step's, whose sign ascent flips.
            grad[...] = (-2.0) ** (t - 3) * Rng(t).standard_normal(flat.size)
            ref_params, ref_state = reference_adam(ref_params, grad, ref_state, 0.01)
            params, state = adam_step(params, grad, state, 0.01)
            adam(t)
            for got in ((flat, m, v), (params.flat, state.m, state.v)):
                for a, b in zip(got, (ref_params.flat, ref_state.m, ref_state.v)):
                    assert np.array_equal(a, b)
        assert state.t == ref_state.t == 6

    @pytest.mark.parametrize("sizes", [(2, 3), (2, 8, 6, 3)])
    @pytest.mark.parametrize("head", [Head.SOFTMAX, Head.IDENTITY])
    def test_bound_pass_tracks_in_place_updates(self, head, sizes):
        """A pass bound once sees each in-place Adam update of `flat`, as a fresh binding does."""
        net, rows = perturbed_net(sizes, head, 12), 7
        rng = Rng(31)
        x = 3.0 * rng.standard_normal(2 * rows).reshape(rows, 2)
        batch = _with_ones(rows, 2, fill=x)
        up = rng.standard_normal(3 * rows).reshape(rows, 3)
        grad = np.empty_like(net.flat)
        adam = _adam(net.flat, grad, np.zeros_like(grad), np.zeros_like(grad), 0.05)

        def bind():
            cache, dx = _with_backward(net, _cache(net, rows)), np.empty_like(batch)
            return (cache, _forward(net, cache), _backward(net, cache), dx,
                    _backward(net, cache, dx=dx))

        bound, before = bind(), net.flat.copy()
        for t in (1, 2):
            grad[...] = Rng(40 + t).standard_normal(grad.size)
            adam(t)
            ref_out, ref_cache = reference_forward(net, x)
            want = (ref_out, reference_backward(net, ref_cache, up),
                    reference_backward(net, ref_cache, up, param_grad=False))
            for cache, forward, backward, dx, backward_dx in (bound, bind()):
                got = [forward(batch).copy()]
                cache.deltas[-1][...] = up
                backward(batch)
                got.append(cache.grad.copy())
                forward(batch)
                cache.deltas[-1][...] = up
                backward_dx(batch)
                got.append(dx[:, :-1])
                for a, b in zip(got, want):
                    assert np.array_equal(a, b)
        assert not np.array_equal(net.flat, before)

    @pytest.mark.parametrize("batches", [2, 3, 4])
    def test_stacked_pass_matches_per_batch_passes(self, batches):
        """Stacked 64-row batches give each block the bits of its own pass, backward included."""
        for seed in range(10):
            net = perturbed_net((2, 128, 2), Head.IDENTITY, seed)
            rows = 64 * batches
            x = _with_ones(rows, 2, fill=Rng(50 + seed).standard_normal(2 * rows).reshape(rows, 2))
            stacked = _cache(net, rows)
            _forward(net, stacked)(x)
            for b in range(batches):
                block, own = slice(64 * b, 64 * (b + 1)), _with_backward(net, _cache(net, 64))
                _forward(net, own)(x[block])
                for got, want in zip(stacked.a, own.a):
                    assert np.array_equal(got[block], want)
            # The last block's backward pass through its rows of the stacked pass.
            up = Rng(80 + seed).standard_normal(128).reshape(64, 2)
            last = _with_backward(net, _rows(stacked, rows - 64, rows))
            last.deltas[-1][...] = own.deltas[-1][...] = up
            _backward(net, last)(x[rows - 64:])
            _backward(net, own)(x[rows - 64:])
            assert np.array_equal(last.grad, own.grad)

    def test_folded_gradient_at_1000_rows(self):
        """Past the batches training uses, BLAS blocks the bias column's row sum: not bitwise."""
        net = perturbed_net((2, 128, 128, 3), Head.SOFTMAX, 9)
        rng = Rng(10)
        x = 3.0 * rng.standard_normal(2000).reshape(1000, 2)
        up = rng.standard_normal(3000).reshape(1000, 3)
        _, ref_cache = reference_forward(net, x)
        npt.assert_allclose(mlp_backward(net, x, up),
                            reference_backward(net, ref_cache, up), rtol=1e-12)


class TestCacheLayout:
    """`ForwardCache`'s one layout rule, and reuse of one cache for pass after pass."""

    @pytest.mark.parametrize("sizes", [(2, 3), (2, 8, 6, 3)])
    @pytest.mark.parametrize("head", [Head.SOFTMAX, Head.IDENTITY])
    def test_layout_rule(self, head, sizes):
        net, rows = perturbed_net(sizes, head, 3), 5
        x = _with_ones(rows, 2, fill=Rng(4).standard_normal(2 * rows).reshape(rows, 2))
        cache = _with_backward(net, _cache(net, rows))
        _forward(net, cache)(x)
        cache.deltas[-1][...] = Rng(5).standard_normal(3 * rows).reshape(rows, 3)
        _backward(net, cache)(x)
        for arrays, narrow in ((cache.a, cache.activations), (cache.d, cache.deltas)):
            for x_l, v, width in zip(arrays, narrow, net.layer_sizes[1:]):
                assert v.shape == (rows, width) and np.shares_memory(v, x_l)
        softmax = head is Head.SOFTMAX
        for l, x_l in enumerate(cache.a):
            if softmax and l == len(cache.a) - 1:
                assert x_l.shape == (rows, 3)
            else:
                # The backward pass's derivatives keep the ones column.
                assert x_l.shape == (rows, net.layer_sizes[l + 1] + 1)
                assert (x_l[:, -1] == 1.0).all()
        assert (cache.logits is not None) == softmax
        if softmax:
            # Strided (rows, K) views make the softmax and logit-gradient ops slower.
            assert all(x.flags.c_contiguous for x in (cache.logits, cache.a[-1], cache.d[-1]))
        # A rows view keeps the rule.
        cut = _rows(cache, 1, 4)
        assert all(np.shares_memory(c, x_l) and c.shape[0] == 3 for c, x_l in zip(cut.a, cache.a))
        assert (cut.logits is not None) == softmax

    @pytest.mark.parametrize("sizes", [(2, 3), (2, 8, 6, 3)])
    @pytest.mark.parametrize("head", [Head.SOFTMAX, Head.IDENTITY])
    def test_reused_cache_matches_fresh_caches(self, head, sizes):
        """Forward and backward rounds on one kernel cache give the bits of fresh caches."""
        net, rows = perturbed_net(sizes, head, 6), 5
        cache = _with_backward(net, _cache(net, rows))
        for r, param_grad in enumerate((True, True, False)):
            rng = Rng(20 + r)
            x = _with_ones(rows, 2, fill=3.0 * rng.standard_normal(2 * rows).reshape(rows, 2))
            up = rng.standard_normal(3 * rows).reshape(rows, 3)
            results = []
            for c in (cache, _with_backward(net, _cache(net, rows))):
                out = _forward(net, c)(x).copy()
                logits = None if c.logits is None else c.logits.copy()
                c.deltas[-1][...] = up
                dx = None if param_grad else np.empty_like(x)
                _backward(net, c, dx)(x)
                results.append((out, logits, c.grad.copy() if param_grad else dx[:, :-1]))
            for got, want in zip(*results):
                assert np.array_equal(got, want)


class TestFiniteDifferences:
    def test_constant_loss(self):
        net = init_mlp((2, 3, 2), Head.IDENTITY, Rng(0))
        grads = finite_difference_gradient(lambda p: 4.2, net, 1e-5)
        assert np.abs(grads).max() == 0.0

    def test_quadratic_scalar(self):
        net = linear_net([[3.0]], [0.0])
        grads = finite_difference_gradient(lambda p: p.weights[0][0, 0] ** 2, net, 1e-5)
        npt.assert_allclose(grads[0], 6.0, rtol=1e-9)

    def test_nonfinite_loss_rejected(self):
        net = linear_net([[1.0]], [0.0])
        with pytest.raises(NumericError):
            finite_difference_gradient(lambda p: float("nan"), net, 1e-5)


class TestTextFormat:
    def test_round_trip_bit_exact(self):
        for seed in range(5):
            net = init_mlp((3, 7, 2), Head.SOFTMAX, Rng(seed))
            restored = params_from_text(params_to_text(net))
            assert restored.layer_sizes == net.layer_sizes
            assert restored.head is net.head
            for a, b in zip(net.weights + net.biases, restored.weights + restored.biases):
                npt.assert_array_equal(a, b)
            assert params_to_text(restored) == params_to_text(net)

    def test_flat_layout_is_blocks(self):
        """`flat` holds one row-major [W | b] block per layer; the text keeps its own order."""
        net = init_mlp((3, 7, 2), Head.SOFTMAX, Rng(6))
        net = replace(net, flat=net.flat + Rng(7).standard_normal(net.flat.size))
        (w0, w1), (b0, b1) = net.weights, net.biases
        npt.assert_array_equal(net.flat, np.concatenate([np.column_stack([w0, b0]).ravel(),
                                                         np.column_stack([w1, b1]).ravel()]))
        for block, w, b in zip(net.blocks, net.weights, net.biases):
            assert np.shares_memory(block, net.flat)
            npt.assert_array_equal(block, np.column_stack([w, b]))
        lines = params_to_text(net).splitlines()[1:]
        assert len(lines) == 4
        for line, part in zip(lines, [w0, b0, w1, b1]):
            npt.assert_array_equal([float(tok) for tok in line.split()], part.ravel())

    def test_views_share_memory_with_flat(self):
        net = init_mlp((3, 7, 2), Head.SOFTMAX, Rng(7))
        assert isinstance(net.weights, tuple) and isinstance(net.biases, tuple)
        for part in net.weights + net.biases:
            assert np.shares_memory(part, net.flat)

    def test_round_trip_preserves_flat_bitwise(self):
        net = init_mlp((2, 9, 4), Head.SOFTMAX, Rng(8))
        restored = params_from_text(params_to_text(net))
        assert restored.flat.dtype == np.float64
        assert restored.flat.tobytes() == net.flat.tobytes()

    def test_wrong_vector_length_rejected(self):
        with pytest.raises(ValueError, match="parameter vector"):
            MlpParams((2, 3), np.zeros(8), Head.SOFTMAX)

    def test_nonfinite_weight_rejected(self):
        text = "layers: 2 1; hidden: ReLU; head: Identity\n1 nan\n0.5\n"
        with pytest.raises(ValueError, match="non-finite"):
            params_from_text(text)

    def test_header_contents(self):
        net = init_mlp((2, 4, 3), Head.SOFTMAX, Rng(1))
        header = params_to_text(net).splitlines()[0]
        assert header == "layers: 2 4 3; hidden: ReLU; head: Softmax"

    @pytest.mark.parametrize("hidden", ["Sigmoid", "Tanh"])
    def test_malformed_header_rejected(self, hidden):
        with pytest.raises(ValueError, match="malformed parameter header"):
            params_from_text(f"layers: 2 3; hidden: {hidden}; head: Softmax\n"
                             "0 0 0 0 0 0\n0 0 0\n")

    @pytest.mark.parametrize("header", [
        "foo: 2 1; bar: ReLU; baz: Identity",
        "head: Identity; hidden: ReLU; layers: 2 1",
        "layers: 2 1; hidden: ReLU",
        "layers: 2 1; hidden: ReLU; head: Identity; extra: 1",
        "layers 2 1; hidden: ReLU; head: Identity",
    ], ids=["unknown-names", "reordered", "missing-field", "extra-field", "no-colon"])
    def test_header_field_names_checked(self, header):
        with pytest.raises(ValueError, match="malformed parameter header"):
            params_from_text(header + "\n1 2\n0.5\n")

    def test_wrong_line_count_rejected(self):
        net = linear_net([[1.0, 2.0]], [0.5])
        text = params_to_text(net)
        with pytest.raises(ValueError):
            params_from_text(text + "1 2 3\n")


# Cells where %.17g output has its edge cases: signs, zeros, the smallest
# subnormal, the step from fixed to exponent notation, and a repeating fraction.
SPECIAL_DOUBLES = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
                   1e16, 1e17, 1.0 / 3.0]


def random_doubles(count, seed):
    """Doubles from uniform random bit patterns: every exponent, NaNs and infinities included."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=count, dtype=np.uint64)
    return bits.view(np.float64)


class TestCsvWriter:
    def test_matches_reference_writer(self, tmp_path):
        header, cells = ["a", "b", "c"], np.array(SPECIAL_DOUBLES).reshape(3, 3)
        write_csv(tmp_path / "array.csv", header, cells)
        write_csv(tmp_path / "cells.csv", header, cells.tolist())
        reference_write_csv(tmp_path / "ref.csv", header, cells.tolist())
        data = (tmp_path / "array.csv").read_bytes()
        assert data == (tmp_path / "cells.csv").read_bytes()
        assert data == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0), (1, 1), (4, 1)])
    def test_array_path_degenerate_shapes(self, tmp_path, shape):
        cells = np.full(shape, 0.1)
        write_csv(tmp_path / "array.csv", ["x"], cells)
        reference_write_csv(tmp_path / "ref.csv", ["x"], cells.tolist())
        assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_fmt_float_matches_format_spec(self):
        for x in SPECIAL_DOUBLES + random_doubles(1000, 1).tolist():
            assert fmt_float(x) == format(x, ".17g")
