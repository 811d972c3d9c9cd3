"""Scoring: closed forms vs enumeration, bounds, Lipschitz bound, cost matrices."""

import numpy as np
import numpy.testing as npt
import pytest
from kernel_reference import reference_score_rows
from test_nets import perturbed_net

import oodlab.wasserstein as wasserstein
from oodlab.nets import Head, MlpParams, init_mlp, mlp_forward
from oodlab.rng import Rng
from oodlab.wasserstein import (
    SCORE_BLOCK_ROWS,
    _score_rows,
    binary_cost_matrix,
    load_cost_matrix_csv,
    score_batch,
    validate_cost_matrix,
    validate_prob_vector,
    wasserstein_score,
)


def enumerate_min_cost(p, M):
    """Independent oracle: try every one-hot target explicitly."""
    best = None
    best_k = None
    for k in range(len(p)):
        cost = sum(p[j] * M[j][k] for j in range(len(p)))
        if best is None or cost < best:
            best, best_k = cost, k + 1
    return best, best_k


def random_prob_vectors(count, K, seed):
    rng = np.random.default_rng(seed)
    raw = rng.exponential(size=(count, K))
    return raw / raw.sum(axis=1, keepdims=True)


class TestCostMatrices:
    def test_binary_k2(self):
        npt.assert_array_equal(binary_cost_matrix(2), [[0, 1], [1, 0]])

    def test_binary_k3(self):
        M = binary_cost_matrix(3)
        npt.assert_array_equal(np.diag(M), np.zeros(3))
        assert (M + np.eye(3) == 1).all()

    @pytest.mark.parametrize("K", [2, 3, 7])
    def test_binary_satisfies_invariants(self, K):
        validate_cost_matrix(binary_cost_matrix(K))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            binary_cost_matrix(1)

    def test_csv_round(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,2.5\n1,0\n")
        npt.assert_array_equal(load_cost_matrix_csv(path), [[0, 2.5], [1, 0]])

    def test_csv_invalid_diagonal(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2\n1,0\n")
        with pytest.raises(ValueError):
            load_cost_matrix_csv(path)

    @pytest.mark.parametrize("text, message", [
        ("", "is empty"),
        ("\n\n", "is empty"),
        ("0,1,1\n1,0\n", "column"),
        ("0,x\n1,0\n", "convert"),
        ("# costs\n0,1\n1,0\n", "convert"),
        ("0,nan\n1,0\n", "non-finite"),
        ("0,1\n-inf,0\n", "non-finite"),
    ], ids=["empty", "blank", "ragged", "text", "comment", "nan", "-inf"])
    def test_csv_bad_file_names_file(self, tmp_path, text, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as exc:
            load_cost_matrix_csv(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_nonfinite_entry_rejected(self, bad):
        M = binary_cost_matrix(3)
        M[0, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            validate_cost_matrix(M)


class TestScore:
    def test_uniform_attains_maximum(self):
        score, _ = wasserstein_score(np.full(3, 1 / 3), binary_cost_matrix(3))
        assert score == pytest.approx(2 / 3, abs=1e-15)

    def test_one_hot_attains_minimum(self):
        score, k = wasserstein_score([1.0, 0.0, 0.0], binary_cost_matrix(3))
        assert score == 0.0 and k == 1

    def test_asymmetric_matrix(self):
        M = np.array([[0.0, 2.0], [1.0, 0.0]])
        score, k = wasserstein_score([0.2, 0.8], M)
        assert score == pytest.approx(0.4) and k == 2

    def test_closed_form_equals_one_minus_max(self):
        M = binary_cost_matrix(4)
        for p in random_prob_vectors(1000, 4, seed=12):
            score, _ = wasserstein_score(p, M)
            assert abs(score - (1.0 - p.max())) < 1e-12

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(34)
        M = rng.uniform(0.1, 3.0, size=(4, 4))
        np.fill_diagonal(M, 0.0)
        for p in random_prob_vectors(300, 4, seed=56):
            score, k = wasserstein_score(p, M)
            oracle_score, oracle_k = enumerate_min_cost(p, M)
            assert abs(score - oracle_score) < 1e-12
            assert k == oracle_k

    def test_score_bounds_and_extremes(self):
        K = 5
        M = binary_cost_matrix(K)
        top = 1.0 - 1.0 / K
        for p in random_prob_vectors(500, K, seed=78):
            score, _ = wasserstein_score(p, M)
            assert 0.0 <= score <= top
        assert wasserstein_score(np.eye(K)[2], M)[0] == 0.0
        assert wasserstein_score(np.full(K, 1 / K), M)[0] == pytest.approx(top, abs=1e-15)

    def test_lipschitz_in_euclidean_norm(self):
        M = binary_cost_matrix(4)
        us = random_prob_vectors(1000, 4, seed=90)
        vs = random_prob_vectors(1000, 4, seed=91)
        for u, v in zip(us, vs):
            su, _ = wasserstein_score(u, M)
            sv, _ = wasserstein_score(v, M)
            assert abs(su - sv) <= np.linalg.norm(u - v) + 1e-15

    def test_tie_breaks_to_smallest_index(self):
        score, k = wasserstein_score([0.5, 0.5], binary_cost_matrix(2))
        assert score == pytest.approx(0.5) and k == 1


class TestScoreBatch:
    def make_net(self, seed=0):
        return init_mlp((2, 8, 3), Head.SOFTMAX, Rng(seed))

    def test_empty_input(self):
        out = score_batch(self.make_net(), np.empty((0, 2)), binary_cost_matrix(3))
        assert out.shape == (0,)

    def test_zero_weight_net_scores_uniform(self):
        net = MlpParams((2, 3), np.zeros(9), Head.SOFTMAX)
        scores = score_batch(net, [[0.0, 0.0], [5.0, -2.0]], binary_cost_matrix(3))
        npt.assert_allclose(scores, 2 / 3, atol=1e-15)

    def test_scores_within_bounds(self):
        net = self.make_net(9)
        points = Rng(10).standard_normal(40).reshape(20, 2) * 3.0
        scores = score_batch(net, points, binary_cost_matrix(3))
        assert (scores >= 0).all() and (scores <= 2 / 3 + 1e-15).all()

    def test_order_preserved(self):
        net = self.make_net(2)
        pts = Rng(3).standard_normal(10).reshape(5, 2)
        batch = score_batch(net, pts, binary_cost_matrix(3))
        for i, p in enumerate(pts):
            out = mlp_forward(net, p[None, :])
            single, _ = wasserstein_score(out[0], binary_cost_matrix(3))
            assert abs(batch[i] - single) < 1e-12

    def test_identity_head_rejected(self):
        net = init_mlp((2, 4, 3), Head.IDENTITY, Rng(0))
        with pytest.raises(ValueError):
            score_batch(net, [[0.0, 0.0]], binary_cost_matrix(3))

    @pytest.mark.parametrize("rows", [SCORE_BLOCK_ROWS + 1, SCORE_BLOCK_ROWS + 7,
                                      2 * SCORE_BLOCK_ROWS + 1, 40_000])
    def test_blocked_scores_match_one_pass(self, rows):
        # 40 000 rows is a 200x200 heatmap grid; every size ends in a short block.
        M = binary_cost_matrix(3)
        for seed in range(4):
            net = perturbed_net((2, 128, 3), Head.SOFTMAX, 10 * seed)
            points = 4.0 * Rng(10 * seed + 2).standard_normal(2 * rows).reshape(rows, 2)
            probs = mlp_forward(net, points)
            assert np.array_equal(score_batch(net, points, M),
                                  reference_score_rows(probs, M)[0])

    @pytest.mark.parametrize("block_rows", [512, 1024, 4096])
    def test_block_sizes_score_the_grid_alike(self, monkeypatch, block_rows):
        # The range of block sizes SCORE_BLOCK_ROWS' comment promises scores
        # the 200x200 heatmap grid with the bits of one pass over all rows.
        monkeypatch.setattr(wasserstein, "SCORE_BLOCK_ROWS", block_rows)
        M = binary_cost_matrix(3)
        centers = -1.0 + (np.arange(200) + 0.5) * 9.0 / 200
        xx, yy = np.meshgrid(centers, centers)
        points = np.column_stack([xx.ravel(), yy.ravel()])
        for seed in range(3):
            net = perturbed_net((2, 128, 3), Head.SOFTMAX, 10 * seed + 5)
            probs = mlp_forward(net, points)
            assert np.array_equal(score_batch(net, points, M),
                                  reference_score_rows(probs, M)[0])

    def test_vector_input_rejected(self):
        with pytest.raises(ValueError, match="expected \\(batch, 2\\)"):
            score_batch(self.make_net(), [1.0, 2.0], binary_cost_matrix(3))


class TestScoreKernel:
    @pytest.mark.parametrize("M", [
        binary_cost_matrix(3),
        np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [2.0, 2.0, 0.0]]),
    ], ids=["binary", "asymmetric"])
    def test_matches_reference_on_ties(self, M):
        third = 1.0 / 3.0
        probs = np.array([
            [third, third, third],
            [0.5, 0.5, 0.0],
            [0.0, 0.5, 0.5],
            [0.4, 0.2, 0.4],
            [1.0, 0.0, 0.0],
            [0.25, 0.25, 0.5],
        ])
        probs = np.vstack([probs, Rng(17).uniform(30).reshape(10, 3)])
        probs /= probs.sum(axis=1, keepdims=True)
        costs, k_star, scores = np.empty((16, 3)), np.empty(16, dtype=np.intp), np.empty(16)
        _score_rows(probs, M, costs, k_star, scores)()
        want_scores, want_k = reference_score_rows(probs, M)
        assert scores.tobytes() == want_scores.tobytes()
        assert np.array_equal(k_star, want_k)
        # `wasserstein_score` runs the same kernel on one row.
        for p, want_score, k in zip(probs, want_scores, want_k):
            assert wasserstein_score(p, M) == (want_score, k + 1)


class TestValidation:
    def test_prob_vector_negative(self):
        with pytest.raises(ValueError):
            validate_prob_vector([-0.1, 1.1])

    def test_prob_vector_bad_sum(self):
        with pytest.raises(ValueError):
            validate_prob_vector([0.5, 0.6])

    def test_cost_matrix_not_square(self):
        with pytest.raises(ValueError):
            validate_cost_matrix(np.zeros((2, 3)))
