"""Threshold calibration, detector semantics, metrics, heatmaps, exports."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from kernel_reference import (
    reference_classification_accuracy,
    reference_write_heatmap_pgm,
)
from test_nets import perturbed_net

from oodlab.detection import (
    GridSpec,
    mad,
    read_heatmap,
    rejection_region_area,
    score_heatmap,
    scores_and_accuracy,
    select_threshold,
    tpr_at_tnr,
    write_heatmap,
    write_heatmap_pgm,
)
from oodlab.nets import Head, MlpParams, init_mlp
from oodlab.rng import Rng
from oodlab.wasserstein import (
    SCORE_BLOCK_ROWS,
    binary_cost_matrix,
    load_cost_matrix_csv,
    score_batch,
)


def sort_and_count_eta(scores, target):
    """Oracle: walk the sorted scores and take the first that admits enough."""
    ordered = sorted(scores)
    n = len(ordered)
    for candidate in ordered:
        if sum(1 for s in ordered if s <= candidate) / n >= target:
            return candidate
    return ordered[-1]


class TestSelectThreshold:
    def test_decile_scores(self):
        scores = [round(0.1 * i, 10) for i in range(1, 11)]
        eta = select_threshold(scores, 0.9)
        assert eta == pytest.approx(0.9)
        assert eta == pytest.approx(sort_and_count_eta(scores, 0.9))

    def test_target_one_takes_max(self):
        assert select_threshold([0.4, 0.9, 0.1], 1.0) == 0.9

    def test_all_equal_scores(self):
        assert select_threshold([0.3, 0.3, 0.3], 0.5) == 0.3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_threshold([], 0.95)

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            select_threshold([0.1], 0.0)

    @pytest.mark.parametrize("target", [0.9, 0.95, 0.99, 1.0])
    def test_soundness_and_minimality(self, target):
        rng = np.random.default_rng(round(target * 100))
        for _ in range(100):
            scores = rng.uniform(0, 0.7, size=rng.integers(1, 200))
            eta = select_threshold(scores, target)
            n = scores.size
            assert np.sum(scores <= eta) / n >= target
            smaller = scores[scores < eta]
            for candidate in np.unique(smaller):
                assert np.sum(scores <= candidate) / n < target


class TestTprAtTnr:
    def test_simple_counts(self):
        tpr, eta = tpr_at_tnr([0.1, 0.2], [0.5, 0.6], 1.0)
        assert eta == pytest.approx(0.2)
        assert tpr == 1.0

    def test_ties_count_as_ind(self):
        tpr, eta = tpr_at_tnr([0.5, 0.5], [0.5, 0.5], 1.0)
        assert eta == 0.5 and tpr == 0.0

    def test_separated_scores_always_perfect(self):
        ind = np.linspace(0.0, 0.2, 50)
        ood = np.linspace(0.3, 0.6, 50)
        for target in (0.8, 0.9, 0.95, 1.0):
            tpr, _ = tpr_at_tnr(ind, ood, target)
            assert tpr == 1.0

    def test_monotone_in_target(self):
        rng = np.random.default_rng(5)
        ind = rng.uniform(0, 0.5, 300)
        ood = rng.uniform(0.2, 0.7, 300)
        tprs = [tpr_at_tnr(ind, ood, t)[0] for t in (0.8, 0.9, 0.95, 0.99, 1.0)]
        assert all(a >= b for a, b in zip(tprs, tprs[1:]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tpr_at_tnr([], [0.2], 0.95)
        with pytest.raises(ValueError):
            tpr_at_tnr([0.2], [], 0.95)


def accuracy(net, points, labels):
    """The accuracy half of `scores_and_accuracy`, under the binary cost matrix."""
    return scores_and_accuracy(net, points, labels, binary_cost_matrix(net.output_dim))[1]


class TestAccuracy:
    def test_confident_correct_point(self):
        w = np.array([[5.0, 0.0], [0.0, 0.0], [-5.0, 0.0]])
        net = MlpParams((2, 3), np.column_stack([w, np.zeros(3)]).ravel(),
                        Head.SOFTMAX)
        assert accuracy(net, [[1.0, 0.0]], [1]) == 1.0

    def test_uniform_net_breaks_ties_to_first_class(self):
        net = MlpParams((2, 3), np.zeros(9), Head.SOFTMAX)
        labels = np.array([1, 2, 3, 1])
        acc = accuracy(net, np.zeros((4, 2)), labels)
        assert acc == np.mean(labels == 1)

    def test_bounds(self):
        net = init_mlp((2, 6, 3), Head.SOFTMAX, Rng(1))
        pts = Rng(2).standard_normal(20).reshape(10, 2)
        labels = Rng(3).indices_below(3, 10) + 1
        acc = accuracy(net, pts, labels)
        assert 0.0 <= acc <= 1.0

    def test_empty_rejected(self):
        net = init_mlp((2, 6, 3), Head.SOFTMAX, Rng(1))
        with pytest.raises(ValueError):
            accuracy(net, np.empty((0, 2)), np.empty(0))

    @pytest.mark.parametrize("rows", [10, SCORE_BLOCK_ROWS + 7])
    def test_one_pass_matches_scores_and_accuracy(self, rows):
        net = init_mlp((2, 16, 3), Head.SOFTMAX, Rng(4))
        pts = 2.0 * Rng(5).standard_normal(2 * rows).reshape(rows, 2)
        labels = Rng(6).indices_below(3, rows) + 1
        M = binary_cost_matrix(3)
        scores, acc = scores_and_accuracy(net, pts, labels, M)
        assert scores.tobytes() == score_batch(net, pts, M).tobytes()
        assert acc == reference_classification_accuracy(net, pts, labels)

    def test_one_pass_rejects_what_each_part_rejects(self):
        net = init_mlp((2, 6, 3), Head.SOFTMAX, Rng(1))
        M = binary_cost_matrix(3)
        with pytest.raises(ValueError, match="nonempty"):
            scores_and_accuracy(net, np.empty((0, 2)), np.empty(0), M)
        with pytest.raises(ValueError, match="expected \\(batch, 2\\)"):
            scores_and_accuracy(net, np.zeros((2, 3)), [1, 2], M)
        with pytest.raises(ValueError, match="M is 2x2"):
            scores_and_accuracy(net, np.zeros((2, 2)), [1, 2], binary_cost_matrix(2))


class TestMad:
    def test_hand_value(self):
        assert mad([1.0, 2.0, 3.0]) == pytest.approx(2 / 3)

    def test_single_value(self):
        assert mad([7.7]) == 0.0

    def test_constant_list(self):
        assert mad([0.4] * 9) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mad([])


def uniform_score_net(K=3):
    return MlpParams((2, K), np.zeros(3 * K), Head.SOFTMAX)


class TestHeatmap:
    def test_uniform_net_fills_max_score(self):
        grid = GridSpec(-1, 8, -1, 8, 10)
        hm = score_heatmap(uniform_score_net(), grid, binary_cost_matrix(3))
        npt.assert_allclose(hm, 2 / 3, atol=1e-15)
        assert hm.shape == (10, 10)

    def test_bounds(self):
        net = init_mlp((2, 8, 3), Head.SOFTMAX, Rng(4))
        hm = score_heatmap(net, GridSpec(-1, 8, -1, 8, 25), binary_cost_matrix(3))
        assert (hm >= 0).all() and (hm <= 2 / 3 + 1e-15).all()

    def test_resolution_one_samples_center(self):
        # Logit gap grows with x, so the score at the center is predictable.
        w = np.array([[1.0, 0.0], [-1.0, 0.0]])
        net = MlpParams((2, 2), np.column_stack([w, np.zeros(2)]).ravel(),
                        Head.SOFTMAX)
        grid = GridSpec(0.0, 2.0, -3.0, 5.0, 1)
        hm = score_heatmap(net, grid, binary_cost_matrix(2))
        from oodlab.nets import mlp_forward
        from oodlab.wasserstein import wasserstein_score
        out = mlp_forward(net, np.array([[1.0, 1.0]]))
        expected, _ = wasserstein_score(out[0], binary_cost_matrix(2))
        assert hm.shape == (1, 1)
        assert hm[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_orientation_rows_are_y_columns_are_x(self):
        # Score decreases as x grows (confidence rises with x), flat in y.
        w = np.array([[1.0, 0.0], [-1.0, 0.0]])
        net = MlpParams((2, 2), np.column_stack([w, np.zeros(2)]).ravel(),
                        Head.SOFTMAX)
        hm = score_heatmap(net, GridSpec(0, 4, 0, 4, 8), binary_cost_matrix(2))
        assert (np.diff(hm[0]) < 0).all()
        npt.assert_allclose(hm[:, 3], hm[0, 3], atol=1e-12)

    def test_requires_2d_input(self):
        net = init_mlp((3, 4, 2), Head.SOFTMAX, Rng(0))
        with pytest.raises(ValueError):
            score_heatmap(net, GridSpec(0, 1, 0, 1, 4), binary_cost_matrix(2))

    @pytest.mark.parametrize("grid", [GridSpec(-1, 8, -1, 8, 200), GridSpec(-2.5, 6.25, 0.1, 9, 37),
                                      GridSpec(0, 1, -3, 5, 1)], ids=["200", "37", "1"])
    def test_grid_matches_meshgrid_points(self, grid):
        net = perturbed_net((2, 128, 3), Head.SOFTMAX, 3)
        res = grid.resolution
        xs = grid.x_min + (np.arange(res) + 0.5) * ((grid.x_max - grid.x_min) / res)
        ys = grid.y_min + (np.arange(res) + 0.5) * ((grid.y_max - grid.y_min) / res)
        xx, yy = np.meshgrid(xs, ys)
        expected = score_batch(net, np.column_stack([xx.ravel(), yy.ravel()]),
                               binary_cost_matrix(3))
        hm = score_heatmap(net, grid, binary_cost_matrix(3))
        assert hm.tobytes() == expected.tobytes()


def traced_peak(run) -> int:
    """Bytes `run()` allocates at its peak under tracemalloc, after one untraced warm-up call."""
    run()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemoryBound:
    """Evaluation works in blocks and rows, so its peak does not grow with the whole grid."""

    def test_score_heatmap_peak(self):
        # One 200x200 grid is 0.64 MB of points and 0.33 MB of scores; a block's
        # hidden array is SCORE_BLOCK_ROWS x 129 floats.
        net = perturbed_net((2, 128, 3), Head.SOFTMAX, 7)
        grid, M = GridSpec(-1, 8, -1, 8, 200), binary_cost_matrix(3)
        assert traced_peak(lambda: score_heatmap(net, grid, M)) < 3_000_000

    def test_write_heatmap_peak(self, tmp_path):
        hm = Rng(9).uniform(40_000).reshape(200, 200) * (2 / 3)
        assert traced_peak(lambda: write_heatmap(hm, tmp_path / "hm.npy")) < 500_000

    def test_write_heatmap_pgm_peak(self, tmp_path):
        # One 320 KB float temporary for the gray levels, then 40 KB each of uint8 and bytes.
        hm = Rng(9).uniform(40_000).reshape(200, 200) * (2 / 3)
        assert traced_peak(lambda: write_heatmap_pgm(hm, 3, tmp_path / "hm.pgm")) < 500_000


class TestRejectionArea:
    def test_all_below(self):
        assert rejection_region_area(np.full((4, 4), 0.1), 0.5) == 0.0

    def test_all_above(self):
        assert rejection_region_area(np.full((4, 4), 0.6), 0.5) == 1.0

    def test_partial(self):
        hm = np.array([[0.1, 0.9], [0.9, 0.9]])
        assert rejection_region_area(hm, 0.5) == 0.75

    def test_boundary_cells_count_as_kept(self):
        hm = np.array([[0.5, 0.5], [0.5, 0.6]])
        assert rejection_region_area(hm, 0.5) == 0.25


class TestExports:
    def test_round_trip(self, tmp_path):
        hm = Rng(6).uniform(12).reshape(3, 4) * (2 / 3)
        path = tmp_path / "hm.npy"
        write_heatmap(hm, path)
        npt.assert_array_equal(read_heatmap(path, (3, 4)), hm)

    def test_round_trip_is_bitwise(self, tmp_path):
        hm = 4.0 * Rng(16).standard_normal(600).reshape(20, 30) ** 3
        path = tmp_path / "hm.npy"
        write_heatmap(hm, path)
        assert read_heatmap(path, (20, 30)).tobytes() == hm.tobytes()
        assert np.load(path, allow_pickle=False).tobytes() == hm.tobytes()

    def test_single_cell_stays_2d(self, tmp_path):
        path = tmp_path / "hm.npy"
        write_heatmap(np.array([[0.25]]), path)
        assert read_heatmap(path, (1, 1)).shape == (1, 1)

    # The cost matrix is the one CSV input of floats.
    @pytest.mark.parametrize("text", ["", "\r\n"], ids=["empty", "blank-line"])
    def test_csv_empty_rejected(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match="cost matrix file .*m.csv is empty"):
            load_cost_matrix_csv(path)

    def test_csv_ragged_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"0.1,0.2,0.3\r\n0.4,0.5\r\n")
        with pytest.raises(ValueError, match="cost matrix file .*m.csv: .*column"):
            load_cost_matrix_csv(path)

    def test_pgm_layout_and_mapping(self, tmp_path):
        top = 1.0 - 1.0 / 3.0
        # Gray levels 38.25, 141.525, 244.8 sit far from rounding boundaries.
        hm = np.array([[0.0, 0.1], [0.37, top]])
        path = tmp_path / "hm.pgm"
        write_heatmap_pgm(hm, 3, path)
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 38, 142, 255])

    def test_pgm_rounds_half_up(self, tmp_path):
        # top/2 maps to exactly 127.5, which half-up rounding takes to 128.
        top = 1.0 - 1.0 / 3.0
        path = tmp_path / "hm.pgm"
        write_heatmap_pgm(np.array([[top / 2.0]]), 3, path)
        assert path.read_bytes() == b"P5\n1 1\n255\n" + bytes([128])

    def test_pgm_scales_to_largest_cell_past_binary_range(self, tmp_path):
        """Scores past 1 - 1/K, which a graded cost matrix gives, do not clip to white."""
        hm = np.array([[0.0, 0.5], [0.9, 0.99]])
        path = tmp_path / "hm.pgm"
        write_heatmap_pgm(hm, 3, path)
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 129, 232, 255])

    def test_pgm_bit_exact_reproducible(self, tmp_path):
        hm = Rng(7).uniform(400).reshape(20, 20) * (2 / 3)
        a = tmp_path / "a.pgm"
        b = tmp_path / "b.pgm"
        write_heatmap_pgm(hm, 3, a)
        write_heatmap_pgm(hm, 3, b)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_nonfinite_cell_rejected_on_read(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"0.1,nan\r\n0.3,inf\r\n")
        with pytest.raises(ValueError, match="m.csv holds a non-finite cell"):
            load_cost_matrix_csv(path)


def write_pgm3(hm, path):
    write_heatmap_pgm(hm, 3, path)


class TestExportWriters:
    """The writers against ``numpy.save`` and the cell-by-cell PGM body, and their input checks."""

    # Square and non-square shapes, a single cell and the 200x200 preset grid.
    SHAPES = [(1, 1), (3, 15), (5, 16), (7, 17), (20, 20), (32, 32), (200, 200)]

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_npy_bytes_match_numpy_save(self, tmp_path, shape):
        """The file is ``numpy.save``'s, at the path as given: no suffix is added."""
        hm = Rng(shape[0] * 1000 + shape[1]).uniform(shape[0] * shape[1]).reshape(shape) * (2 / 3)
        write_heatmap(hm, tmp_path / "new")
        np.save(tmp_path / "ref.npy", hm, allow_pickle=False)
        assert (tmp_path / "new").read_bytes() == (tmp_path / "ref.npy").read_bytes()

    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
    def test_pgm_bytes_match_reference(self, tmp_path, shape):
        # Scores a little outside [0, 1 - 1/K]: the low end clips, the high end rescales.
        hm = Rng(shape[0] * 1000 + shape[1]).uniform(shape[0] * shape[1]).reshape(shape)
        hm = 0.8 * hm - 0.05
        write_heatmap_pgm(hm, 3, tmp_path / "new.pgm")
        reference_write_heatmap_pgm(hm, 3, tmp_path / "ref.pgm")
        assert (tmp_path / "new.pgm").read_bytes() == (tmp_path / "ref.pgm").read_bytes()

    @pytest.mark.parametrize("write", [write_heatmap, write_pgm3], ids=["npy", "pgm"])
    @pytest.mark.parametrize("hm", [np.full(4, 0.1), np.full((2, 2, 2), 0.1), np.empty((0, 3))],
                             ids=["1-D", "3-D", "empty"])
    def test_non_2d_heatmap_rejected(self, tmp_path, write, hm):
        path = tmp_path / "hm"
        with pytest.raises(ValueError, match="nonempty 2-D array"):
            write(hm, path)
        assert not path.exists()

    @pytest.mark.parametrize("write", [write_heatmap, write_pgm3], ids=["npy", "pgm"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_nonfinite_heatmap_rejected(self, tmp_path, write, bad):
        hm = np.full((3, 3), 0.1)
        hm[1, 2] = bad
        path = tmp_path / "hm"
        with pytest.raises(ValueError, match="finite"):
            write(hm, path)
        assert not path.exists()


class TestGridSpec:
    def test_extent_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0, 0, 0, 1, 10)

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0, 1, 0, 1, 0)
