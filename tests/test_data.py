"""Random stream and Gaussian benchmark: determinism, moments, round trips."""

import numpy as np
import numpy.testing as npt
import pytest
from kernel_reference import reference_standard_normal

from oodlab.data import (
    Dataset,
    make_simulation_dataset,
    read_dataset_csv,
    sample_noise,
    subsample_ood,
    write_dataset_csv,
)
from oodlab.rng import Rng


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42)
        b = Rng(42)
        npt.assert_array_equal(a.uniform(100), b.uniform(100))
        npt.assert_array_equal(a.standard_normal(101), b.standard_normal(101))

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).uniform(10), Rng(2).uniform(10))

    def test_normal_moments(self):
        draws = Rng(7).standard_normal(10000)
        assert abs(draws.mean()) < 0.05
        assert abs(draws.std() - 1.0) < 0.05

    def test_odd_count_consumes_fixed_uniforms(self):
        # 2 * ceil(count / 2) uniforms per call, spare discarded.
        a = Rng(5)
        a.standard_normal(3)
        b = Rng(5)
        b.uniform(4)
        npt.assert_array_equal(a.uniform(5), b.uniform(5))

    @pytest.mark.parametrize("count", [1, 2, 3, 63, 128, 1001])
    def test_normals_match_reference_box_muller(self, count):
        a, b = Rng(13), Rng(13)
        assert a.standard_normal(count).tobytes() == reference_standard_normal(b, count).tobytes()
        assert a.uniform(3).tobytes() == b.uniform(3).tobytes()

    def test_uniform_into_buffer(self):
        out = np.empty((3, 4))
        assert Rng(9).uniform(12, out=out) is out
        assert out.ravel().tobytes() == Rng(9).uniform(12).tobytes()
        with pytest.raises(ValueError):
            Rng(9).uniform(11, out=out)

    def test_choose_without_replacement_is_subset(self):
        chosen = Rng(3).choose_without_replacement(10, 6)
        assert len(set(chosen.tolist())) == 6
        assert all(0 <= c < 10 for c in chosen)

    def test_choose_without_replacement_draws_floor_scaled_uniforms(self):
        # Fisher-Yates step i swaps in position i + floor(u * (n - i)), one uniform a step.
        rng = Rng(21)
        perm = list(range(12))
        for i, u in enumerate(rng.uniform(5)):
            j = i + int(u * (12 - i))
            perm[i], perm[j] = perm[j], perm[i]
        assert Rng(21).choose_without_replacement(12, 5).tolist() == perm[:5]

    def test_single_draw_subsampling_uniform(self):
        rng = Rng(11)
        counts = np.zeros(10)
        for _ in range(10000):
            counts[rng.choose_without_replacement(10, 1)[0]] += 1
        freqs = counts / 10000
        assert (np.abs(freqs - 0.1) <= 0.02).all()

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            Rng(0).choose_without_replacement(5, 6)
        with pytest.raises(ValueError):
            Rng(0).indices_below(0, 1)


class TestSimulationDataset:
    def test_shapes_and_counts(self):
        data = make_simulation_dataset(Rng(0))
        assert data.K == 3 and data.d == 2
        assert data.ind_train_x.shape == (3000, 2)
        assert data.ind_test_x.shape == (3000, 2)
        assert data.ood_train.shape == (1000, 2)
        assert data.ood_test.shape == (1000, 2)

    def test_label_counts(self):
        data = make_simulation_dataset(Rng(1))
        for label in (1, 2, 3):
            assert np.sum(data.ind_train_y == label) == 1000
            assert np.sum(data.ind_test_y == label) == 1000

    def test_cluster_locations(self):
        data = make_simulation_dataset(Rng(2))
        expected = {1: [4.0, 3.0], 2: [3.0, 5.0], 3: [3.0, 1.0]}
        for label, mean in expected.items():
            pts = data.ind_train_x[data.ind_train_y == label]
            npt.assert_allclose(pts.mean(axis=0), mean, atol=0.05)
            npt.assert_allclose(pts.std(axis=0), 0.3, atol=0.05)
        npt.assert_allclose(data.ood_train.mean(axis=0), [1.5, 6.0], atol=0.05)

    def test_deterministic(self):
        a = make_simulation_dataset(Rng(5))
        b = make_simulation_dataset(Rng(5))
        npt.assert_array_equal(a.ind_train_x, b.ind_train_x)
        npt.assert_array_equal(a.ood_test, b.ood_test)


class TestSubsample:
    def test_full_keep_is_permutation(self):
        data = make_simulation_dataset(Rng(3))
        sub = subsample_ood(data, 1000, Rng(4))
        assert sorted(map(tuple, sub.ood_train)) == sorted(map(tuple, data.ood_train))

    def test_keep_two(self):
        data = make_simulation_dataset(Rng(3))
        sub = subsample_ood(data, 2, Rng(4))
        assert sub.ood_train.shape == (2, 2)
        pool = set(map(tuple, data.ood_train))
        assert all(tuple(p) in pool for p in sub.ood_train)

    def test_keep_zero(self):
        data = make_simulation_dataset(Rng(3))
        assert subsample_ood(data, 0, Rng(4)).ood_train.shape == (0, 2)

    def test_other_splits_untouched(self):
        data = make_simulation_dataset(Rng(3))
        sub = subsample_ood(data, 5, Rng(4))
        npt.assert_array_equal(sub.ind_train_x, data.ind_train_x)
        npt.assert_array_equal(sub.ood_test, data.ood_test)

    def test_oversized_keep_rejected(self):
        data = make_simulation_dataset(Rng(3))
        with pytest.raises(ValueError):
            subsample_ood(data, 1001, Rng(4))


class TestNoise:
    def test_empty(self):
        assert sample_noise(3, 0, Rng(0)).shape == (0, 3)

    def test_moments(self):
        draws = sample_noise(2, 10000, Rng(77))
        npt.assert_allclose(draws.mean(axis=0), [0.0, 0.0], atol=0.05)
        npt.assert_allclose(draws.std(axis=0), [1.0, 1.0], atol=0.05)

    def test_deterministic(self):
        npt.assert_array_equal(sample_noise(4, 9, Rng(2)), sample_noise(4, 9, Rng(2)))


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        data = subsample_ood(make_simulation_dataset(Rng(8)), 7, Rng(9))
        path = tmp_path / "dataset.csv"
        write_dataset_csv(data, path)
        back = read_dataset_csv(path)
        assert back.d == data.d and back.K == data.K
        npt.assert_array_equal(back.ind_train_x, data.ind_train_x)
        npt.assert_array_equal(back.ind_train_y, data.ind_train_y)
        npt.assert_array_equal(back.ind_test_x, data.ind_test_x)
        npt.assert_array_equal(back.ood_train, data.ood_train)
        npt.assert_array_equal(back.ood_test, data.ood_test)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError):
            read_dataset_csv(path)

    def test_bad_split_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,label,split\n1,2,1,nope\n")
        with pytest.raises(ValueError):
            read_dataset_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_coordinate_names_file_and_line(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,x2,label,split\n1,2,1,ind_train\n1,{value},1,ind_train\n")
        with pytest.raises(ValueError, match="coordinates must be finite") as exc:
            read_dataset_csv(path)
        assert f"{path}:3:" in str(exc.value)

    @pytest.mark.parametrize("row, message", [
        ("1,2,one,ind_train", "invalid literal for int"),
        ("1,x,1,ind_train", "could not convert string to float"),
        ("1,2,0,ind_train", "ind_train labels must be >= 1, got 0"),
        ("1,2,-1,ind_test", "ind_test labels must be >= 1, got -1"),
        ("1,2,7,ood_train", "ood_train rows carry label -1, got 7"),
    ], ids=["text-label", "text-coordinate", "zero-label", "ood-label-on-ind", "ind-label-on-ood"])
    def test_unparseable_cell_names_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"x1,x2,label,split\n1,2,1,ind_train\n{row}\n")
        with pytest.raises(ValueError, match=message) as exc:
            read_dataset_csv(path)
        assert f"{path}:3:" in str(exc.value)


class TestDatasetInvariants:
    def test_label_range_enforced(self):
        with pytest.raises(ValueError):
            Dataset(
                ind_train_x=np.zeros((1, 2)),
                ind_train_y=np.array([4]),
                ind_test_x=np.zeros((0, 2)),
                ind_test_y=np.zeros(0, dtype=np.int64),
                ood_train=np.zeros((0, 2)),
                ood_test=np.zeros((0, 2)),
                d=2,
                K=3,
            )

    def test_dimension_enforced(self):
        with pytest.raises(ValueError):
            Dataset(
                ind_train_x=np.zeros((1, 3)),
                ind_train_y=np.array([1]),
                ind_test_x=np.zeros((0, 2)),
                ind_test_y=np.zeros(0, dtype=np.int64),
                ood_train=np.zeros((0, 2)),
                ood_test=np.zeros((0, 2)),
                d=2,
                K=3,
            )
