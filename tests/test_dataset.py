"""Tests for dataset loading, formats, probe splits, and synthesis."""

import sys
import tracemalloc

import numpy as np
import pytest

from transfercluster.dataset import (
    FeatureMatrix,
    LabeledSet,
    ProbeSplit,
    load_features,
    load_labeled,
    save_features,
    split_probes,
    synth_mixture,
)
from transfercluster.errors import DataError, ParameterError


class TestFeatureMatrix:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError):
            FeatureMatrix(np.zeros((2, 1)), ("a", "a"))

    def test_non_finite_names_row(self):
        values = np.array([[1.0], [np.nan]])
        with pytest.raises(DataError, match="x2"):
            FeatureMatrix(values, ("x1", "x2"))


class TestCsvFormat:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,f0,f1\nr1,1.5,2.0\nr2,0.25,-1.0\nr3,3.0,4.0\n")
        fm = load_features(path, "csv")
        assert fm.n_rows == 3 and fm.dim == 2
        assert fm.ids == ("r1", "r2", "r3")
        np.testing.assert_array_equal(fm.values[1], [0.25, -1.0])

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,f0,f1\n")
        with pytest.raises(DataError, match="no rows"):
            load_features(path, "csv")

    def test_nan_token_cites_row(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,f0\na,1.0\nb,NaN\n")
        with pytest.raises(DataError, match="'b'"):
            load_features(path, "csv")

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,f0,f1\na,1.0,2.0\nb,1.0\n")
        with pytest.raises(DataError, match="line 3"):
            load_features(path, "csv")

    def test_bad_token_reports_line_and_token(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,f0,f1\na,1.0,2.0\n\nb,1.0,0x10\n")
        with pytest.raises(DataError, match="line 4: could not convert string to float: '0x10'"):
            load_features(path, "csv")

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,f0\na,1_0\n \nb,-2.5e-3\n\n")
        fm = load_features(path, "csv")
        assert fm.ids == ("a", "b")
        np.testing.assert_array_equal(fm.values, [[10.0], [-2.5e-3]])

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        fm = FeatureMatrix(rng.normal(size=(20, 5)), tuple(f"r{i}" for i in range(20)))
        path = tmp_path / "f.csv"
        save_features(path, fm, "csv")
        back = load_features(path, "csv")
        np.testing.assert_array_equal(back.values, fm.values)
        assert back.ids == fm.ids

    def test_labels_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        fm = FeatureMatrix(rng.normal(size=(6, 2)), tuple(f"r{i}" for i in range(6)))
        labels = np.array([0, 0, 1, 1, 2, 2])
        path = tmp_path / "f.csv"
        save_features(path, fm, "csv", labels=labels)
        back = load_labeled(path, "csv")
        np.testing.assert_array_equal(back.labels, labels)

    def test_load_peaks_within_text_lines_and_two_arrays(self, tmp_path):
        """Loading holds no Python float per value: the traced peak stays
        within the file's text, its line list and two (N, d) arrays."""
        n, d = 3000, 32
        rng = np.random.default_rng(3)
        path = tmp_path / "f.csv"
        save_features(path, FeatureMatrix(rng.normal(size=(n, d)),
                                          tuple(f"r{i}" for i in range(n))), "csv")
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        budget = (sys.getsizeof(text) + sys.getsizeof(lines)
                  + sum(sys.getsizeof(line) for line in lines) + 2 * n * d * 8)
        del text, lines
        tracemalloc.start()
        try:
            load_features(path, "csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget

    def test_sparse_label_values_get_compacted(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("id,f0,label\na,1.0,7\nb,2.0,7\nc,3.0,9\n")
        labeled = load_labeled(path, "csv")
        np.testing.assert_array_equal(labeled.labels, [0, 0, 1])


class TestBinaryFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        fm = FeatureMatrix(rng.normal(size=(11, 4)), tuple(str(i) for i in range(11)))
        labels = rng.integers(0, 3, size=11)
        path = tmp_path / "f.dtcf"
        save_features(path, fm, "binary", labels=np.sort(labels))
        back = load_labeled(path, "binary")
        np.testing.assert_array_equal(back.features.values, fm.values)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.dtcf"
        path.write_bytes(b"NOPE" + bytes(10))
        with pytest.raises(DataError, match="magic"):
            load_features(path, "binary")

    def test_truncated_payload(self, tmp_path):
        import struct

        path = tmp_path / "f.dtcf"
        path.write_bytes(struct.pack("<4sBIIB", b"DTCF", 1, 5, 2, 0) + bytes(8))
        with pytest.raises(DataError, match="expected"):
            load_features(path, "binary")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            load_features(tmp_path / "x", "parquet")


class TestSplitProbes:
    @staticmethod
    def _labeled(n_classes, per_class=3):
        rng = np.random.default_rng(5)
        n = n_classes * per_class
        features = FeatureMatrix(rng.normal(size=(n, 2)), tuple(str(i) for i in range(n)))
        return LabeledSet(features, np.repeat(np.arange(n_classes), per_class))

    def test_four_to_one_ratio(self):
        split = split_probes(self._labeled(10), n_probe=5, anchor_ratio=0.8, seed=3)
        assert len(split.anchor_classes) == 4
        assert len(split.validation_classes) == 1
        assert len(split.training_classes) == 5

    def test_minimum_sizes(self):
        split = split_probes(self._labeled(3), n_probe=2, anchor_ratio=0.5, seed=0)
        assert len(split.anchor_classes) == 1
        assert len(split.validation_classes) == 1

    def test_deterministic(self):
        a = split_probes(self._labeled(8), 4, 0.75, seed=42)
        b = split_probes(self._labeled(8), 4, 0.75, seed=42)
        assert a == b
        c = split_probes(self._labeled(8), 4, 0.75, seed=43)
        assert a != c or a.probe_classes == c.probe_classes

    def test_partition_is_exact(self):
        for seed in range(20):
            split = split_probes(self._labeled(9), 4, 0.6, seed=seed)
            union = split.anchor_classes | split.validation_classes | split.training_classes
            assert union == set(range(9))
            assert not split.anchor_classes & split.validation_classes

    def test_probe_count_bounds(self):
        labeled = self._labeled(5)
        with pytest.raises(ParameterError):
            split_probes(labeled, 5, 0.8, 0)
        with pytest.raises(ParameterError):
            split_probes(labeled, 1, 0.8, 0)

    @pytest.mark.parametrize("n_classes,ratio,n_anchor",
                             [(2, 0.8, 1), (3, 0.01, 1), (4, 0.5, 2), (5, 0.8, 4),
                              (10, 0.05, 1), (10, 0.99, 9)])
    def test_none_makes_every_class_a_probe(self, n_classes, ratio, n_anchor):
        labeled = self._labeled(n_classes)
        split = split_probes(labeled, None, ratio, seed=7)
        assert split.probe_classes == set(range(n_classes))
        assert split.training_classes == frozenset()
        assert len(split.anchor_classes) == n_anchor
        assert split_probes(labeled, None, ratio, seed=7) == split

    def test_none_needs_two_classes(self):
        with pytest.raises(ParameterError):
            split_probes(self._labeled(1), None, 0.8, 0)


class TestSynthMixture:
    def test_sizes(self):
        labeled, unlabeled, truth = synth_mixture(5, 5, 100, 20, 6.0, seed=1)
        assert labeled.features.n_rows == 500
        assert unlabeled.n_rows == 500
        assert truth.shape == (500,)
        assert labeled.n_classes == 5

    def test_degenerate_two_clusters(self):
        labeled, unlabeled, truth = synth_mixture(1, 1, 10, 2, 3.0, seed=2)
        assert labeled.features.n_rows == 10
        assert unlabeled.n_rows == 10
        gap = np.linalg.norm(
            labeled.features.values.mean(axis=0) - unlabeled.values.mean(axis=0)
        )
        assert gap >= 2.0

    def test_bit_identical_given_seed(self):
        a = synth_mixture(3, 2, 10, 4, 5.0, seed=9)
        b = synth_mixture(3, 2, 10, 4, 5.0, seed=9)
        np.testing.assert_array_equal(a[0].features.values, b[0].features.values)
        np.testing.assert_array_equal(a[1].values, b[1].values)
        np.testing.assert_array_equal(a[2], b[2])

    def test_nearest_mean_oracle_accuracy(self):
        """At separation 6 a nearest-class-mean rule is essentially perfect."""
        _, unlabeled, truth = synth_mixture(5, 5, 100, 20, 6.0, seed=7)
        means = np.stack([unlabeled.values[truth == c].mean(axis=0) for c in range(5)])
        d = ((unlabeled.values[:, None, :] - means[None]) ** 2).sum(axis=2)
        predicted = d.argmin(axis=1)
        assert (predicted == truth).mean() >= 0.99

    def test_mean_separation_enforced(self):
        labeled, unlabeled, truth = synth_mixture(4, 3, 30, 10, 4.0, seed=3)
        means = [labeled.features.values[labeled.labels == c].mean(axis=0) for c in range(4)]
        means += [unlabeled.values[truth == c].mean(axis=0) for c in range(3)]
        means = np.stack(means)
        for i in range(7):
            for j in range(i + 1, 7):
                # empirical means wander ~sigma/sqrt(30) from the true ones
                assert np.linalg.norm(means[i] - means[j]) > 4.0 - 1.0

    def test_infeasible_separation_errors(self):
        with pytest.raises(ParameterError, match="separation"):
            synth_mixture(40, 40, 2, 1, 50.0, seed=0)


def test_probe_split_validates_disjointness():
    with pytest.raises(ParameterError):
        ProbeSplit(frozenset({1}), frozenset({1}), frozenset())
