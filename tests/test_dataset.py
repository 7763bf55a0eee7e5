"""Tests for dataset loading, formats, probe splits, and synthesis."""

import re
import sys
import tracemalloc

import numpy as np
import pytest

from transfercluster import dataset
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

    @pytest.mark.parametrize("with_labels", [False, True], ids=["no-labels", "labels"])
    def test_bytes_are_the_per_value_repr(self, tmp_path, with_labels):
        """Signed zero, the smallest subnormal, the largest double, a value
        with no short binary form and a large integer each print as
        ``repr(float(v))``."""
        values = np.array([[-0.0, 5e-324, 1.7976931348623157e308],
                           [0.1, 1e16, -0.0]])
        labels = np.array([3, 0]) if with_labels else None
        path = tmp_path / "f.csv"
        save_features(path, FeatureMatrix(values, ("a", "b")), labels=labels)
        lines = ["id,f0,f1,f2" + (",label" if with_labels else "")]
        for i, (row_id, row) in enumerate(zip("ab", values)):
            lines.append(",".join([row_id, *(repr(float(v)) for v in row)]
                                  + ([str(labels[i])] if with_labels else [])))
        expected = "\n".join(lines) + "\n"
        assert expected.splitlines()[1:] == [
            "a,-0.0,5e-324,1.7976931348623157e+308" + (",3" if with_labels else ""),
            "b,0.1,1e+16,-0.0" + (",0" if with_labels else ""),
        ]
        assert path.read_bytes() == expected.encode()

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

    @pytest.mark.parametrize("bad", ["a,x", "a\nx", "a\r", "\x0bx", "\x1e", "a\x85",
                                     "a\u2028x"])
    def test_id_that_would_split_its_record_rejected(self, tmp_path, bad):
        fm = FeatureMatrix(np.zeros((2, 1)), ("ok", bad))
        path = tmp_path / "f.csv"
        with pytest.raises(ParameterError, match=re.escape(repr(bad))):
            save_features(path, fm, "csv")
        assert not path.exists()

    def test_refused_id_characters_are_the_comma_and_line_breaks(self):
        breaks = {c for c in map(chr, range(0x3000)) if len(f"a{c}a".splitlines()) > 1}
        refused = {c for c in map(chr, range(0x3000)) if dataset._ID_BREAKS.search(c)}
        assert refused == breaks | {","}

    def test_legal_ids_round_trip(self, tmp_path):
        ids = ("", " ", "a b", "tab\there", "semi;colon", '"quoted"', "\u00fcml\u00e4ut")
        fm = FeatureMatrix(np.arange(7.0)[:, None], ids)
        path = tmp_path / "f.csv"
        save_features(path, fm, "csv")
        assert load_features(path, "csv").ids == ids

    def test_labels_above_u32_kept(self, tmp_path):
        fm = FeatureMatrix(np.zeros((2, 1)), ("a", "b"))
        path = tmp_path / "f.csv"
        save_features(path, fm, "csv", labels=[2**32, 1])
        np.testing.assert_array_equal(load_labeled(path, "csv").labels, [1, 0])

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    @pytest.mark.parametrize("label", [2**63, 2**64])
    def test_label_beyond_int64_rejected(self, tmp_path, fmt, label):
        fm = FeatureMatrix(np.zeros((2, 1)), ("a", "b"))
        path = tmp_path / "f"
        with pytest.raises(ParameterError, match=re.escape("labels must be non-negative and below 2**63")):
            save_features(path, fm, fmt, labels=[label, 1])
        assert not path.exists()

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    @pytest.mark.parametrize("labels", [[1.5, 2.0, 0.7], [True, False, True]],
                             ids=["float", "bool"])
    def test_non_integer_labels_rejected(self, tmp_path, fmt, labels):
        """A float or bool label would be written truncated or as 0/1."""
        fm = FeatureMatrix(np.zeros((3, 1)), ("a", "b", "c"))
        path = tmp_path / "f"
        with pytest.raises(ParameterError, match=re.escape("non-negative and below 2**63")):
            save_features(path, fm, fmt, labels=labels)
        assert not path.exists()

    def test_uint64_label_beyond_int64_rejected_for_its_range(self, tmp_path):
        """A uint64 array holds 2**63 exactly; the check refuses it by value."""
        fm = FeatureMatrix(np.zeros((2, 1)), ("a", "b"))
        path = tmp_path / "f.csv"
        with pytest.raises(ParameterError, match=re.escape("non-negative and below 2**63")):
            save_features(path, fm, "csv", labels=np.array([2**63, 1], dtype=np.uint64))
        assert not path.exists()
        save_features(path, fm, "csv", labels=np.array([2**63 - 1, 1], dtype=np.uint64))
        np.testing.assert_array_equal(load_labeled(path, "csv").labels, [1, 0])

    @pytest.mark.parametrize("label", ["-5", "-1", str(2**63), str(10**23)])
    def test_csv_label_outside_the_written_range_rejected(self, tmp_path, label):
        """save_features writes labels in 0..2**63 - 1 only, so the loader
        refuses the rest instead of remapping them."""
        path = tmp_path / "f.csv"
        path.write_text(f"id,f0,label\na,1.0,0\nb,2.0,{label}\n")
        message = f"{path}: line 3: label '{label}' is outside 0..2**63 - 1"
        with pytest.raises(DataError, match=re.escape(message)):
            load_labeled(path, "csv")

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

    def test_label_above_u32_rejected(self, tmp_path):
        """u32 storage would write 2**32 as 0 and swap the two classes."""
        fm = FeatureMatrix(np.zeros((2, 1)), ("a", "b"))
        path = tmp_path / "f.dtcf"
        with pytest.raises(ParameterError, match="at most 4294967295"):
            save_features(path, fm, "binary", labels=[2**32, 1])
        save_features(path, fm, "binary", labels=[2**32 - 1, 1])
        np.testing.assert_array_equal(load_labeled(path, "binary").labels, [1, 0])

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
        labeled = self._labeled(10)
        split = split_probes(labeled, n_probe=5, anchor_ratio=0.8, seed=3)
        assert len(split.anchor_classes) == 4
        assert len(split.validation_classes) == 1
        assert labeled.n_classes - len(split.probe_classes) == 5   # training classes

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
        labeled = self._labeled(9)
        for seed in range(20):
            split = split_probes(labeled, 4, 0.6, seed=seed)
            assert len(split.probe_classes) == 4
            assert split.probe_classes <= set(range(labeled.n_classes))
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
        assert split.probe_classes == set(range(labeled.n_classes))
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

    @pytest.mark.parametrize("separation", [0.0, float("nan"), float("inf")])
    def test_out_of_range_separation_rejected(self, separation):
        with pytest.raises(ParameterError, match="separation must be positive and finite"):
            synth_mixture(2, 2, 5, 3, separation, seed=0)


def test_probe_split_validates_disjointness():
    with pytest.raises(ParameterError):
        ProbeSplit(frozenset({1}), frozenset({1}))
