"""Tests for the category-count estimator and its sweep report."""

import numpy as np
import pytest

from transfercluster.dataset import (
    FeatureMatrix,
    LabeledSet,
    ProbeSplit,
    split_probes,
    synth_mixture,
)
from transfercluster.errors import ParameterError
from transfercluster.estimator import (
    UNDEFINED_CVI,
    EstimationReport,
    default_threads,
    estimate_class_count,
    sweep_report_to_csv,
)


def probe_setup(k_true=4, per_class=40, dim=12, sep=7.0, seed=0):
    """Probe classes plus unlabelled clusters, in raw feature space."""
    labeled, unlabeled, truth = synth_mixture(5, k_true, per_class, dim, sep, seed=seed)
    split = ProbeSplit(frozenset({0, 1, 2, 3}), frozenset({4}))
    return labeled, unlabeled, truth, split


def heavy_probe_setup(k_true, seed, per_probe=120, per_novel=40, dim=32, sep=6.0):
    """Probe classes outweighing the novel ones; the reliable sweep regime."""
    labeled, unlabeled, truth = synth_mixture(5, k_true, per_probe, dim, sep, seed=seed)
    rows = np.concatenate([np.nonzero(truth == c)[0][:per_novel] for c in range(k_true)])
    trimmed = FeatureMatrix(unlabeled.values[rows],
                            tuple(unlabeled.ids[i] for i in rows))
    split = ProbeSplit(frozenset({0, 1, 2, 3}), frozenset({4}))
    return labeled, trimmed, truth[rows], split


class TestEstimateClassCount:
    def test_recovers_well_separated_novel_count(self):
        hits = 0
        for seed in range(5):
            probe, unlabeled, _, split = heavy_probe_setup(4, seed)
            report = estimate_class_count(probe, unlabeled, split, k_max=10, seed=seed)
            hits += abs(report.k_final - 4) <= 1
        assert hits >= 4

    def test_sweep_covers_zero_to_k_max(self):
        probe, unlabeled, _, split = probe_setup(seed=1)
        report = estimate_class_count(probe, unlabeled, split, k_max=6, seed=1)
        assert [pt.k_candidate for pt in report.sweep] == list(range(7))
        for pt in report.sweep:
            assert 0.0 <= pt.probe_acc <= 1.0
            assert pt.cvi == UNDEFINED_CVI or -1.0 <= pt.cvi <= 1.0
        assert report.k_star_acc in range(7)
        assert report.k_star_cvi in range(7)

    def test_k_max_zero_single_point(self):
        probe, unlabeled, _, split = probe_setup(seed=2)
        report = estimate_class_count(probe, unlabeled, split, k_max=0, seed=2)
        assert len(report.sweep) == 1
        assert report.k_hat == 0
        # the K=0 candidate clusters with exactly the probe-class count
        assert report.final_assignment.max() < 5

    def test_large_k_max_protocol_shape(self):
        """Probe classes held out of a bigger labelled pool, K swept to 100."""
        labeled, unlabeled, truth = synth_mixture(10, 4, 30, 16, 7.0, seed=13)
        split = split_probes(labeled, n_probe=5, anchor_ratio=0.8, seed=13)
        report = estimate_class_count(labeled, unlabeled, split, k_max=100,
                                      seed=13)
        assert len(report.sweep) == 101
        assert 0 <= report.k_hat <= 100
        assert report.k_final <= report.n_non_anchor

    def test_tau_near_one_keeps_single_cluster(self):
        """With the threshold at the largest mass, only the dominant cluster survives."""
        probe, unlabeled, truth, split = probe_setup(seed=3)
        keep = np.nonzero((truth == 0) | ((truth > 0) & (np.arange(truth.size) % 5 == 0)))[0]
        dominated = FeatureMatrix(unlabeled.values[keep],
                                  tuple(unlabeled.ids[i] for i in keep))
        report = estimate_class_count(probe, dominated, split, k_max=8,
                                      tau=1.0 - 1e-9, seed=3)
        assert report.k_final == 1
        assert len(report.dropped_clusters) == report.n_non_anchor - 1

    def test_deterministic(self):
        probe, unlabeled, _, split = probe_setup(seed=4)
        a = estimate_class_count(probe, unlabeled, split, k_max=5, seed=9)
        b = estimate_class_count(probe, unlabeled, split, k_max=5, seed=9)
        assert a.k_final == b.k_final
        assert a.k_hat == b.k_hat
        assert [p.inertia for p in a.sweep] == [p.inertia for p in b.sweep]
        assert [p.cvi for p in a.sweep] == [p.cvi for p in b.sweep]
        np.testing.assert_array_equal(a.final_assignment, b.final_assignment)

    def test_scale_invariant_estimate(self):
        """Multiplying every feature by 10 leaves the final count unchanged."""
        probe, unlabeled, _, split = probe_setup(seed=5)
        base = estimate_class_count(probe, unlabeled, split, k_max=8, seed=5)
        scaled_probe = LabeledSet(
            FeatureMatrix(probe.features.values * 10.0, probe.features.ids),
            probe.labels,
        )
        scaled = estimate_class_count(scaled_probe, unlabeled.values * 10.0,
                                      split, k_max=8, seed=5)
        assert scaled.k_final == base.k_final

    def test_anchor_rows_keep_their_clusters(self):
        probe, unlabeled, _, split = probe_setup(seed=6)
        report = estimate_class_count(probe, unlabeled, split, k_max=4, seed=6)
        anchor_classes = sorted(split.anchor_classes)
        probe_rows = np.isin(probe.labels, sorted(split.probe_classes))
        probe_labels = probe.labels[probe_rows]
        assignment = report.final_assignment[: probe_labels.size]
        for j, c in enumerate(anchor_classes):
            assert (assignment[probe_labels == c] == j).all()

    def test_extra_training_classes_are_ignored(self):
        """Classes outside the probe split (here 3 and 4) take no part."""
        labeled, unlabeled, _, _ = probe_setup(seed=7)
        split = ProbeSplit(frozenset({0, 1}), frozenset({2}))
        report = estimate_class_count(labeled, unlabeled, split, k_max=4, seed=7)
        probe_rows = int(np.isin(labeled.labels, [0, 1, 2]).sum())
        assert report.final_assignment.size == probe_rows + unlabeled.n_rows

    def test_empty_validation_rejected(self):
        probe, unlabeled, _, _ = probe_setup(seed=8)
        lopsided = LabeledSet(probe.features, probe.labels)
        split = ProbeSplit(frozenset({0, 1, 2, 3}), frozenset({17}))
        with pytest.raises(ParameterError, match="validation"):
            estimate_class_count(lopsided, unlabeled, split, k_max=3, seed=8)

    def test_bad_tau_rejected(self):
        probe, unlabeled, _, split = probe_setup(seed=9)
        with pytest.raises(ParameterError):
            estimate_class_count(probe, unlabeled, split, k_max=3, tau=1.5, seed=9)

    def test_threads_do_not_change_result(self):
        probe, unlabeled, _, split = probe_setup(seed=10)
        serial = estimate_class_count(probe, unlabeled, split, k_max=5, seed=3)
        threaded = estimate_class_count(probe, unlabeled, split, k_max=5, seed=3,
                                        threads=4)
        assert serial.k_final == threaded.k_final
        assert [p.inertia for p in serial.sweep] == [p.inertia for p in threaded.sweep]
        assert sweep_report_to_csv(serial) == sweep_report_to_csv(threaded)
        np.testing.assert_array_equal(serial.final_assignment, threaded.final_assignment)


@pytest.mark.parametrize("value,threads", [(None, 1), ("", 1), ("1", 1), ("3", 3), ("08", 8)])
def test_default_threads_reads_a_positive_integer(monkeypatch, value, threads):
    if value is None:
        monkeypatch.delenv("DTC_THREADS", raising=False)
    else:
        monkeypatch.setenv("DTC_THREADS", value)
    assert default_threads() == threads


class TestSweepReportCsv:
    def test_header_and_rows(self):
        probe, unlabeled, _, split = probe_setup(seed=11)
        report = estimate_class_count(probe, unlabeled, split, k_max=3, seed=11)
        text = sweep_report_to_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == "K,probe_acc,cvi,inertia"
        assert len(lines) == 5

    def test_round_trip_precision(self):
        probe, unlabeled, _, split = probe_setup(seed=12)
        report = estimate_class_count(probe, unlabeled, split, k_max=4, seed=12)
        lines = sweep_report_to_csv(report).strip().split("\n")[1:]
        for pt, line in zip(report.sweep, lines):
            k, acc, cvi, inertia = line.split(",")
            assert int(k) == pt.k_candidate
            assert abs(float(acc) - pt.probe_acc) <= 1e-9
            assert abs(float(cvi) - pt.cvi) <= 1e-9
            assert abs(float(inertia) - pt.inertia) <= 1e-9

    def test_empty_sweep_is_header_only(self):
        report = EstimationReport(sweep=[], k_star_acc=0, k_star_cvi=0, k_hat=0,
                                  k_final=0, dropped_clusters=[], n_non_anchor=0)
        assert sweep_report_to_csv(report) == "K,probe_acc,cvi,inertia\n"
