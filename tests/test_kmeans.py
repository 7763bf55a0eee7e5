"""Tests for seeded k-means and the anchored variant."""

import sys

import numpy as np
import pytest

from transfercluster import distances
from transfercluster.dataset import synth_mixture
from transfercluster.errors import DataError, ParameterError
from transfercluster.kmeans import _lloyd, constrained_kmeans, kmeans

KMEANS = sys.modules["transfercluster.kmeans"]   # the package exports a kmeans function
from transfercluster.metrics import clustering_accuracy


def pins(n, anchor_rows, anchor_cluster):
    """A pin array for ``n`` rows: ``anchor_cluster`` at ``anchor_rows``, -1 elsewhere."""
    pinned = np.full(n, -1)
    pinned[anchor_rows] = anchor_cluster
    return pinned


class TestKmeans:
    def test_k_one_closed_form(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 3))
        result = kmeans(x, 1, seed=0)
        np.testing.assert_allclose(result.centers[0], x.mean(axis=0), atol=1e-9)
        expected = float(((x - x.mean(axis=0)) ** 2).sum())
        assert result.inertia == pytest.approx(expected, rel=1e-9)

    def test_k_equals_n(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 2))
        result = kmeans(x, 8, seed=3)
        assert result.inertia == pytest.approx(0.0, abs=1e-18)
        assert sorted(result.assignment.tolist()) == list(range(8))

    def test_recovers_separated_gaussians(self):
        """Three well-separated blobs are recovered in at least 9 of 10 seeds."""
        hits = 0
        for seed in range(10):
            _, unlabeled, truth = synth_mixture(1, 3, 60, 10, 8.0, seed=100 + seed)
            result = kmeans(unlabeled.values, 3, seed=seed)
            acc, _ = clustering_accuracy(truth, result.assignment)
            hits += acc == 1.0
        assert hits >= 9

    def test_inertia_history_nonincreasing(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(120, 4))
        result = kmeans(x, 5, seed=7)
        history = np.array(result.inertia_history)
        assert (np.diff(history) <= 1e-7).all()

    def test_bit_identical_given_seed(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 3))
        a = kmeans(x, 4, seed=11)
        b = kmeans(x, 4, seed=11)
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        assert a.inertia == b.inertia
        assert a.iterations == b.iterations

    def test_k_above_n_rejected(self):
        with pytest.raises(ParameterError):
            kmeans(np.zeros((3, 2)), 4, seed=0)

    def test_k_above_distinct_rows_rejected(self):
        """Two distinct positions cannot seed three clusters without
        leaving one empty."""
        x = np.array([[0.0, 0.0]] * 3 + [[5.0, 5.0]] * 3)
        with pytest.raises(ParameterError, match="only 2 distinct"):
            kmeans(x, 3, seed=0)

    def test_every_cluster_used_when_k_near_n(self):
        """Empty-cluster repair keeps all k clusters populated."""
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 2))
        result = kmeans(x, 15, seed=5)
        assert np.unique(result.assignment).size == 15


class TestConstrainedKmeans:
    def test_all_rows_anchored(self):
        rng = np.random.default_rng(5)
        x = np.vstack([rng.normal(size=(10, 2)), rng.normal(size=(10, 2)) + 6])
        result = constrained_kmeans(x, 2, np.repeat([0, 1], 10), seed=0)
        np.testing.assert_allclose(result.centers[0], x[:10].mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(result.centers[1], x[10:].mean(axis=0), atol=1e-12)
        assert result.iterations == 1
        sse = ((x[:10] - x[:10].mean(axis=0)) ** 2).sum() + \
              ((x[10:] - x[10:].mean(axis=0)) ** 2).sum()
        assert result.inertia == pytest.approx(float(sse), rel=1e-12)

    def test_no_anchors_reduces_to_plain_kmeans(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 3))
        plain = kmeans(x, 3, seed=9)
        constrained = constrained_kmeans(x, 3, np.full(40, -1), seed=9)
        np.testing.assert_array_equal(plain.centers, constrained.centers)
        np.testing.assert_array_equal(plain.assignment, constrained.assignment)
        assert plain.inertia == constrained.inertia

    def test_anchors_never_reassigned(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(50, 2))
        anchor_rows = np.array([0, 1, 2, 3, 48, 49])
        anchor_cluster = np.array([0, 0, 1, 1, 0, 1])
        result = constrained_kmeans(x, 4, pins(50, anchor_rows, anchor_cluster), seed=1)
        np.testing.assert_array_equal(result.assignment[anchor_rows], anchor_cluster)

    def test_free_clusters_recover_structure(self):
        """Anchored probe classes plus two free blobs: free blobs recovered."""
        labeled, unlabeled, truth = synth_mixture(2, 2, 50, 12, 8.0, seed=42)
        x = np.vstack([labeled.features.values, unlabeled.values])
        pinned = pins(x.shape[0], np.arange(100), labeled.labels)
        result = constrained_kmeans(x, 4, pinned, seed=2)
        acc, _ = clustering_accuracy(truth, result.assignment[100:])
        assert acc == 1.0

    def test_missing_anchor_cluster_rejected(self):
        with pytest.raises(DataError, match="anchor cluster 1"):
            constrained_kmeans(np.zeros((5, 2)), 3, [0, 2, -1, -1, -1], seed=0)

    def test_k_below_anchor_clusters_rejected(self):
        """A pinned id of k or more is outside the clusters."""
        with pytest.raises(ParameterError, match=r"-1\.\.1"):
            constrained_kmeans(np.random.default_rng(0).normal(size=(6, 2)), 2,
                               [0, 1, 2, -1, -1, -1], seed=0)

    def test_pin_below_minus_one_rejected(self):
        with pytest.raises(ParameterError, match=r"-1\.\.2"):
            constrained_kmeans(np.random.default_rng(0).normal(size=(6, 2)), 3,
                               [0, -2, -1, -1, -1, -1], seed=0)

    @pytest.mark.parametrize("pinned", [np.full(5, -1), np.full(7, -1), np.full((6, 1), -1)],
                             ids=["short", "long", "2-D"])
    def test_pin_array_of_wrong_shape_rejected(self, pinned):
        with pytest.raises(ParameterError, match=r"shape \(6,\)"):
            constrained_kmeans(np.random.default_rng(0).normal(size=(6, 2)), 2, pinned, seed=0)

    def test_pinned_rows_never_change_cluster_in_any_restart(self, monkeypatch):
        """Every restart of every seed, not only the kept one, returns each
        pinned row in its own cluster."""
        lloyd_results = []

        def recorded(*args):
            lloyd_results.append(_lloyd(*args))
            return lloyd_results[-1]

        monkeypatch.setattr(KMEANS, "_lloyd", recorded)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(60, 2))
        for seed in range(5):
            pinned = np.full(60, -1)
            rows = rng.choice(60, size=12, replace=False)
            pinned[rows] = np.arange(12) % 3
            lloyd_results.clear()
            result = constrained_kmeans(x, 6, pinned, seed=seed)
            assert len(lloyd_results) == KMEANS.N_INIT
            for fit in lloyd_results + [result]:
                np.testing.assert_array_equal(fit.assignment[rows], pinned[rows])

    def test_inertia_monotone_with_anchors(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(80, 3))
        result = constrained_kmeans(x, 5, pins(80, np.arange(10), np.repeat([0, 1], 5)), seed=4)
        assert (np.diff(np.array(result.inertia_history)) <= 1e-7).all()

    def test_empty_cluster_repair_keeps_anchors(self):
        """An empty free cluster is reseeded on a free row, never an anchor row.

        Through ``constrained_kmeans`` the repair is reached only when the
        free rows have too few distinct positions to fill every cluster,
        so Lloyd starts here from a hand-made start with one free center
        far from the data.  The anchor rows
        sit farther from their centers than any free row, so a repair
        that could pick them would park the cluster on an anchor row,
        where it stays empty.
        """
        x = np.array([[0, 0], [0, 12], [8, 0], [8, 12],
                      [4, 6], [4, 6], [4, 2], [4, 10]], dtype=float)
        anchor_rows, anchor_cluster = np.arange(4), np.array([0, 0, 1, 1])
        start = np.array([[0, 6], [8, 6], [4, 6], [4, 2], [40, 40]], dtype=float)
        result = _lloyd(x, np.einsum("nc,nc->n", x, x), start, anchor_rows,
                        anchor_cluster, np.arange(4, 8), 5)
        np.testing.assert_array_equal(result.assignment[anchor_rows], anchor_cluster)
        np.testing.assert_array_equal(np.bincount(result.assignment, minlength=5),
                                      [2, 2, 2, 1, 1])
        np.testing.assert_array_equal(result.centers[4], x[7])

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(30, 2))
        pinned = pins(30, [0, 5], [0, 1])
        a = constrained_kmeans(x, 3, pinned, seed=13)
        b = constrained_kmeans(x, 3, pinned, seed=13)
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.assignment, b.assignment)


def _pinned_argmin(x, centers, anchor_rows, anchor_cluster):
    labels = distances.expanded(x, centers, np.einsum("nc,nc->n", x, x)).argmin(axis=1)
    labels[anchor_rows] = anchor_cluster
    return labels


class TestFinalAssignment:
    """The returned assignment is the pinned argmin of the returned centers,
    whether the last pass is reused (shift 0) or recomputed."""

    def test_converged_run_reuses_its_last_pass(self, monkeypatch):
        _, unlabeled, _ = synth_mixture(1, 3, 40, 6, 8.0, seed=3)
        x = unlabeled.values
        anchor_rows, anchor_cluster = np.array([0, 1]), np.array([0, 0])
        calls = []

        def counted(*args):
            calls.append(1)
            return expanded(*args)

        expanded = distances.expanded
        monkeypatch.setattr(distances, "expanded", counted)
        result = _lloyd(x, np.einsum("nc,nc->n", x, x), x[[0, 50, 100]], anchor_rows,
                        anchor_cluster, np.arange(2, x.shape[0]), 3)
        monkeypatch.undo()
        # Converged with shift 0: one pass per iteration and no final one.
        assert result.iterations < KMEANS.MAX_ITER and len(calls) == result.iterations
        np.testing.assert_array_equal(
            result.assignment, _pinned_argmin(x, result.centers, anchor_rows, anchor_cluster))

    @pytest.mark.parametrize("tol", [KMEANS.TOL, np.inf], ids=["converged", "one-iteration"])
    def test_public_runs(self, monkeypatch, tol):
        """With an infinite tolerance every restart stops after one moving
        iteration, so the final pass is recomputed."""
        monkeypatch.setattr(KMEANS, "TOL", tol)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(90, 3))
        anchor_rows, anchor_cluster = np.arange(6), np.repeat([0, 1], 3)
        plain = kmeans(x, 4, seed=2)
        np.testing.assert_array_equal(
            plain.assignment, _pinned_argmin(x, plain.centers, [], []))
        anchored = constrained_kmeans(x, 5, pins(90, anchor_rows, anchor_cluster), seed=2)
        np.testing.assert_array_equal(
            anchored.assignment,
            _pinned_argmin(x, anchored.centers, anchor_rows, anchor_cluster))

    def test_run_through_empty_cluster_repair(self):
        x = np.array([[0, 0], [0, 12], [8, 0], [8, 12],
                      [4, 6], [4, 6], [4, 2], [4, 10]], dtype=float)
        anchor_rows, anchor_cluster = np.arange(4), np.array([0, 0, 1, 1])
        start = np.array([[0, 6], [8, 6], [4, 6], [4, 2], [40, 40]], dtype=float)
        result = _lloyd(x, np.einsum("nc,nc->n", x, x), start, anchor_rows,
                        anchor_cluster, np.arange(4, 8), 5)
        np.testing.assert_array_equal(result.centers[4], x[7])   # repaired
        np.testing.assert_array_equal(
            result.assignment, _pinned_argmin(x, result.centers, anchor_rows, anchor_cluster))
