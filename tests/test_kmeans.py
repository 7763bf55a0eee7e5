"""Tests for seeded k-means and the anchored variant."""

import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transfercluster import distances
from transfercluster.dataset import synth_mixture
from transfercluster.errors import DataError, NumericalError, ParameterError
from transfercluster.kmeans import (
    KmeansResult, _add_moves, _exact_inertia, _FreeRows, _grid_exponents, _label_pass, _lloyd,
    _plusplus_init, constrained_kmeans, kmeans,
)
from transfercluster.seeding import rng_for

KMEANS = sys.modules["transfercluster.kmeans"]   # the package exports a kmeans function
NO_PINS = np.array([], dtype=np.int64)
from transfercluster.metrics import clustering_accuracy


def record_lloyd(monkeypatch):
    """Wrap ``kmeans._lloyd``; each call appends ``(args, results)`` to the
    returned list, with a copy of the start centers in ``args``."""
    calls = []

    def recorded(x, x_sq, starts, *rest):
        args = (x, x_sq, starts.copy(), *rest)
        calls.append((args, list(_lloyd(x, x_sq, starts, *rest))))
        return iter(calls[-1][1])

    monkeypatch.setattr(KMEANS, "_lloyd", recorded)
    return calls


def lloyd_inertias(monkeypatch, fit):
    """Final inertia of ``fit``'s first restart when capped at 1..29 Lloyd
    iterations, each time from the same start centers."""
    calls = record_lloyd(monkeypatch)
    fit()
    x, x_sq, starts, *rest = calls[0][0]
    inertias = []
    for cap in range(1, 30):
        monkeypatch.setattr(KMEANS, "MAX_ITER", cap)
        inertias.append(next(_lloyd(x, x_sq, starts[:1].copy(), *rest)).inertia)
    return np.array(inertias)


def sequential_labels(x, centers, anchor_rows, anchor_cluster):
    """Each row's nearest center by ``|mu|^2 - 2 x.mu``; pinned rows keep theirs."""
    scores = x @ (-2.0 * centers).T
    scores += np.einsum("kc,kc->k", centers, centers)
    labels = scores.argmin(axis=1)
    labels[anchor_rows] = anchor_cluster
    return labels


def sequential_lloyd(x, x_sq, centers, anchor_rows, anchor_cluster, free_idx, k):
    """Oracle: one restart's Lloyd iterations run on their own, with a
    label product over every row per pass and every cluster's grid sum
    formed anew per pass as one one-hot product over every row.  The grid
    and its mean and exponents are :class:`_FreeRows`'; the sums are exact,
    so the lockstep loop's updates from the rows that moved must match."""
    n = x.shape[0]
    rows = np.arange(n)
    free = _FreeRows(x, free_idx, anchor_rows)
    grid = free.to_grid(x - free.mean)
    onehot = np.zeros((n, k))
    for iterations in range(1, KMEANS.MAX_ITER + 1):
        labels = sequential_labels(x, centers, anchor_rows, anchor_cluster)

        counts = np.bincount(labels, minlength=k)
        onehot[rows, labels] = 1.0
        sums = onehot.T @ grid
        onehot[rows, labels] = 0.0
        means = np.ldexp(sums / np.maximum(counts, 1)[:, None], -free.exps) + free.mean
        new_centers = np.where(counts[:, None] > 0, means, centers)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            d2 = distances.expanded(x, centers, x_sq)
            repaired = np.zeros(n, dtype=bool)
        for j in empty:
            candidates = free_idx[~repaired[free_idx]]
            if candidates.size == 0:
                raise ParameterError("not enough free rows to repair empty clusters")
            pick = candidates[np.argmax(d2[candidates, labels[candidates]])]
            new_centers[j] = x[pick]
            repaired[pick] = True
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        if shift < KMEANS.TOL:
            break
    if shift != 0.0:
        labels = sequential_labels(x, centers, anchor_rows, anchor_cluster)
    return KmeansResult(centers, labels, _exact_inertia(x, centers, labels), iterations)


def sequential_plusplus_init(x, x_sq, n_new, rng, existing, probabilities=None):
    """Oracle: one restart's k-means++ seeding drawn on its own, each draw
    through ``rng.choice`` and each D^2 update through one single-center
    :func:`distances.expanded` call.  Each draw's ``p`` is appended to
    ``probabilities`` when given."""
    n = x.shape[0]
    chosen = np.empty((n_new, x.shape[1]))
    d2 = distances.expanded(x, existing, x_sq).min(axis=1) if len(existing) else np.full(n, np.inf)
    for j in range(n_new):
        if j == 0 and not len(existing):
            idx = int(rng.integers(n))
        else:
            total = d2.sum()
            if total == 0:
                raise ParameterError(
                    f"{n_new} free clusters but only {j} distinct free positions "
                    "off the anchor centers"
                )
            p = d2 / total
            if probabilities is not None:
                probabilities.append(p)
            idx = int(rng.choice(n, p=p))
        chosen[j] = x[idx]
        d2 = np.minimum(d2, distances.expanded(x, chosen[j : j + 1], x_sq)[:, 0])
    return chosen


def assert_fits_equal(a, b):
    np.testing.assert_array_equal(a.centers, b.centers)
    np.testing.assert_array_equal(a.assignment, b.assignment)
    assert a.inertia == b.inertia
    assert a.iterations == b.iterations


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so each call appends 1 to the returned list."""
    calls, original = [], getattr(module, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


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

    def test_inertia_history_nonincreasing(self, monkeypatch):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(120, 4))
        history = lloyd_inertias(monkeypatch, lambda: kmeans(x, 5, seed=7))
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

    @pytest.mark.parametrize("k", [2.5, 3.0, True, "3"])
    def test_non_integer_k_rejected(self, k):
        x = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(ParameterError, match="k must be an integer"):
            kmeans(x, k, seed=0)
        with pytest.raises(ParameterError, match="k must be an integer"):
            constrained_kmeans(x, k, np.full(10, -1), seed=0)

    def test_numpy_integer_k_accepted(self):
        x = np.random.default_rng(0).normal(size=(10, 2))
        assert_fits_equal(kmeans(x, np.int64(3), seed=0), kmeans(x, 3, seed=0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("anchored", [False, True], ids=["no-pins", "anchors"])
    def test_non_finite_data_rejected(self, bad, k, anchored):
        """Before this check, k = 1 returned NaN centers and inertia, and
        k >= 2 raised numpy's own error from the seeding draw."""
        x = np.random.default_rng(0).normal(size=(12, 2))
        x[7, 1] = bad
        pinned = np.full(12, -1)
        if anchored:
            pinned[:2] = 0
        with pytest.raises(DataError, match="finite"):
            constrained_kmeans(x, k, pinned, seed=0)

    @pytest.mark.parametrize("anchored", [False, True], ids=["no-pins", "anchors"])
    def test_overflowing_seeding_distances_raise(self, anchored):
        """Finite rows near 1e160 overflow |x|^2, so no D^2 draw exists."""
        x = np.random.default_rng(1).normal(size=(12, 3)) * 1e160
        pinned = np.full(12, -1)
        if anchored:
            pinned[:2] = 0
        with pytest.raises(NumericalError, match="overflow"), \
                np.errstate(over="ignore", invalid="ignore"):
            constrained_kmeans(x, 3, pinned, seed=0)

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

    @pytest.mark.parametrize("bad", [-0.5, 1.9])
    def test_non_integer_pin_rejected(self, bad):
        """Truncation would pin the row to cluster int(bad) instead."""
        with pytest.raises(ParameterError, match="integers"):
            constrained_kmeans(np.random.default_rng(0).normal(size=(6, 2)), 3,
                               [0, 1, bad, -1, -1, -1], seed=0)

    def test_bool_pins_rejected(self):
        """False would read as cluster 0 and pin every row."""
        x = np.random.default_rng(0).normal(size=(6, 2))
        with pytest.raises(ParameterError, match="not booleans"):
            constrained_kmeans(x, 2, np.array([True, False, False, True, False, False]))

    def test_integer_valued_float_pins_accepted(self):
        x = np.random.default_rng(0).normal(size=(6, 2))
        as_float = constrained_kmeans(x, 3, np.array([0.0, 1.0, 2.0, -1.0, -1.0, -1.0]), seed=0)
        as_int = constrained_kmeans(x, 3, np.array([0, 1, 2, -1, -1, -1]), seed=0)
        assert_fits_equal(as_float, as_int)

    @pytest.mark.parametrize("pinned", [np.full(5, -1), np.full(7, -1), np.full((6, 1), -1)],
                             ids=["short", "long", "2-D"])
    def test_pin_array_of_wrong_shape_rejected(self, pinned):
        with pytest.raises(ParameterError, match=r"shape \(6,\)"):
            constrained_kmeans(np.random.default_rng(0).normal(size=(6, 2)), 2, pinned, seed=0)

    def test_pinned_rows_never_change_cluster_in_any_restart(self, monkeypatch):
        """Every restart of every seed, not only the kept one, returns each
        pinned row in its own cluster."""
        calls = record_lloyd(monkeypatch)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(60, 2))
        for seed in range(5):
            pinned = np.full(60, -1)
            rows = rng.choice(60, size=12, replace=False)
            pinned[rows] = np.arange(12) % 3
            calls.clear()
            result = constrained_kmeans(x, 6, pinned, seed=seed)
            (_, lloyd_results), = calls
            assert len(lloyd_results) == KMEANS.N_INIT
            for fit in lloyd_results + [result]:
                np.testing.assert_array_equal(fit.assignment[rows], pinned[rows])

    def test_inertia_monotone_with_anchors(self, monkeypatch):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(80, 3))
        pinned = pins(80, np.arange(10), np.repeat([0, 1], 5))
        history = lloyd_inertias(monkeypatch, lambda: constrained_kmeans(x, 5, pinned, seed=4))
        assert (np.diff(history) <= 1e-7).all()

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
        result, = _lloyd(x, np.einsum("nc,nc->n", x, x), start[None], anchor_rows,
                         anchor_cluster, np.arange(4, 8))
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


class TestLockstepSeeding:
    """:func:`_plusplus_init` seeds every restart in lockstep; each restart's
    seeds and generator state equal those of the same generator drawn on
    its own by :func:`sequential_plusplus_init`."""

    @pytest.mark.parametrize("n, d", [(1, 3), (7, 2), (16, 5), (40, 33), (300, 64)])
    @pytest.mark.parametrize("anchored", [False, True], ids=["no-pins", "anchors"])
    def test_every_restart_matches_the_sequential_oracle(self, n, d, anchored):
        rng = np.random.default_rng(n * d)
        x = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
        x_sq = np.einsum("nc,nc->n", x, x)
        existing = x[:3] + rng.normal(size=(3, d)) if anchored else np.empty((0, d))
        for n_new in (range(1, n + 1) if n <= 40 else (1, 2, 17, 64, n)):
            rngs = [rng_for(n_new, "seeding", run) for run in range(KMEANS.N_INIT)]
            chosen = _plusplus_init(x, x_sq, n_new, rngs, existing)
            assert chosen.shape == (KMEANS.N_INIT, n_new)
            for run, (lockstep_rng, idx) in enumerate(zip(rngs, chosen)):
                alone = rng_for(n_new, "seeding", run)
                expected = sequential_plusplus_init(x, x_sq, n_new, alone, existing)
                np.testing.assert_array_equal(x[idx], expected)
                assert lockstep_rng.bit_generator.state == alone.bit_generator.state

    @pytest.mark.parametrize("n, d", [(40, 33), (300, 64)])
    @pytest.mark.parametrize("anchored", [False, True], ids=["no-pins", "anchors"])
    def test_every_draw_has_the_oracle_probabilities(self, monkeypatch, n, d, anchored):
        """An ulp of drift in D^2 rarely moves a draw, so equal seeds alone
        would not show it: each draw's probabilities, as ``np.cumsum``
        receives them, must equal the oracle's ``p`` bit for bit."""
        drawn = []

        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def cumsum(a, *args, **kwargs):
                drawn.append(a.copy())
                return np.cumsum(a, *args, **kwargs)

        rng = np.random.default_rng(d)
        x = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d)
        x_sq = np.einsum("nc,nc->n", x, x)
        existing = x[:3] + rng.normal(size=(3, d)) if anchored else np.empty((0, d))
        n_new = 20
        monkeypatch.setattr(KMEANS, "np", RecordingNumpy())
        _plusplus_init(x, x_sq, n_new, [rng_for(0, "seeding", run) for run in range(KMEANS.N_INIT)],
                       existing)
        monkeypatch.undo()
        assert len(drawn) == n_new - (not anchored)
        for run in range(KMEANS.N_INIT):
            expected = []
            sequential_plusplus_init(x, x_sq, n_new, rng_for(0, "seeding", run), existing,
                                     expected)
            for lockstep, p in zip(drawn, expected, strict=True):
                np.testing.assert_array_equal(lockstep[run], p)

    @pytest.mark.parametrize("anchored", [False, True], ids=["no-pins", "anchors"])
    def test_duplicate_positions_raise_the_oracle_message(self, anchored):
        x = np.array([[0.0, 0.0]] * 3 + [[5.0, 5.0]] * 3)
        x_sq = np.einsum("nc,nc->n", x, x)
        existing = x[:1] if anchored else np.empty((0, 2))
        n_new = 2 if anchored else 3
        with pytest.raises(ParameterError) as oracle:
            sequential_plusplus_init(x, x_sq, n_new, rng_for(0, "seeding"), existing)
        rngs = [rng_for(0, "seeding", run) for run in range(KMEANS.N_INIT)]
        with pytest.raises(ParameterError) as lockstep:
            _plusplus_init(x, x_sq, n_new, rngs, existing)
        assert str(lockstep.value) == str(oracle.value)
        assert f"only {n_new - 1} distinct" in str(oracle.value)

    def test_draw_is_generator_choice(self):
        """The lockstep draw, ``cumsum(p) / last`` searched at one
        ``rng.random()``, is what ``Generator.choice(n, p=p)`` does: same
        index and same generator state, zero weights included."""
        weights = np.random.default_rng(7)
        for trial in range(300):
            n = int(weights.integers(1, 60))
            w = weights.random(n) * (weights.random(n) < 0.6)
            w[weights.integers(n)] += 0.5
            p = w / w.sum()
            chooser, drawer = rng_for(trial, "choice"), rng_for(trial, "choice")
            cdf = np.cumsum(p)
            cdf /= cdf[-1]
            assert chooser.choice(n, p=p) == cdf.searchsorted(drawer.random(), side="right")
            assert chooser.bit_generator.state == drawer.bit_generator.state


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
        label_passes = count_calls(monkeypatch, KMEANS, "_label_pass")
        expanded_calls = count_calls(monkeypatch, distances, "expanded")
        result, = _lloyd(x, np.einsum("nc,nc->n", x, x), x[[0, 50, 100]][None], anchor_rows,
                         anchor_cluster, np.arange(2, x.shape[0]))
        monkeypatch.undo()
        # Converged with shift 0: one label pass per iteration and no final
        # one, and no cluster emptied, so no expanded distances were built.
        # The last iteration's labels did not move after a repair-free
        # update, so that iteration took no centroid pass.
        assert result.iterations < KMEANS.MAX_ITER
        assert len(label_passes) == result.iterations
        assert expanded_calls == []
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

    def test_run_through_empty_cluster_repair(self, monkeypatch):
        x = np.array([[0, 0], [0, 12], [8, 0], [8, 12],
                      [4, 6], [4, 6], [4, 2], [4, 10]], dtype=float)
        anchor_rows, anchor_cluster = np.arange(4), np.array([0, 0, 1, 1])
        start = np.array([[0, 6], [8, 6], [4, 6], [4, 2], [40, 40]], dtype=float)
        expanded_calls = count_calls(monkeypatch, distances, "expanded")
        result, = _lloyd(x, np.einsum("nc,nc->n", x, x), start[None], anchor_rows,
                         anchor_cluster, np.arange(4, 8))
        monkeypatch.undo()
        assert expanded_calls   # the repair reads the expanded distances
        np.testing.assert_array_equal(result.centers[4], x[7])   # repaired
        np.testing.assert_array_equal(
            result.assignment, _pinned_argmin(x, result.centers, anchor_rows, anchor_cluster))


class TestLockstep:
    """Every restart of the lockstep loop, not only the kept one, has the
    centers, assignment, inertia and iteration count of the same restart
    run on its own by :func:`sequential_lloyd`."""

    @pytest.mark.parametrize("tol", [KMEANS.TOL, 0.1], ids=["tol", "coarse-tol"])
    @pytest.mark.parametrize("anchored", [False, True], ids=["no-pins", "anchors"])
    @pytest.mark.parametrize("seed", range(3))
    def test_every_restart_matches_the_sequential_oracle(self, monkeypatch, seed, anchored,
                                                         tol):
        """At the coarse tolerance, some restarts stop with a nonzero shift
        while others still iterate, and take one more label pass at the end."""
        monkeypatch.setattr(KMEANS, "TOL", tol)
        labeled, unlabeled, _ = synth_mixture(3, 4, 30, 8, 3.0, seed=seed)
        x = np.vstack([labeled.features.values, unlabeled.values])
        pinned = np.full(x.shape[0], -1)
        if anchored:
            pinned[: labeled.labels.size] = labeled.labels
        calls = record_lloyd(monkeypatch)
        result = constrained_kmeans(x, 7, pinned, seed=seed)
        (args, fits), = calls
        _, x_sq, starts, anchor_rows, anchor_cluster, free_idx = args
        assert len(fits) == KMEANS.N_INIT
        for start, fit in zip(starts, fits):
            assert_fits_equal(fit, sequential_lloyd(x, x_sq, start, anchor_rows,
                                                    anchor_cluster, free_idx, 7))
        assert result is fits[int(np.argmin([fit.inertia for fit in fits]))]
        assert len({fit.iterations for fit in fits}) > 1

    def test_restarts_through_empty_cluster_repair_match_the_oracle(self, monkeypatch):
        """Far start centers empty one cluster in restart 1 and two in
        restart 3 on the first pass; restarts 0, 2 and 4 need no repair."""
        rng = np.random.default_rng(5)
        x = rng.normal(size=(120, 3))
        x_sq = np.einsum("nc,nc->n", x, x)
        anchor_rows, anchor_cluster = np.arange(10), np.arange(10) % 2
        free_idx = np.arange(10, 120)
        starts = x[rng.choice(free_idx, size=(5, 6))]
        starts[:, 0] = x[0:10:2].mean(axis=0)
        starts[:, 1] = x[1:10:2].mean(axis=0)
        starts[1, 5] = 1e3
        starts[3, 4:] = [[1e3, 0, 0], [0, -1e3, 0]]
        oracle = [sequential_lloyd(x, x_sq, start, anchor_rows, anchor_cluster, free_idx, 6)
                  for start in starts]
        expanded_calls = count_calls(monkeypatch, distances, "expanded")
        fits = list(_lloyd(x, x_sq, starts, anchor_rows, anchor_cluster, free_idx))
        monkeypatch.undo()
        assert len(expanded_calls) >= 2
        for fit, expected in zip(fits, oracle):
            assert_fits_equal(fit, expected)
            np.testing.assert_array_equal(fit.assignment[anchor_rows], anchor_cluster)

    @pytest.mark.parametrize("anchored", [False, True], ids=["no-pins", "anchors"])
    def test_repair_ties_take_the_first_farthest_rows(self, anchored):
        """Every free row starts in one cluster, and 36 of them tie as the
        farthest: three copies of 12 ring points at squared distance 25
        from the origin center, after two nearer rows.  Far start centers
        empty up to four clusters at once.  The oracle repairs empty
        clusters in index order, each at the first farthest row not yet
        taken.  numpy's unstable argsort of these 40 distances (numpy 2.4,
        x86-64) puts the ring's second point before its first."""
        ring = np.array([[3, 4], [4, 3], [-3, 4], [-4, 3], [3, -4], [4, -3],
                         [-3, -4], [-4, -3], [5, 0], [-5, 0], [0, 5], [0, -5]], dtype=float)
        x = np.vstack([[[1, 0], [0, 1]], ring, ring, ring, [[-1, 0], [0, -1]]])
        anchor_rows = anchor_cluster = np.array([], dtype=np.int64)
        if anchored:
            x = np.vstack([[[0.0, 0.5], [0.0, -0.5]], x])
            anchor_rows, anchor_cluster = np.arange(2), np.zeros(2, dtype=np.int64)
        free_idx = np.arange(anchor_rows.size, x.shape[0])
        x_sq = np.einsum("nc,nc->n", x, x)
        far = np.array([[1e3, 0], [0, 1e3], [-1e3, 0], [0, -1e3]])
        starts = np.zeros((3, 5, 2))
        starts[:, 1:] = far
        starts[1, 1:3] = [[0.5, 0.5], [0.5, -0.5]]   # two empty clusters
        starts[2, 1] = -0.5, 0.5                      # three empty clusters
        oracle = [sequential_lloyd(x, x_sq, start, anchor_rows, anchor_cluster, free_idx, 5)
                  for start in starts]
        fits = list(_lloyd(x, x_sq, starts, anchor_rows, anchor_cluster, free_idx))
        for fit, expected in zip(fits, oracle):
            assert_fits_equal(fit, expected)

    def test_unmoved_labels_after_a_repair_are_not_convergence(self):
        """The repair puts cluster 2 on a copy of (0, 0), whose rows stay
        in cluster 0 on the tie, so the next pass moves no label.  The
        repair then reads distances to the new means and picks (9, 0):
        unmoved labels mean unchanged centers only after a repair-free
        update."""
        x = np.array([[0, 0], [0, 0], [9, 0], [11, 0]], dtype=float)
        start = np.array([[2, 0], [10, 0], [100, 100]], dtype=float)
        x_sq = np.einsum("nc,nc->n", x, x)
        no_pins = np.array([], dtype=np.int64)
        expected = sequential_lloyd(x, x_sq, start, no_pins, no_pins, np.arange(4), 3)
        fit, = _lloyd(x, x_sq, start[None].copy(), no_pins, no_pins, np.arange(4))
        assert_fits_equal(fit, expected)
        assert fit.iterations > 2
        np.testing.assert_array_equal(fit.centers[2], x[2])

    def test_peak_is_the_sequential_peak_plus_one_label_matrix(self):
        """1 400 x 64 rows, k = 24, 300 pinned rows.  Run one restart at a
        time with one-hot centroid products, these inputs peaked at
        1 699 512 B (numpy 2.4): the free rows, the (n, k) one-hot buffer
        and an (n, k) score array, then the (n, d) inertia temporary.  The
        grid sums drop the one-hot buffer, 268 800 B, and keep the free
        rows' (n_free, d) float64 grid through the call, 563 200 B; the
        whole call measured 1 981 733 B.  Lockstep may add one (N_INIT, n)
        label matrix."""
        rng = np.random.default_rng(0)
        n, n_free, d, k = 1400, 1100, 64, 24
        x = rng.normal(size=(n, d))
        pinned = np.full(n, -1)
        pinned[:n - n_free] = np.arange(n - n_free) % 10
        tracemalloc.start()
        try:
            constrained_kmeans(x, k, pinned, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_699_512 - n * k * 8 + n_free * d * 8 + KMEANS.N_INIT * n * 8


class TestGridSums:
    """The exact centroid sums of the module docstring."""

    def test_exponents_keep_every_sum_exact_in_rational_arithmetic(self):
        """Spreads from the least subnormal to the largest double, row counts
        from 1 to 2^31 - 1: e is the largest exponent with n s 2^e <= 2^52,
        a sum of n grid values of at most 2^52 / n + 1/2 stays below 2^53,
        and half a step is below n s 2^-52."""
        spreads = [5e-324, 2.0**-1022, 1e-300, 0.1, 1.0, 3.0, 2.0**52, 1e300,
                   np.finfo(float).max]
        for n in [1, 2, 3, 7, 1000, 1024, 10_000, 2**31 - 1]:
            for s, e in zip(spreads, _grid_exponents(np.array(spreads), n)):
                s, step = Fraction(s), Fraction(2) ** -int(e)
                assert n * s / step <= 2**52 < 2 * n * s / step
                assert n * (Fraction(2**52, n) + Fraction(1, 2)) < 2**53
                assert step / 2 < n * s / 2**52
        assert _grid_exponents(np.zeros(3), 5).tolist() == [0, 0, 0]

    def test_grid_values_are_integers_within_half_a_step(self):
        """A zero, a subnormal, an offset and a near-1e300 column, with
        anchors: each grid value is an integer within half a step of
        fl(x - m) 2^e and at most 2^52 / n + 1/2, in exact rational
        arithmetic, and the anchors share the free rows' grid."""
        rng = np.random.default_rng(3)
        x = np.column_stack([np.full(50, 2.5), rng.normal(size=50) * 1e-310,
                             rng.normal(size=50) + 1e6, rng.normal(size=50) * 1e300])
        free_idx = np.arange(10, 50)
        free = _FreeRows(x, free_idx, np.arange(10))
        grid = free.to_grid(x - free.mean)
        np.testing.assert_array_equal(grid[free_idx], free.grid)
        assert free.exps[0] == 0 and not grid[:, 0].any()
        for row, values in zip(x - free.mean, grid):
            for centred, g, e in zip(row, values, free.exps):
                assert g == int(g)
                assert abs(Fraction(g) - Fraction(centred) * Fraction(2) ** int(e)) <= 0.5
                assert abs(Fraction(g)) <= Fraction(2**52, 50) + Fraction(1, 2)
        # Half a step, the centring, the division and the add of the mean.
        center = kmeans(x[:, :3], 1, seed=0).centers[0]
        mean = _FreeRows(x[:, :3], np.arange(50), NO_PINS).mean
        assert center[0] == 2.5
        for j in (1, 2):
            spread = Fraction(np.abs(x[:, j] - mean[j]).max())
            error = abs(Fraction(center[j]) - sum(map(Fraction, x[:, j])) / 50)
            assert error <= 51 * spread / 2**52 + Fraction(np.spacing(center[j])) / 2

    def test_centers_keep_their_bits_when_rows_are_permuted_within_clusters(self, monkeypatch):
        """The same clusters listed in another row order, and summed in
        blocks of 7 rows as well as in one product, give the same sums and
        centers to the bit; each sum is the exact integer sum."""
        rng = np.random.default_rng(4)
        n, d, k = 300, 6, 5
        x = rng.normal(size=(n, d)) * [1, 10, 1e-3, 1e5, 1, 1] + 1e3
        labels = rng.integers(0, k, size=n)
        free = _FreeRows(x, np.arange(n), NO_PINS)
        none = np.full(n, -1)
        centers = []
        for order in (np.arange(n), rng.permutation(n), np.argsort(labels, kind="stable")):
            sums = np.zeros((k, d))
            _add_moves(sums, free.grid[order], np.arange(n), none, labels[order])
            blocked = np.zeros((k, d))
            with monkeypatch.context() as patch:
                patch.setattr(distances, "BLOCK_ELEMENTS", 7 * (k + d))
                _add_moves(blocked, free.grid[order], np.arange(n), none, labels[order])
            np.testing.assert_array_equal(blocked, sums)
            counts = np.bincount(labels, minlength=k)[:, None]
            centers.append(np.ldexp(sums / counts, -free.exps) + free.mean)
        exact = [[sum(int(g) for g in free.grid[labels == c, j]) for j in range(d)]
                 for c in range(k)]
        assert sums.tolist() == exact
        for other in centers[1:]:
            np.testing.assert_array_equal(other, centers[0])

    def test_updates_from_moved_rows_match_the_dense_sums(self):
        """One restart's sums through 40 updates that each move 5 % to 60 %
        of 500 rows, anchors included, equal the dense one-hot sums of the
        final labels bit for bit, and so do its centers."""
        rng = np.random.default_rng(5)
        n, d, k = 500, 9, 8
        x = rng.normal(size=(n, d)) * rng.uniform(0.01, 100, size=d) - 50
        anchor_rows = np.arange(60)
        anchor_cluster = anchor_rows % 3
        free_idx = np.arange(60, n)
        free = _FreeRows(x, free_idx, anchor_rows)
        sums = np.zeros((k, d))
        np.add.at(sums, anchor_cluster, free.to_grid(x[anchor_rows] - free.mean))
        labels = np.full(free_idx.size, -1)
        for _ in range(40):
            new = labels.copy()
            moving = rng.random(free_idx.size) < rng.uniform(0.05, 0.6)
            new[moving | (labels < 0)] = rng.integers(0, k, size=(moving | (labels < 0)).sum())
            rows = np.flatnonzero(new != labels)
            _add_moves(sums, free.grid, rows, labels[rows], new[rows])
            labels = new
        every = np.empty(n, dtype=np.int64)
        every[anchor_rows], every[free_idx] = anchor_cluster, labels
        onehot = np.zeros((n, k))
        onehot[np.arange(n), every] = 1.0
        dense = onehot.T @ free.to_grid(x - free.mean)
        np.testing.assert_array_equal(sums, dense)
        counts = np.maximum(np.bincount(every, minlength=k), 1)[:, None]
        np.testing.assert_array_equal(np.ldexp(sums / counts, -free.exps) + free.mean,
                                      np.ldexp(dense / counts, -free.exps) + free.mean)

    @pytest.mark.parametrize("rows", [[[1.7e308], [1.7e308], [-1e308]],
                                      [[1.7e308], [-1e308], [-1e308]]],
                             ids=["mean-overflows", "centred-value-overflows"])
    def test_rows_without_a_grid_raise(self, rows):
        """With k = 1 no seeding draw runs first; before the grid, the
        first returned an infinite center and the second an infinite
        inertia, each after numpy warnings."""
        with pytest.raises(NumericalError, match="centroid sums overflow"):
            kmeans(np.array(rows), 1, seed=0)

    def test_center_rounding_past_the_largest_double_is_clamped(self):
        """Anchors at +-max: the grid rounds each up to 2^1024, past the
        largest double, and the clamp gives each its own value back."""
        top = np.finfo(float).max
        result = constrained_kmeans(np.array([[top], [-top]]), 2, [0, 1], seed=0)
        np.testing.assert_array_equal(result.centers, [[top], [-top]])
        assert result.inertia == 0.0


class TestLabelPass:
    @pytest.mark.parametrize("offset", [0.0, 1e6])
    @pytest.mark.parametrize("seed", range(4))
    def test_label_is_the_expanded_argmin_off_ties(self, seed, offset):
        """Wherever the exact gap between a row's two nearest centers
        exceeds 2 (c + 2) eps (|x|^2 + |mu|^2), with the larger |mu|^2 of
        the two, both forms are within half the gap of the exact distances
        (see :mod:`distances`), so the label pass and the argmin of
        ``distances.expanded`` pick the same center.  The offset, shared by
        every row and center, makes that sum 1e12 times larger.  Three
        restarts' centers go through one stacked pass; each is checked."""
        rng = np.random.default_rng(seed)
        c = 4
        x = rng.normal(size=(150, c)) + offset
        runs = rng.normal(size=(3, 6, c)) + offset
        x_sq = np.einsum("nc,nc->n", x, x)
        labels = np.full((3, x.shape[0]), -1)
        assert _label_pass(_FreeRows(x, np.arange(150), NO_PINS), runs, labels, np.arange(3)).all()
        for centers, run_labels in zip(runs, labels):
            mu_sq = np.einsum("kc,kc->k", centers, centers)
            exact = np.array([[float(sum((Fraction(a) - Fraction(b)) ** 2
                                         for a, b in zip(row, mu)))
                               for mu in centers] for row in x])
            nearest = np.argsort(exact, axis=1, kind="stable")[:, :2]
            gap = np.diff(np.take_along_axis(exact, nearest, axis=1), axis=1)[:, 0]
            bound = 2 * (c + 2) * np.finfo(float).eps * (x_sq + mu_sq[nearest].max(axis=1))
            clear = gap > bound
            assert clear.mean() > 0.9
            reference = distances.expanded(x, centers, x_sq).argmin(axis=1)
            np.testing.assert_array_equal(run_labels[clear], reference[clear])
            np.testing.assert_array_equal(run_labels[clear], nearest[clear, 0])

    def test_pass_relabels_only_active_restarts_and_reports_moves(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(97, 3))
        runs = rng.normal(size=(4, 5, 3))
        labels = np.full((4, 97), -1)
        free = _FreeRows(x, np.arange(97), NO_PINS)
        _label_pass(free, runs, labels, np.arange(4))
        before = labels.copy()
        assert not _label_pass(free, runs, labels, np.arange(4)).any()
        runs[1] = runs[1, ::-1]   # same centers, reversed ids
        runs[3] = runs[0]
        moved = _label_pass(free, runs, labels, np.array([1, 2]))
        np.testing.assert_array_equal(moved, [True, False])
        np.testing.assert_array_equal(labels[[0, 2, 3]], before[[0, 2, 3]])
        np.testing.assert_array_equal(labels[1], 4 - before[1])

    def test_certificate_constants_cover_the_derived_error_terms(self):
        """The module docstring's constants, in exact rational arithmetic.
        Each score is within e P of its T, with P = |a|^2 + max |b|^2 the
        exact norms: the product with its two input roundings and the
        centring (phi), |mu|^2 in float64 then float32 (w), the final add,
        and the underflow's relative share.  P is at most (X + M)(1 + rho)
        for the float64 X and M.  Then e (1 + rho) <= gamma_{c+5}, and the
        threshold's margin 2 gamma_{c+8}, after the float64 product and
        add, the float32 rounding of r and h and the two float32 adds
        (|s| <= 2 (X + M)(1 + rho) + B), still reaches 2 B."""
        u, v, lam = Fraction(1, 2**24), Fraction(1, 2**53), Fraction(1, 2**150)

        def gamma(n, unit=u):
            return n * unit / (1 - n * unit)

        for c in [1, 2, 3, 8, 40, 64, 100, 1000, 2**16, 2**20 - 1]:
            phi = (1 + v) ** 2 * (1 + gamma(c + 2)) - 1
            w = (1 + v) ** 2 * (1 + gamma(c, v)) - 1
            e = (u + w + u * w) * (1 + u) + phi * (1 + u) + 2 * u + 5 * lam
            rho = 1 / ((1 - v) ** 2 * (1 - gamma(c, v))) - 1
            bound = gamma(c + 5)
            assert e * (1 + rho) <= bound
            margin = 2 * gamma(c + 8)
            reached = (margin * (1 - v) ** 2 * (1 - u)
                       - u * (2 + u) * (2 * (1 + rho) + bound + margin * (1 + v) ** 2 * (1 + u)))
            assert reached >= 2 * bound

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_every_certified_label_is_the_exact_argmin(self, data):
        """Rows and centers at mixed magnitudes, from float32 underflow
        (1e-45) to past the gate (1e16 per coordinate), some centers the
        mirror image of a row in another center (a near tie), and all
        shifted by a shared offset.  With the fallback made to return -1,
        every other label is the unique argmin of |x - mu|^2 in exact
        rational arithmetic."""
        c = data.draw(st.integers(1, 5), label="c")
        n = data.draw(st.integers(1, 10), label="n")
        k = data.draw(st.integers(1, 4), label="k")
        runs = data.draw(st.integers(1, 3), label="runs")
        offset = data.draw(st.sampled_from([0.0, 1e6]), label="offset")
        # 1.0 comes twice, so that about two pairs in five are certified.
        scales = st.sampled_from([1.0, 1e-45, 1e-20, 1e3, 1e14, 1.0, 1e16])

        def draw_points(count, label):
            unit = st.lists(st.floats(-1.0, 1.0), min_size=c, max_size=c)
            return np.array([np.array(data.draw(unit, label=label)) * data.draw(scales)
                             for _ in range(count)])

        x = draw_points(n, "row")
        centers = draw_points(runs * k, "center").reshape(runs, k, c)
        if k > 1:
            for r in range(runs):
                if data.draw(st.booleans(), label="mirror"):
                    centers[r, 1] = 2.0 * x[data.draw(st.integers(0, n - 1))] - centers[r, 0]
        x += offset
        centers += offset
        labels = np.full((runs, n), -2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(KMEANS, "_nearest64", lambda rows, _: np.full(len(rows), -1))
            _label_pass(_FreeRows(x, np.arange(n), NO_PINS), centers, labels, np.arange(runs))
        for r in range(runs):
            for i in np.flatnonzero(labels[r] >= 0):
                exact = [sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(x[i], mu))
                         for mu in centers[r]]
                nearest = min(exact)
                assert exact[labels[r, i]] == nearest
                assert exact.count(nearest) == 1

    def test_near_tie_takes_the_float64_fallback(self, monkeypatch):
        """Each row lies 1e-12 to 3e-12 past the midpoint of centers 1 and
        2, nearer center 2.  Centred on the rows' mean, the float32 scores
        of those two centers tie, so no pair is certified.  The float64
        argmin of |mu|^2 - 2 x.mu picks center 2, the exact argmin; the
        float32 argmin would pick center 1, and the float32 index sum of
        the two ties names no center."""
        x = 0.5 + np.array([[1e-12], [2e-12], [3e-12]])
        runs = np.array([[[-10.0], [0.0], [1.0]]] * 2)
        labels = np.full((2, 3), -1)
        fallback_rows = []
        nearest64 = KMEANS._nearest64

        def spy(rows, centers):
            fallback_rows.append(len(rows))
            return nearest64(rows, centers)

        monkeypatch.setattr(KMEANS, "_nearest64", spy)
        _label_pass(_FreeRows(x, np.arange(3), NO_PINS), runs, labels, np.arange(2))
        assert fallback_rows == [3, 3]
        np.testing.assert_array_equal(labels, 2)
        np.testing.assert_array_equal(labels[0], sequential_labels(x, runs[0], [], []))

    def test_overflowing_float32_score_is_not_certified(self):
        """The rows' mean is 0.  Row 0, (2e19, 0), is nearer center 0 (at
        squared distance 1.44e38, against 3.46e38).  In float32 its product
        with center 1, -3.6e38, overflows to -inf while its other scores
        stay finite, so -inf would be the only score in reach.  Only the
        gate keeps that label from being certified."""
        x = np.array([[2e19, 0.0], [-2e19, 0.0]])
        runs = np.array([[[8e18, 0.0], [9e18, 1.5e19]]])
        labels = np.full((1, 2), -1)
        _label_pass(_FreeRows(x, np.arange(2), NO_PINS), runs, labels, np.arange(1))
        np.testing.assert_array_equal(labels, [[0, 0]])

    @pytest.mark.parametrize("anchored", [False, True], ids=["no-pins", "anchors"])
    def test_float32_overflow_takes_the_float64_path(self, monkeypatch, anchored):
        """Scaled to |x| near 1e20, float32 squares overflow.  Every row is
        past the gate, so every label pass sends all its pairs to the
        float64 fallback, and each restart matches the sequential oracle
        (float64 labels over every row) bit for bit."""
        labeled, unlabeled, _ = synth_mixture(3, 4, 30, 8, 3.0, seed=2)
        x = np.vstack([labeled.features.values, unlabeled.values]) * 1e20
        pinned = np.full(x.shape[0], -1)
        if anchored:
            pinned[: labeled.labels.size] = labeled.labels
        fallback_rows = []
        nearest64 = KMEANS._nearest64

        def spy(rows, centers):
            fallback_rows.append(len(rows))
            return nearest64(rows, centers)

        passes = []
        label_pass = KMEANS._label_pass

        def counted(free, centers, labels, active):
            passes.append(active.size * free.idx.size)
            return label_pass(free, centers, labels, active)

        monkeypatch.setattr(KMEANS, "_nearest64", spy)
        monkeypatch.setattr(KMEANS, "_label_pass", counted)
        calls = record_lloyd(monkeypatch)
        result = constrained_kmeans(x, 7, pinned, seed=0)
        (args, fits), = calls
        _, x_sq, starts, anchor_rows, anchor_cluster, free_idx = args
        assert sum(fallback_rows) == sum(passes) > 0
        for start, fit in zip(starts, fits):
            assert_fits_equal(fit, sequential_lloyd(x, x_sq, start, anchor_rows,
                                                    anchor_cluster, free_idx, 7))
        assert result is fits[int(np.argmin([fit.inertia for fit in fits]))]

    def test_exact_inertia_holds_one_row_block(self):
        """The gathered centers are overwritten by the differences, so the
        peak is one (n, d) array and a small slack (8 KiB)."""
        rng = np.random.default_rng(11)
        n, d = 3000, 32
        x = rng.normal(size=(n, d))
        centers = rng.normal(size=(7, d))
        labels = rng.integers(0, 7, size=n)
        tracemalloc.start()
        try:
            inertia = _exact_inertia(x, centers, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n * d * 8 + 8192
        assert inertia == float(np.einsum("nc,nc->", x - centers[labels], x - centers[labels]))
