"""Tests for clustering metrics against brute-force reference code."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from transfercluster import distances
from transfercluster.errors import ParameterError
from transfercluster.metrics import (
    _max_weight_matching,
    clustering_accuracy,
    count_error,
    evaluate_clustering,
    nmi,
    silhouette,
    silhouettes,
)


def permutation_accuracy(truth, predicted):
    """Exhaustive max over label permutations; valid when clusters == classes."""
    labels = sorted(set(truth) | set(predicted))
    best = 0
    for perm in itertools.permutations(labels):
        mapping = dict(zip(labels, perm))
        best = max(best, sum(1 for t, p in zip(truth, predicted) if mapping[p] == t))
    return best / len(truth)


def table_labels(table):
    """(truth, predicted) whose contingency table is ``table``: cluster i
    and class j label ``table[i][j]`` rows.  No row or column may be 0."""
    table = np.asarray(table)
    clusters, classes = np.nonzero(table)
    counts = table[clusters, classes]
    return np.repeat(classes, counts), np.repeat(clusters, counts)


def direct_silhouette(x, labels):
    """Literal double-loop evaluation of the mean silhouette."""
    n = len(x)
    scores = []
    for i in range(n):
        same = [j for j in range(n) if j != i and labels[j] == labels[i]]
        if not same:
            scores.append(0.0)
            continue
        a = np.mean([np.linalg.norm(x[i] - x[j]) for j in same])
        b = np.inf
        for other in set(labels) - {labels[i]}:
            members = [j for j in range(n) if labels[j] == other]
            b = min(b, np.mean([np.linalg.norm(x[i] - x[j]) for j in members]))
        scores.append((b - a) / max(a, b))
    return float(np.mean(scores))


class TestClusteringAccuracy:
    def test_relabeling_scores_one(self):
        truth = np.array([0, 0, 1, 1, 2, 2, 2])
        predicted = np.array([2, 2, 0, 0, 1, 1, 1])
        acc, matching = clustering_accuracy(truth, predicted)
        assert acc == 1.0
        assert matching == {2: 0, 0: 1, 1: 2}

    def test_known_small_instance(self):
        truth = [0, 0, 1, 1, 2, 2]
        predicted = [1, 1, 0, 0, 0, 2]
        acc, _ = clustering_accuracy(truth, predicted)
        assert acc == pytest.approx(5 / 6)
        assert acc == permutation_accuracy(truth, predicted)

    def test_rectangular_matching(self):
        """Extra empty-ish clusters do not hurt a perfect class split."""
        truth = np.repeat([0, 1, 2], 4)
        predicted = np.repeat([7, 3, 9], 4)
        acc, matching = clustering_accuracy(truth, predicted)
        assert acc == 1.0
        assert len(matching) == 3

    def test_matches_exhaustive_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            k = int(rng.integers(2, 8))
            n = int(rng.integers(k, 40))
            truth = rng.integers(0, k, size=n)
            predicted = rng.integers(0, k, size=n)
            acc, _ = clustering_accuracy(truth, predicted)
            assert acc == pytest.approx(permutation_accuracy(truth.tolist(), predicted.tolist()))

    def test_invariance_under_relabeling(self):
        rng = np.random.default_rng(23)
        truth = rng.integers(0, 4, size=60)
        predicted = rng.integers(0, 4, size=60)
        base, _ = clustering_accuracy(truth, predicted)
        perm = rng.permutation(4)
        relabeled = perm[predicted]
        assert clustering_accuracy(truth, relabeled)[0] == pytest.approx(base)
        truth_perm = rng.permutation(4)[truth]
        assert clustering_accuracy(truth_perm, predicted)[0] == pytest.approx(base)

    def test_matching_is_injective(self):
        rng = np.random.default_rng(29)
        truth = rng.integers(0, 3, size=50)
        predicted = rng.integers(0, 10, size=50)
        _, matching = clustering_accuracy(truth, predicted)
        assert len(set(matching.values())) == len(matching)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            clustering_accuracy([0, 1], [0, 1, 2])

    @pytest.mark.parametrize("table, expected", [
        # Both pairings match 5 rows; the solver's order picks the
        # off-diagonal one, not the lowest indices.
        ([[1, 2], [3, 4]], {0: 1, 1: 0}),
        ([[1, 1], [1, 1]], {0: 0, 1: 1}),
        ([[1, 1, 1], [1, 1, 1], [1, 1, 1]], {0: 0, 1: 1, 2: 2}),
        # Clusters or classes left over: the matched set has the least index sum.
        ([[2], [2], [2]], {0: 0}),
        ([[2, 2, 2]], {0: 0}),
        ([[1, 1], [1, 1], [1, 1]], {0: 0, 1: 1}),
        ([[2, 0, 2], [0, 2, 0]], {0: 0, 1: 1}),
        # The count comes first: only clusters 1 and 3 match 4 rows.
        ([[1, 0], [2, 2], [0, 1], [2, 2]], {1: 0, 3: 1}),
    ], ids=lambda v: str(v).replace(" ", ""))
    def test_tie_rule_on_hand_made_tables(self, table, expected):
        truth, predicted = table_labels(table)
        acc, matching = clustering_accuracy(truth, predicted)
        assert matching == expected
        assert acc * truth.size == pytest.approx(
            sum(table[c][k] for c, k in expected.items()))

    @pytest.mark.parametrize("weight, rows, cols", [
        # Columns are scanned from the last; among tied free ones the
        # last scanned wins, so column 0 here.
        ([[0, 0]], [0], [0]),
        # Row 1 displaces row 0 from column 2; taking column 2 swaps
        # column 0 into its place, so the scan is 0, 1 and row 0 gets 1.
        ([[0, 0, 1], [0, 0, 1]], [0, 1], [2, 1]),
        ([[0, 0, 0], [0, 0, 0], [1, 1, 0]], [0, 1, 2], [0, 2, 1]),
        ([[1, 0], [1, 0], [0, 0]], [0, 1], [0, 1]),
    ], ids=lambda v: str(v).replace(" ", ""))
    def test_solver_scan_order_on_tied_weights(self, weight, rows, cols):
        """Raw weights with many ties, where only the scan order decides."""
        got = _max_weight_matching(np.array(weight))
        assert [got[0].tolist(), got[1].tolist()] == [rows, cols]

    def test_tie_rule_against_brute_force(self):
        """Random tables up to 6 x 6: the matching pairs min(rows, columns)
        labels, its count is the largest over all such matchings, and among
        those the side with labels left over matches the least index sum."""
        rng = np.random.default_rng(61)
        for _ in range(300):
            n_r, n_c = (int(v) for v in rng.integers(1, 7, size=2))
            table = rng.integers(0, 3, size=(n_r, n_c)) * rng.integers(0, 2, size=(n_r, n_c))
            table[np.arange(n_r), rng.integers(0, n_c, size=n_r)] += 1
            table[rng.integers(0, n_r, size=n_c), np.arange(n_c)] += 1
            truth, predicted = table_labels(table)
            _, matching = clustering_accuracy(truth, predicted)
            # Every matching of size min(n_r, n_c) as (count, leftover-side index sum).
            if n_r <= n_c:
                options = [(table[np.arange(n_r), cols].sum(), sum(cols))
                           for cols in itertools.permutations(range(n_c), n_r)]
                index_sum = sum(matching.values())
            else:
                options = [(table[rows, np.arange(n_c)].sum(), sum(rows))
                           for rows in itertools.permutations(range(n_r), n_c)]
                index_sum = sum(matching)
            best = max(count for count, _ in options)
            least = min(total for count, total in options if count == best)
            assert len(matching) == min(n_r, n_c)
            assert len(set(matching.values())) == len(matching)
            assert sum(table[r, c] for r, c in matching.items()) == best
            assert index_sum == least


class TestNmi:
    def test_identical_partitions(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        assert nmi(truth, np.array([5, 5, 3, 3, 9, 9])) == pytest.approx(1.0)

    def test_independent_partitions(self):
        assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        a = rng.integers(0, 3, size=100)
        b = rng.integers(0, 5, size=100)
        assert nmi(a, b) == pytest.approx(nmi(b, a))

    def test_near_zero_for_random_large_sample(self):
        rng = np.random.default_rng(37)
        truth = rng.integers(0, 2, size=10000)
        predicted = rng.integers(0, 2, size=10000)
        assert nmi(truth, predicted) <= 0.05

    def test_hand_computed_value_uses_the_geometric_mean(self):
        """Truth (3/4, 1/4) against predicted (1/2, 1/2): the entropies
        differ, so the arithmetic mean would give another value."""
        log = math.log
        h_truth = -(0.75 * log(0.75) + 0.25 * log(0.25))
        h_pred = log(2)
        info = 0.5 * log(0.5 / 0.375) + 0.25 * log(0.25 / 0.375) + 0.25 * log(0.25 / 0.125)
        assert h_truth != pytest.approx(h_pred)
        assert nmi([0, 0, 0, 1], [0, 0, 1, 1]) == pytest.approx(
            info / math.sqrt(h_truth * h_pred), rel=1e-12)

    def test_degenerate_entropies(self):
        assert nmi([0, 0, 0], [1, 1, 1]) == 1.0
        assert nmi([0, 0, 0], [0, 1, 2]) == 0.0

    @pytest.mark.parametrize("n, labels", [(13, 4), (7, 3)])
    def test_one_single_label_side_is_exactly_zero(self, n, labels):
        """The single label's probabilities sum to 1 only up to rounding, so
        its computed entropy is not exactly 0; the single-label case must
        not depend on it."""
        spread, single = np.arange(n) % labels, np.zeros(n)
        assert nmi(spread, single) == 0.0
        assert nmi(single, spread) == 0.0


class TestSilhouette:
    def test_two_tight_far_clusters(self):
        rng = np.random.default_rng(41)
        a = rng.normal(scale=0.05, size=(20, 3))
        b = rng.normal(scale=0.05, size=(20, 3)) + 10.0
        x = np.vstack([a, b])
        labels = np.array([0] * 20 + [1] * 20)
        assert silhouette(x, labels) >= 0.9

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n = int(rng.integers(5, 50))
            k = int(rng.integers(2, 5))
            x = rng.normal(size=(n, 3))
            labels = rng.integers(0, k, size=n)
            if np.unique(labels).size < 2:
                labels[0] = 0
                labels[1] = 1
            assert silhouette(x, labels) == pytest.approx(
                direct_silhouette(x, labels), abs=1e-10
            )

    def test_offset_shared_by_all_rows_leaves_the_score(self):
        """The rows are centred before the product form, so its error does
        not grow with |x|^2: a labelling of x + 1e6 scores as x does."""
        rng = np.random.default_rng(53)
        x = rng.normal(size=(60, 8))
        labels = rng.integers(0, 4, size=60)
        assert silhouette(x + 1e6, labels) == pytest.approx(
            direct_silhouette(x, labels), abs=1e-10
        )

    def test_scores_bounded(self):
        rng = np.random.default_rng(47)
        x = rng.normal(size=(30, 2))
        labels = rng.integers(0, 3, size=30)
        assert -1.0 <= silhouette(x, labels) <= 1.0

    def test_shared_pass_equals_separate_calls(self, monkeypatch):
        rng = np.random.default_rng(6)
        n = 500
        x = rng.normal(size=(n, 2))
        labellings = [rng.integers(0, 220, size=n) for _ in range(45)]
        with_singleton = rng.integers(0, 5, size=n)
        with_singleton[17] = 9
        labellings += [with_singleton, rng.integers(0, 2, size=n)]
        # 120 rows a chunk of 2N values: five chunks, the last one short.
        monkeypatch.setattr(distances, "BLOCK_ELEMENTS", 240 * n)
        assert silhouettes(x, labellings) == [silhouette(x, l) for l in labellings]

    def test_shared_pass_holds_one_distance_chunk(self):
        """21 labellings of 1 000 rows in 64 columns: the peak is one block
        of BLOCK_ELEMENTS values (the centred (N, c) copy of the rows, which
        fits in one here), two (rows, N) arrays of one row chunk's
        ``distances.expanded`` product and three (L, N) arrays (coded
        labels, sort orders and scores).  The chunks are half as tall as
        the bound allows, since the product's two (rows, N) arrays share
        one budget; the slack covers the product's other temporaries and
        one labelling's gather of the chunk's columns.  All of it is less
        than the (N, N) distance matrix the pass never holds whole."""
        rng = np.random.default_rng(7)
        n, c = 1000, 64
        x = rng.normal(size=(n, c))
        labellings = [rng.integers(0, k, size=n) for k in range(2, 23)]
        rows = max(1, distances.BLOCK_ELEMENTS // n)
        tracemalloc.start()
        try:
            silhouettes(x, labellings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (distances.BLOCK_ELEMENTS * 8 + 2 * rows * n * 8
                        + 3 * len(labellings) * n * 8)
        assert peak < n * n * 8

    def test_shared_pass_is_independent_of_blas_threads(self):
        """The distances come from a matrix product with inner dimension
        c, and the per-cluster sums go through no matrix product, so 1 and
        2 BLAS threads give the same bits."""
        script = (
            "import numpy as np\n"
            "from transfercluster.metrics import silhouettes\n"
            "rng = np.random.default_rng(0)\n"
            "x = rng.normal(size=(1000, 64))\n"
            "labellings = [rng.integers(0, k, 1000) for k in range(2, 26)]\n"
            "print(np.array(silhouettes(x, labellings)).tobytes().hex())\n"
        )
        src = str(Path(distances.__file__).resolve().parents[1])
        outputs = []
        for threads in ("1", "2"):
            path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=path)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, check=True)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_single_cluster_raises(self):
        with pytest.raises(ParameterError):
            silhouette(np.zeros((5, 2)), np.zeros(5, dtype=int))


class TestCountError:
    def test_values(self):
        assert count_error(30, 34) == 4
        assert count_error(10, 11) == 1
        assert count_error(7, 7) == 0

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            count_error(-1, 3)


def test_evaluate_clustering_bundles_metrics():
    truth = np.array([0, 0, 1, 1])
    predicted = np.array([1, 1, 0, 0])
    report = evaluate_clustering(truth, predicted)
    assert report.acc == 1.0
    assert report.nmi == pytest.approx(1.0)
    assert report.n_points == 4
