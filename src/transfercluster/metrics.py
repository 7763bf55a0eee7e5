"""Clustering evaluation: accuracy under optimal matching, NMI, Silhouette.

Accuracy matches clusters to classes one-to-one by maximum-weight
bipartite matching on the contingency table, so it is invariant to any
relabeling on either side.  The table may be rectangular; rows of
unmatched clusters count as errors.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import distances
from .errors import ParameterError


@dataclass
class EvalReport:
    acc: float
    nmi: float
    n_points: int
    matching: dict


def _check_pair(truth, predicted):
    truth = np.asarray(truth)
    predicted = np.asarray(predicted)
    if truth.ndim != 1 or predicted.ndim != 1 or truth.shape != predicted.shape:
        raise ParameterError(
            f"label arrays must be 1-D and equal length, got {truth.shape} and {predicted.shape}"
        )
    if truth.size == 0:
        raise ParameterError("label arrays must be non-empty")
    return truth, predicted


def _contingency(truth, predicted):
    classes, t_idx = np.unique(truth, return_inverse=True)
    clusters, p_idx = np.unique(predicted, return_inverse=True)
    table = np.zeros((clusters.size, classes.size), dtype=np.int64)
    np.add.at(table, (p_idx, t_idx), 1)
    return table, clusters, classes


def clustering_accuracy(truth, predicted):
    """Fraction of rows correct under the best cluster-to-class matching.

    Returns ``(acc, matching)`` where matching maps cluster labels to
    class labels, injectively.  Ties between equally good matchings
    resolve toward the lowest cluster and class indices.
    """
    truth, predicted = _check_pair(truth, predicted)
    table, clusters, classes = _contingency(truth, predicted)
    n_r, n_c = table.shape
    # Integer weights: counts dominate; the additive term prefers
    # low-index pairs among equal-weight matchings.
    span = n_r * n_c
    weight = table * (span + 1)
    tie = (span - 1 - (np.arange(n_r)[:, None] * n_c + np.arange(n_c)[None, :]))
    rows, cols = linear_sum_assignment(weight + tie, maximize=True)
    matched = int(table[rows, cols].sum())
    matching = {clusters[r].item(): classes[c].item() for r, c in zip(rows, cols)}
    return matched / truth.size, matching


def nmi(truth, predicted) -> float:
    """Mutual information normalised by the geometric mean of entropies.

    Natural logarithms.  Two single-cluster partitions score 1.0; if
    exactly one side is single-cluster the score is 0.0.
    """
    truth, predicted = _check_pair(truth, predicted)
    table, _, _ = _contingency(truth, predicted)
    n = truth.size
    joint = table / n
    p_cluster = joint.sum(axis=1)
    p_class = joint.sum(axis=0)

    def entropy(dist):
        nz = dist[dist > 0]
        return float(-(nz * np.log(nz)).sum())

    h_cluster = entropy(p_cluster)
    h_class = entropy(p_class)
    if h_cluster == 0.0 and h_class == 0.0:
        return 1.0
    if h_cluster == 0.0 or h_class == 0.0:
        return 0.0
    nz = joint > 0
    outer = p_cluster[:, None] * p_class[None, :]
    info = float((joint[nz] * np.log(joint[nz] / outer[nz])).sum())
    return float(np.clip(info / np.sqrt(h_cluster * h_class), 0.0, 1.0))


def silhouette(data, predicted) -> float:
    """Mean silhouette score under Euclidean distance.

    Per point: (b - a) / max(a, b) with a the mean distance to the rest
    of its own cluster and b the smallest mean distance to another
    cluster.  Points in singleton clusters score 0.
    """
    x = np.asarray(data, dtype=np.float64)
    predicted = np.asarray(predicted)
    if x.ndim != 2 or predicted.shape != (x.shape[0],):
        raise ParameterError("data must be (N, c) with one cluster label per row")
    if x.shape[0] < 2:
        raise ParameterError("silhouette needs at least 2 points")
    if np.unique(predicted).size < 2:
        raise ParameterError("silhouette is undefined with fewer than 2 clusters")
    return silhouettes(x, [predicted])[0]


def silhouettes(x, labellings) -> list[float]:
    """Mean silhouette score of each labelling of the same rows of ``x``.

    Each row chunk's distances to every row are computed once, from
    explicit coordinate differences (numerically exact, unlike the
    expanded dot-product form), and shared by all labellings.  A
    labelling sorts its coded labels once (stably); the chunk's columns
    in that order, summed over each cluster's segment by
    ``np.add.reduceat``, give each chunk row's summed distance to every
    cluster.  The sums go through no matrix product, so their bits do
    not depend on the BLAS thread count.  Chunks are the
    :func:`distances.row_blocks` of the (N, N) distance matrix, so each
    (rows, N) chunk holds at most ``distances.BLOCK_ELEMENTS`` values,
    and :func:`distances.exact` builds its differences in sub-blocks of
    the same budget.  Inputs are not validated: ``x`` is a float (N, c)
    array and every labelling has one label per row and at least 2
    clusters, as :func:`silhouette` checks.
    """
    n = x.shape[0]
    coded = [np.unique(labels, return_inverse=True)[1] for labels in labellings]
    counts = [np.bincount(idx) for idx in coded]
    # No coded cluster is empty, so every reduceat segment is non-empty.
    orders = [np.argsort(idx, kind="stable") for idx in coded]
    starts = [np.cumsum(c) - c for c in counts]
    scores = np.zeros((len(coded), n))
    for rows in distances.row_blocks(n, n):
        dist = np.sqrt(distances.exact(x[rows], x))
        for i, (order, first) in enumerate(zip(orders, starts)):
            sums = np.add.reduceat(dist[:, order], first, axis=1)
            scores[i, rows] = _row_scores(sums, coded[i][rows], counts[i])
    return [float(row.mean()) for row in scores]


def _row_scores(sums, idx, counts):
    # sums[r, j]: summed distance from row r to the members of cluster j.
    rows = np.arange(idx.size)
    own = counts[idx]
    multi = own > 1
    a = np.zeros(idx.size)
    a[multi] = sums[multi, idx[multi]] / (own[multi] - 1)
    mean_other = sums / counts[None, :]
    mean_other[rows, idx] = np.inf
    b = mean_other.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.zeros(idx.size)
    scores[multi] = (b[multi] - a[multi]) / denom[multi]
    return scores


def count_error(k_true: int, k_est: int) -> int:
    """Absolute error in an estimated category count."""
    if k_true < 0 or k_est < 0:
        raise ParameterError("counts must be non-negative")
    return abs(int(k_true) - int(k_est))


def evaluate_clustering(truth, predicted) -> EvalReport:
    """Accuracy and NMI for one prediction against ground truth."""
    acc, matching = clustering_accuracy(truth, predicted)
    return EvalReport(acc, nmi(truth, predicted), len(np.asarray(truth)), matching)
