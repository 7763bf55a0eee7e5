"""Clustering evaluation: accuracy under optimal matching, NMI, Silhouette.

Accuracy matches clusters to classes one-to-one by maximum-weight
bipartite matching on the contingency table, so it is invariant to any
relabeling on either side.  The table may be rectangular; rows of
unmatched clusters count as errors.
"""

from dataclasses import dataclass

import numpy as np

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
    class labels, injectively, and pairs ``min(clusters, classes)`` of
    them.  Among such matchings it has the largest matched count; among
    those, the side with labels left over (clusters or classes) matches
    the set with the smallest index sum, where indices are positions in
    the sorted labels; a tie left after that is decided by the order of
    :func:`_max_weight_matching`.
    """
    truth, predicted = _check_pair(truth, predicted)
    table, clusters, classes = _contingency(truth, predicted)
    n_r, n_c = table.shape
    # Integer weights: counts dominate; the additive term sums to a
    # constant minus the index sum of the side with labels left over.
    span = n_r * n_c
    weight = table * (span + 1)
    tie = (span - 1 - (np.arange(n_r)[:, None] * n_c + np.arange(n_c)[None, :]))
    rows, cols = _max_weight_matching(weight + tie)
    matched = int(table[rows, cols].sum())
    matching = {clusters[r].item(): classes[c].item() for r, c in zip(rows, cols)}
    return matched / truth.size, matching


def _max_weight_matching(weight):
    """``(rows, cols)`` of a maximum-weight matching of ``min(n_r, n_c)``
    pairs in a non-empty (n_r, n_c) integer table, sorted by row.

    Shortest augmenting paths (Jonker & Volgenant 1987) in the
    rectangular form and scan order of Crouse (2016), as scipy's
    ``linear_sum_assignment`` runs them, so ties go the same way: costs
    are the negated weights, transposed to have no more rows than
    columns; rows augment in index order; each path search scans the
    unvisited columns, initially ``n_c - 1 .. 0``, and removes the column
    it takes by swapping in the last one; among columns tied at the least
    path cost it takes the last free one, else the first.  The weights
    are integers far below 2**53, so every path cost and dual is an exact
    float64 integer and the ties compare exactly.
    """
    cost = -np.asarray(weight, dtype=np.float64)
    transpose = cost.shape[0] > cost.shape[1]
    if transpose:
        cost = cost.T
    n_r, n_c = cost.shape
    u, v = np.zeros(n_r), np.zeros(n_c)
    col4row = np.full(n_r, -1)
    row4col = np.full(n_c, -1)
    path = np.full(n_c, -1)
    for cur in range(n_r):
        shortest = np.full(n_c, np.inf)
        remaining = np.arange(n_c - 1, -1, -1)
        n_left = n_c
        i, low, sink = cur, 0.0, -1
        while sink < 0:
            left = remaining[:n_left]
            reduced = low + cost[i, left] - u[i] - v[left]
            better = reduced < shortest[left]
            path[left[better]] = i
            shortest[left[better]] = reduced[better]
            costs = shortest[left]
            low = costs.min()
            tied = np.flatnonzero(costs == low)
            free = tied[row4col[left[tied]] < 0]
            index = free[-1] if free.size else tied[0]
            j = left[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            n_left -= 1
            remaining[index], remaining[n_left] = remaining[n_left], j
        # remaining[n_left:] holds the columns the search reached, the
        # sink first; the other ones lead to the rows it visited.
        reached = remaining[n_left:]
        u[cur] += low
        u[row4col[reached[1:]]] += low - shortest[reached[1:]]
        v[reached] -= low - shortest[reached]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        order = np.argsort(col4row)
        return col4row[order], order
    return np.arange(n_r), col4row


def nmi(truth, predicted) -> float:
    """Mutual information normalised by the geometric mean of entropies.

    Natural logarithms.  Two single-cluster partitions score 1.0; if
    exactly one side is single-cluster the score is 0.0.
    """
    truth, predicted = _check_pair(truth, predicted)
    table, _, _ = _contingency(truth, predicted)
    if table.shape == (1, 1):
        return 1.0
    if 1 in table.shape:
        return 0.0
    n = truth.size
    joint = table / n
    p_cluster = joint.sum(axis=1)
    p_class = joint.sum(axis=0)

    def entropy(dist):
        nz = dist[dist > 0]
        return float(-(nz * np.log(nz)).sum())

    h_cluster = entropy(p_cluster)
    h_class = entropy(p_class)
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
        dist = distances.exact(x[rows], x)
        np.sqrt(dist, out=dist)
        for i, (order, first) in enumerate(zip(orders, starts)):
            sums = np.add.reduceat(dist[:, order], first, axis=1)
            scores[i, rows] = _row_scores(sums, coded[i][rows], counts[i])
        del dist   # free this chunk before the next one is built
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
