"""Seeded k-means and its anchored (semi-supervised) variant.

Both run the same Lloyd engine: k-means++ seeding, squared-Euclidean
assignment, mean updates, and empty-cluster repair by reseeding at the
point farthest from its own center.  A label pass puts each row at
``argmin_k |mu_k|^2 - 2 x.mu_k``, one (N, K) array from one matrix
product; |x|^2 is the same for every k, so it is left out.  Rounding
makes that differ from the argmin of :func:`distances.expanded` only
where two centers' rounded distances tie.  The anchored variant takes one
integer per row, ``pinned``: a row's fixed cluster, or -1 for a free
row.  Pinned rows never change cluster but still pull on their
cluster's centroid; plain k-means is the case with every row at -1.

Each call runs ``N_INIT`` independent seedings of at most ``MAX_ITER``
Lloyd iterations, stopping once no center moves by ``TOL`` or more, and
keeps the lowest final inertia (first winner on ties), all derived
deterministically from the seed.
"""

from dataclasses import dataclass

import numpy as np

from . import distances
from .errors import DataError, ParameterError
from .seeding import rng_for

N_INIT = 10      # k-means++ restarts per call
MAX_ITER = 300   # Lloyd iterations per restart
TOL = 1e-6       # largest center shift that counts as converged


@dataclass
class KmeansResult:
    """A k-means fit.

    ``inertia`` is the exact within-cluster sum of squares of the returned
    centers and assignment.
    """

    centers: np.ndarray
    assignment: np.ndarray
    inertia: float
    iterations: int


def _exact_inertia(x, centers, labels):
    diff = centers[labels]
    # In place: a second (n, d) temporary would be freed and faulted back in every call.
    np.subtract(x, diff, out=diff)
    return float(np.einsum("nc,nc->", diff, diff))


def _plusplus_init(x, x_sq, n_new, rng, existing):
    """k-means++ seeding over ``x``; existing centers join the D^2 pool.

    The first draw is uniform only when there are no existing centers.
    Raises once every row sits on a chosen or existing center, since a
    further seed would duplicate a center and leave a cluster empty.
    """
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
            idx = int(rng.choice(n, p=d2 / total))
        chosen[j] = x[idx]
        d2 = np.minimum(d2, distances.expanded(x, chosen[j : j + 1], x_sq)[:, 0])
    return chosen


def _labels(x, centers, anchor_rows, anchor_cluster):
    """Each row's nearest center by ``|mu|^2 - 2 x.mu``; pinned rows keep theirs."""
    scores = x @ (-2.0 * centers).T
    scores += np.einsum("kc,kc->k", centers, centers)
    labels = scores.argmin(axis=1)
    labels[anchor_rows] = anchor_cluster
    return labels


def _lloyd(x, x_sq, centers, anchor_rows, anchor_cluster, free_idx, k):
    """Lloyd iterations from ``centers``, pinned rows held at their clusters.

    Labels come from :func:`_labels`.  Scaling the centers by -2 is exact,
    so its product is exactly -2 times the one inside
    :func:`distances.expanded`; the labels can differ from that
    function's argmin only where two centers' rounded distances tie.
    ``x_sq`` (|x|^2 per row) is read only in an iteration that leaves a
    cluster empty, whose repair builds the ``expanded`` distances.
    """
    n = x.shape[0]
    rows = np.arange(n)
    onehot = np.zeros((n, k))
    for iterations in range(1, MAX_ITER + 1):
        labels = _labels(x, centers, anchor_rows, anchor_cluster)

        counts = np.bincount(labels, minlength=k)
        onehot[rows, labels] = 1.0
        sums = onehot.T @ x
        onehot[rows, labels] = 0.0
        new_centers = np.where(counts[:, None] > 0,
                               sums / np.maximum(counts, 1)[:, None], centers)
        # Empty clusters reseed at the free point farthest from its center.
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
        if shift < TOL:
            break
    # Final assignment consistent with the returned centers.  Centers that
    # did not move give the last iteration's labels again.
    if shift != 0.0:
        labels = _labels(x, centers, anchor_rows, anchor_cluster)
    return KmeansResult(centers, labels, _exact_inertia(x, centers, labels), iterations)


def constrained_kmeans(data, k: int, pinned, seed: int = 0) -> KmeansResult:
    """Lloyd's algorithm with some rows pinned to fixed clusters.

    ``pinned`` holds one integer per row: the row's fixed cluster, or -1
    for a free row.  The pinned ids must cover 0..A-1, each with at least
    one row; free clusters take the remaining ids A..k-1.  Anchor
    clusters start at the mean of their pinned rows; free clusters are
    seeded by k-means++ over the free rows (with the anchor centers
    already in the D^2 pool).  With every row free this is exactly
    :func:`kmeans` and produces bit-identical results for the same seed.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2:
        raise ParameterError(f"data must be 2-D, got shape {x.shape}")
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ParameterError(f"k must be in [1, {n}], got {k}")
    pinned = np.asarray(pinned, dtype=np.int64)
    if pinned.shape != (n,):
        raise ParameterError(f"pinned must have shape ({n},), got {pinned.shape}")
    if pinned.min() < -1 or pinned.max() >= k:
        raise ParameterError(f"pinned cluster ids must lie in -1..{k - 1}")

    anchor_rows = np.flatnonzero(pinned >= 0)
    anchor_cluster = pinned[anchor_rows]
    free_idx = np.flatnonzero(pinned < 0)
    n_anchor_clusters = int(anchor_cluster.max()) + 1 if anchor_rows.size else 0
    anchor_centers = np.empty((n_anchor_clusters, x.shape[1]))
    for c in range(n_anchor_clusters):
        members = anchor_rows[anchor_cluster == c]
        if members.size == 0:
            raise DataError(f"anchor cluster {c} has no anchor rows")
        anchor_centers[c] = x[members].mean(axis=0)
    free_x = x[free_idx]
    n_free_clusters = k - n_anchor_clusters
    if n_free_clusters > free_x.shape[0]:
        raise ParameterError(
            f"{n_free_clusters} free clusters but only {free_x.shape[0]} free rows"
        )
    x_sq = np.einsum("nc,nc->n", x, x)
    free_sq = x_sq[free_idx]

    best = None
    for run in range(N_INIT):
        rng = rng_for(seed, "kmeans", run)
        free_centers = _plusplus_init(free_x, free_sq, n_free_clusters, rng, anchor_centers)
        result = _lloyd(x, x_sq, np.vstack([anchor_centers, free_centers]),
                        anchor_rows, anchor_cluster, free_idx, k)
        if best is None or result.inertia < best.inertia:
            best = result
    return best


def kmeans(data, k: int, seed: int = 0) -> KmeansResult:
    """Plain seeded k-means with k-means++ initialization: every row free."""
    x = np.asarray(data, dtype=np.float64)
    return constrained_kmeans(x, k, np.full(x.shape[:1], -1), seed=seed)
