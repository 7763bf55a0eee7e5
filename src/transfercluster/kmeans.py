"""Seeded k-means and its anchored (semi-supervised) variant.

Both run the same Lloyd engine: k-means++ seeding, squared-Euclidean
assignment, mean updates, and empty-cluster repair by reseeding at the
point farthest from its own center.  The anchored variant takes one
integer per row, ``pinned``: a row's fixed cluster, or -1 for a free
row.  Pinned rows never change cluster but still pull on their
cluster's centroid; plain k-means is the case with every row at -1.

Each call runs ``N_INIT`` independent seedings of at most ``MAX_ITER``
Lloyd iterations, stopping once no center moves by ``TOL`` or more, and
keeps the lowest final inertia (first winner on ties), all derived
deterministically from the seed.  The seedings are drawn first and the
restarts then iterate in lockstep.  A label pass puts each free row at
``argmin_k |mu_k|^2 - 2 x.mu_k`` for every running restart, from one
product against their centers stacked; |x|^2 is the same for every k,
so it is left out.  Rounding makes that differ from the argmin of
:func:`distances.expanded`, or from a product against one restart's
centers alone, only where two centers' rounded distances tie.  The
centroid sums are each restart's own ``onehot.T @ x``, so off ties every
restart ends with the centers, assignment, inertia and iteration count
it reaches run on its own.
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


def _label_pass(x, centers, labels, active):
    """Relabel ``x`` for the ``active`` restarts; return which ones moved.

    ``centers`` is (R, k, d), one set per restart, and ``labels`` the
    (R, n) label matrix, overwritten in the active rows.  One product
    against the active restarts' centers stacked gives ``|mu|^2 - 2 x.mu``
    for every row and center, and each restart takes the argmin over its
    own k columns.  Rows go in blocks of n // A for A active restarts, so
    a block of scores holds at most n * k values.
    """
    k, d = centers.shape[1:]
    scaled = centers[active].reshape(-1, d)
    mu_sq = np.einsum("kc,kc->k", scaled, scaled)
    scaled *= -2.0
    moved = np.zeros(active.size, dtype=bool)
    step = max(1, x.shape[0] // active.size)
    for start in range(0, x.shape[0], step):
        block = slice(start, start + step)
        scores = x[block] @ scaled.T
        scores += mu_sq
        nearest = scores.reshape(scores.shape[0], active.size, k).argmin(axis=2).T
        moved |= (labels[active, block] != nearest).any(axis=1)
        labels[active, block] = nearest
    return moved


def _lloyd(x, x_sq, starts, anchor_rows, anchor_cluster, free_idx):
    """Lloyd iterations of every restart in lockstep; yields each
    restart's :class:`KmeansResult` in order.

    ``starts`` is a float (R, k, d) array of start centers, overwritten
    with the moving centers.  Each iteration labels the free rows of the
    running restarts in one :func:`_label_pass`.  Each restart then takes
    its own ``onehot.T @ x`` centroid sums from one (n, k) one-hot buffer,
    which flips only the rows whose label differs from what it shows.
    Unmoved labels after a repair-free update mean shift 0, so that
    restart stops without a centroid pass; those that stop with a nonzero
    shift get one more label pass, so each assignment matches its centers.
    ``x_sq`` (|x|^2 per row) is read only in an update that leaves a
    cluster empty, whose repair builds the ``expanded`` distances.
    """
    centers = starts
    n_runs, k = centers.shape[:2]
    free_x = x[free_idx]
    free_labels = np.full((n_runs, free_idx.size), -1)
    anchor_counts = np.bincount(anchor_cluster, minlength=k)
    onehot = np.zeros((x.shape[0], k))
    onehot[anchor_rows, anchor_cluster] = 1.0
    onehot[free_idx, 0] = 1.0
    shown = np.zeros(free_idx.size, dtype=np.int64)   # the free labels onehot shows
    iterations = np.zeros(n_runs, dtype=int)
    repair_free = np.zeros(n_runs, dtype=bool)
    running = np.arange(n_runs)
    relabel = []   # restarts that stopped with a nonzero shift
    while running.size:
        moved = _label_pass(free_x, centers, free_labels, running)
        still_running = []
        for r, run_moved in zip(running, moved):
            iterations[r] += 1
            if not run_moved and repair_free[r]:
                continue
            labels = free_labels[r]
            counts = np.bincount(labels, minlength=k) + anchor_counts
            flip = np.flatnonzero(labels != shown)
            onehot[free_idx[flip], shown[flip]] = 0.0
            shown[flip] = labels[flip]
            onehot[free_idx[flip], shown[flip]] = 1.0
            new_centers = onehot.T @ x
            new_centers /= np.maximum(counts, 1)[:, None]
            # Empty clusters reseed at the free point farthest from its center.
            empty = np.flatnonzero(counts == 0)
            repair_free[r] = empty.size == 0
            if empty.size:
                d2 = distances.expanded(x, centers[r], x_sq)[free_idx, labels]
                taken = np.zeros(free_idx.size, dtype=bool)
            for j in empty:
                candidates = np.flatnonzero(~taken)
                if candidates.size == 0:
                    raise ParameterError("not enough free rows to repair empty clusters")
                pick = candidates[np.argmax(d2[candidates])]
                new_centers[j] = free_x[pick]
                taken[pick] = True
            shift = np.sqrt(((new_centers - centers[r]) ** 2).sum(axis=1)).max()
            centers[r] = new_centers
            if shift >= TOL and iterations[r] < MAX_ITER:
                still_running.append(r)
            elif shift != 0.0:
                relabel.append(r)
        running = np.array(still_running, dtype=int)
    # Final assignments consistent with the returned centers.  Centers that
    # did not move give the last iteration's labels again.
    if relabel:
        _label_pass(free_x, centers, free_labels, np.array(relabel))
    del onehot, shown, free_x
    for r in range(n_runs):
        labels = np.empty(x.shape[0], dtype=np.int64)
        labels[anchor_rows] = anchor_cluster
        labels[free_idx] = free_labels[r]
        yield KmeansResult(centers[r].copy(), labels,
                           _exact_inertia(x, centers[r], labels), int(iterations[r]))


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
    pinned = np.asarray(pinned)
    if pinned.shape != (n,):
        raise ParameterError(f"pinned must have shape ({n},), got {pinned.shape}")
    if not (pinned == np.trunc(pinned)).all():
        raise ParameterError("pinned cluster ids must be integers")
    if pinned.min() < -1 or pinned.max() >= k:
        raise ParameterError(f"pinned cluster ids must lie in -1..{k - 1}")
    pinned = pinned.astype(np.int64)

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

    starts = np.array([
        np.vstack([anchor_centers,
                   _plusplus_init(free_x, free_sq, n_free_clusters,
                                  rng_for(seed, "kmeans", run), anchor_centers)])
        for run in range(N_INIT)
    ])
    del free_x, free_sq
    # min keeps the first of equal inertias.
    return min(_lloyd(x, x_sq, starts, anchor_rows, anchor_cluster, free_idx),
               key=lambda result: result.inertia)


def kmeans(data, k: int, seed: int = 0) -> KmeansResult:
    """Plain seeded k-means with k-means++ initialization: every row free."""
    x = np.asarray(data, dtype=np.float64)
    return constrained_kmeans(x, k, np.full(x.shape[:1], -1), seed=seed)
