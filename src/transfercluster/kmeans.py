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
deterministically from the seed.  All seedings are drawn in lockstep,
each from its own generator and its own ``x @ c`` product per draw, so
each is bit for bit the seeding its generator gives alone.  The restarts
then iterate in lockstep too.  A label pass puts each free row at the
exact argmin over k of |x - mu_k|^2 for every running restart wherever
a float32 pass can certify it (below), and elsewhere at the float64
``argmin_k |mu_k|^2 - 2 x.mu_k``; |x|^2 is the same for every k, so it
is left out.  Rounding makes either differ from the argmin of
:func:`distances.expanded`, or from a float64 product against one
restart's centers alone, only where two centers' rounded distances tie.
The centroid sums are each restart's own ``onehot.T @ x``, and the
division, empty test and shift run elementwise or per row over all
restarts at once, so off ties every restart ends with the centers,
assignment, inertia and iteration count it reaches run on its own.
Non-finite data raises :class:`DataError`, and a k-means++ draw whose D^2
total overflows raises :class:`NumericalError`.

Certified float32 labels.  Let u = 2^-24 be float32's unit roundoff,
gamma_n = n u / (1 - n u), and m the free rows' float64 mean.  For a
free row x and a center mu with c coordinates, let a = x - m and
b = mu - m exactly.  Then |x - mu|^2 = |a|^2 + T with

    T = |b|^2 - 2 a.b,

so the argmin of T over a restart's k centers is the exact label.  The
pass forms each score S of T in these steps, each within the stated
error (dot-product bounds: Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., 2002, section 3.1):

* centring in float64: x^ = fl64(x - m) and mu^ = fl64(mu - m), each
  coordinate within 2^-53 of a or b relatively.  X = fl64(|x^|^2) is
  the row's, and M the largest fl64(|mu^|^2) of the restart's centers;
* rounding the inputs to float32: x' = fl32(x^) and w = fl32(-2 mu^),
  each coordinate within u relatively (the factor -2 is exact);
* the length-c dot product d = x'.w in float32, summed in whatever
  order and blocking the BLAS uses: within gamma_c sum_t |x'_t w_t| of
  x'.w.  With the input roundings, d is within gamma_{c+2} 2 sum_t
  |a_t b_t| <= gamma_{c+2} (|a|^2 + |b|^2) of -2 a.b, to float64 terms;
* |mu|^2: q = fl32(fl64(|mu^|^2)), within u + (c + 2) 2^-53 of |b|^2
  relatively;
* the final add S = fl32(q + d) errs by at most u |q + d|, and
  |q + d| <= |a|^2 + 2 |b|^2 to first order.

To first order that is |S - T| <= (c + 5) u (|a|^2 + |b|^2).  With the
float64 terms, the higher-order terms and |a|^2 + |b|^2 <= (X + M)
(1 + O(c 2^-53)), every score of the pair is within

    B = gamma_{c+5} (X + M) + (c + 1) 2^-148

of its T, for c below 2^20.  The last term covers float32 underflow,
where a rounding may err by 2^-150 absolutely; it adds at most
(4 c + 3) 2^-150.  ``tests/test_kmeans.py`` checks the constants in
exact rational arithmetic.

Let s be the least of the pair's k scores and j its exact argmin.  Then
S_j <= T_j + B <= T_i + B <= S_i + 2 B for every i, so S_j <= s + 2 B.
When only one score lies at or below s + 2 B it is the exact argmin,
and the pass reads the label from that entry.  The threshold is formed
in float32 as s + (r + h), rounding to nearest, from the row's
r = fl32(2 gamma_{c+8} X) and the restart's h = fl32(2 gamma_{c+8} M +
(c + 1) 2^-146).  Since |s| <= 2 (X + M) + B, those roundings and the
two adds take less than 4 u (X + M) + 2^-148 off the exact sum.  The
margin exceeds 2 B by 2 (gamma_{c+8} - gamma_{c+5}) (X + M) >= 6 u (X + M)
and by (c + 1) 2^-147, which covers that, so the threshold is never
below s + 2 B.

A row with X at or above 2^100, or a restart whose M is not below it,
is never certified: its float32 values are zeroed, and its threshold is
NaN, which no score is at or below.  Below that gate no float32 value
overflows, so every certified score is finite.  Every pair left
uncertified -- exact ties, near ties within 2 B, gated rows and
restarts -- is labelled by the float64 ``argmin_k |mu_k|^2 - 2 x.mu_k``
of the row as ``x`` holds it.  A certified label is the exact argmin,
so it differs from that float64 argmin only where the float64 one is
not exact, that is at a float64 rounding tie: the contract above.
"""

import operator
from dataclasses import dataclass

import numpy as np

from . import distances
from .errors import DataError, NumericalError, ParameterError
from .seeding import rng_for

N_INIT = 10      # k-means++ restarts per call
MAX_ITER = 300   # Lloyd iterations per restart
TOL = 1e-6       # largest center shift that counts as converged
_U32 = 2.0**-24  # float32 unit roundoff
_GATE = 2.0**100  # |x - mean|^2 or a restart's largest |mu - mean|^2 at or above: no certificate
# float32 scores in one label block (1 MiB, half a 2 MiB L2), so the
# passes after the product read it from cache.  One thread of a 2-core
# Xeon took 8.4 / 6.2 / 6.2 / 6.9 ms for the blocks of one 10 000 x 40
# pass against 10 x 40 centers at 2 000 / 1 000 / 500 / 256 rows.
_SCORE_BLOCK = 1 << 18


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


def _plusplus_init(x, x_sq, n_new, rngs, existing):
    """k-means++ seeding over ``x``, one seeding per generator in ``rngs``,
    all drawn in lockstep; existing centers join the D^2 pool.

    Returns the (R, n_new) indices of the chosen rows for R generators.
    Each draw is what ``rng.choice(n, p=d2 / d2.sum())`` does and takes
    the same one double from ``rng``, so every seeding is the one its
    generator gives alone.  The first draw is uniform only when there are
    no existing centers.  Each restart's distances to its new center come
    from its own ``x @ c`` product; every other step runs on the (R, n)
    D^2 array at once, elementwise or per row, as :func:`distances.expanded`
    orders it.  Raises once every row sits on a chosen or existing center,
    since a further seed would duplicate a center and leave a cluster
    empty, and raises :class:`NumericalError` if a D^2 total overflows.
    """
    n, n_runs = x.shape[0], len(rngs)
    chosen = np.empty((n_runs, n_new), dtype=np.int64)
    if not n_new:
        return chosen
    # An overflowing D^2 raises NumericalError below, not a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if len(existing):
            d2 = np.tile(distances.expanded(x, existing, x_sq).min(axis=1), (n_runs, 1))
        else:
            d2 = np.full((n_runs, n), np.inf)
        new = np.empty((n_runs, n))    # the draw's distances, first its probabilities
        work = np.empty((n_runs, n))   # the draw's cdf, then its products
        for j in range(n_new):
            if j == 0 and not len(existing):
                chosen[:, 0] = [rng.integers(n) for rng in rngs]
            else:
                totals = d2.sum(axis=1)
                if not np.isfinite(totals).all():
                    raise NumericalError("k-means++ distances overflow; rescale the data")
                if (totals == 0).any():
                    raise ParameterError(
                        f"{n_new} free clusters but only {j} distinct free positions "
                        "off the anchor centers"
                    )
                np.divide(d2, totals[:, None], out=new)
                np.cumsum(new, axis=1, out=work)
                work /= work[:, -1:].copy()
                chosen[:, j] = [cdf.searchsorted(rng.random(), side="right")
                                for cdf, rng in zip(work, rngs)]
            if j + 1 == n_new:
                break
            centers = x[chosen[:, j]]
            for center, products in zip(centers, work):
                np.matmul(x, center, out=products)
            work *= 2.0
            np.add.outer(np.einsum("rc,rc->r", centers, centers), x_sq, out=new)
            new -= work
            np.maximum(new, 0.0, out=new)
            np.minimum(d2, new, out=d2)
    return chosen


class _FreeRows:
    """The free rows as the label passes read them.

    Built once per call in row blocks: ``rows`` holds the float32 rows
    fl32(x - mean) transposed, (c, n): a product of a few stacked centers
    against a block of its columns runs faster than against a block of
    rows (45.7 against 91.0 us for 9 centers and 2 200 x 64 rows, one
    thread).  ``margin`` holds each row's fl32(2 gamma_{c+8} X) (see the
    module docstring).  A row at or above the gate has zeros and a
    NaN margin.  The float64 fallback gathers rows from ``x`` by ``idx``.
    """

    def __init__(self, x, idx):
        n, c = idx.size, x.shape[1]
        self.x, self.idx = x, idx
        # 2 gamma_{c+8} and the threshold's underflow term; no certificate at c >= 2^20.
        ratio = (c + 8) * _U32
        self.coef = 2 * ratio / (1 - ratio) if c < 2**20 else np.nan
        self.floor = (c + 1) * 2.0**-146
        total = np.zeros(c)
        for block in distances.row_blocks(n, c):
            total += x[idx[block]].sum(axis=0)
        self.mean = total / max(n, 1)
        self.rows = np.empty((c, n), dtype=np.float32)
        sq = np.empty(n)
        for block in distances.row_blocks(n, c):
            part = x[idx[block]]
            part -= self.mean
            np.einsum("nc,nc->n", part, part, out=sq[block])
            part[~(sq[block] < _GATE)] = 0.0
            self.rows[:, block] = part.T
        sq[~(sq < _GATE)] = np.nan
        sq *= self.coef
        self.margin = sq.astype(np.float32)


def _nearest64(x, centers):
    """The float64 argmin over ``centers`` of ``|mu|^2 - 2 x.mu`` per row of ``x``."""
    scores = x @ (-2.0 * centers).T
    scores += np.einsum("kc,kc->k", centers, centers)
    return scores.argmin(axis=1)


def _label_pass(free, centers, labels, active):
    """Relabel the :class:`_FreeRows` ``free`` for the ``active``
    restarts; return which ones moved.

    ``centers`` is (R, k, d), one set per restart, and ``labels`` the
    (R, n) label matrix, overwritten in the active rows.  Each block of
    rows takes one float32 product against the active restarts' centred
    centers stacked, giving (A, k, rows) scores, so each restart's minimum
    runs along contiguous rows.  An integer ``einsum`` of the scores at or
    below the threshold against weights ``2**shift + i`` packs, per
    (restart, row) pair, how many there are (above ``shift``) and the sum
    of their indices (below it).  A count of one certifies the pair, and
    its index sum is the label (see the module docstring); the other
    pairs go to :func:`_nearest64` once every block is done.  Rows go in
    blocks of 2 n // A for A active restarts, so a block of scores holds
    at most as many bytes as n * k float64 values, and at most
    :data:`_SCORE_BLOCK` scores.
    """
    k, d = centers.shape[1:]
    centred = centers[active] - free.mean
    mu_sq = np.einsum("akc,akc->ak", centred, centred)
    widest = mu_sq.max(axis=1)
    gated = ~(widest < _GATE)
    if gated.any():
        centred[gated] = 0.0
        mu_sq[gated] = 0.0
        widest[gated] = np.nan
    widest *= free.coef
    widest += free.floor
    restart_margin = widest.astype(np.float32)[:, None]
    centred *= -2.0
    scaled = centred.astype(np.float32).reshape(-1, d)
    mu_sq = mu_sq.astype(np.float32)[:, :, None]
    # 2**shift exceeds any sum of distinct indices, and (k + 1) << shift
    # any weighted count, so the dtype holds every k.
    shift = (k * (k - 1) // 2).bit_length()
    top = (k + 1) << shift
    dtype = np.int32 if top <= 2**31 else np.int64 if top <= 2**63 else object
    weights = (1 << shift) + np.arange(k).astype(dtype)
    n = free.idx.size
    reach = free.margin + restart_margin   # the threshold's margin, (A, n)
    sums = np.empty((active.size, n), dtype=dtype)
    step = max(1, min(2 * n // active.size, _SCORE_BLOCK // (active.size * k)))
    for start in range(0, n, step):
        block = slice(start, start + step)
        scores = np.matmul(scaled, free.rows[:, block]).reshape(active.size, k, -1)
        scores += mu_sq
        bar = scores.min(axis=1)
        bar += reach[:, block]
        np.einsum("akr,k->ar", scores <= bar[:, None], weights, out=sums[:, block])
    doubt = (sums >> shift) != 1
    sums &= (1 << shift) - 1   # the label of each certified pair
    for a in np.flatnonzero(doubt.any(axis=1)):
        cols = np.flatnonzero(doubt[a])
        sums[a, cols] = _nearest64(free.x[free.idx[cols]], centers[active[a]])
    moved = (labels[active] != sums).any(axis=1)
    labels[active] = sums
    return moved


def _lloyd(x, x_sq, starts, anchor_rows, anchor_cluster, free_idx):
    """Lloyd iterations of every restart in lockstep; yields each
    restart's :class:`KmeansResult` in order.

    ``starts`` is a float (R, k, d) array of start centers, overwritten
    with the moving centers.  Each iteration labels the free rows of the
    running restarts in one :func:`_label_pass`, then updates every
    restart that needs it at once: one ``bincount`` for the counts, each
    restart's own ``onehot.T @ x`` centroid sums into its slot of one
    (U, k, d) array, then one division, one empty test and one shift for
    all U of them.  The (n, k) one-hot buffer is shared: each restart
    clears the free rows at the labels it shows and sets them at its own.
    Unmoved labels after a repair-free update mean shift 0, so that
    restart stops without a centroid pass; those that stop with a nonzero
    shift get one more label pass, so each assignment matches its centers.
    The label passes read the free rows from one :class:`_FreeRows`,
    built here in place of a float64 gather of them.  ``x_sq`` (|x|^2 per
    row) is read only in an update that leaves a cluster empty, whose
    repair builds the ``expanded`` distances and gathers its new centers'
    rows from ``x``.
    """
    centers = starts
    n_runs, k = centers.shape[:2]
    free = _FreeRows(x, free_idx)
    free_labels = np.full((n_runs, free_idx.size), -1)
    anchor_counts = np.bincount(anchor_cluster, minlength=k)
    onehot = np.zeros((x.shape[0], k))
    onehot[anchor_rows, anchor_cluster] = 1.0
    onehot[free_idx, 0] = 1.0
    flat = onehot.reshape(-1)
    free_base = free_idx * k
    shown = free_base   # the flat one-hot positions of the free rows' ones
    iterations = np.zeros(n_runs, dtype=int)
    repair_free = np.zeros(n_runs, dtype=bool)
    running = np.arange(n_runs)
    relabel = []   # restarts that stopped with a nonzero shift
    while running.size:
        moved = _label_pass(free, centers, free_labels, running)
        iterations[running] += 1
        update = running[moved | ~repair_free[running]]
        labels = free_labels[update]
        counts = np.bincount((labels + k * np.arange(update.size)[:, None]).ravel(),
                             minlength=update.size * k).reshape(update.size, k)
        counts += anchor_counts
        new_centers = np.empty((update.size, k, x.shape[1]))
        for u in range(update.size):
            flat[shown] = 0.0
            shown = free_base + labels[u]
            flat[shown] = 1.0
            np.matmul(onehot.T, x, out=new_centers[u])
        new_centers /= np.maximum(counts, 1)[:, :, None]
        # Empty clusters, in index order, reseed at the free points farthest
        # from their centers, first row first on ties; only free clusters empty.
        empty = counts == 0
        repair_free[update] = ~empty.any(axis=1)
        for u in np.flatnonzero(~repair_free[update]):
            d2 = distances.expanded(x, centers[update[u]], x_sq)[free_idx, labels[u]]
            holes = np.flatnonzero(empty[u])
            new_centers[u, holes] = x[free_idx[np.argsort(-d2, kind="stable")[:holes.size]]]
        diff = centers[update]
        np.subtract(new_centers, diff, out=diff)
        diff *= diff
        shift = np.sqrt(diff.sum(axis=2)).max(axis=1)
        centers[update] = new_centers
        going = (shift >= TOL) & (iterations[update] < MAX_ITER)
        relabel.extend(update[~going & (shift != 0.0)])
        running = update[going]
        del labels, new_centers, diff   # the next label pass runs without them
    # Final assignments consistent with the returned centers.  Centers that
    # did not move give the last iteration's labels again.
    if relabel:
        _label_pass(free, centers, free_labels, np.array(relabel))
    del onehot, flat, free
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
    if isinstance(k, (bool, np.bool_)):
        raise ParameterError(f"k must be an integer, got {k!r}")
    try:
        k = operator.index(k)
    except TypeError:
        raise ParameterError(f"k must be an integer, got {k!r}") from None
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ParameterError(f"k must be in [1, {n}], got {k}")
    pinned = np.asarray(pinned)
    if pinned.dtype == bool:
        raise ParameterError("pinned must hold cluster ids or -1, not booleans")
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
    # |x|^2 is finite unless a value is non-finite or the square overflows.
    if not np.isfinite(x_sq).all() and not np.isfinite(x).all():
        raise DataError("data must be finite")
    free_sq = x_sq[free_idx]

    starts = np.empty((N_INIT, k, x.shape[1]))
    starts[:, :n_anchor_clusters] = anchor_centers
    rngs = [rng_for(seed, "kmeans", run) for run in range(N_INIT)]
    starts[:, n_anchor_clusters:] = free_x[
        _plusplus_init(free_x, free_sq, n_free_clusters, rngs, anchor_centers)]
    del free_x, free_sq
    # min keeps the first of equal inertias.
    return min(_lloyd(x, x_sq, starts, anchor_rows, anchor_cluster, free_idx),
               key=lambda result: result.inertia)


def kmeans(data, k: int, seed: int = 0) -> KmeansResult:
    """Plain seeded k-means with k-means++ initialization: every row free."""
    x = np.asarray(data, dtype=np.float64)
    return constrained_kmeans(x, k, np.full(x.shape[:1], -1), seed=seed)
