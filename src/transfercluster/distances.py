"""Squared Euclidean distances between the rows of two matrices.

:func:`expanded` needs one matrix product, ``|a|^2 + |b|^2 - 2 a.b``.
The Student's-t kernel, its gradients and k-means take their distances
from it.  :func:`exact` builds explicit differences, so it keeps small
distances to their last bits.  The silhouette means and the trainer's
reseed use it, in the row blocks that :func:`row_blocks` yields, of at
most :data:`BLOCK_ELEMENTS` values each.  It never holds the whole
(n, k, c) tensor, and each block stays in a core's L2 cache while it is
reduced.

Error of :func:`expanded`, for one pair z, mu of c coordinates.  Let
P = |z|^2 + |mu|^2, S = |z - mu|^2 (exact), u = eps / 2 the unit
roundoff, and g = c u / (1 - c u).  Assume no square or product
underflows, and P at most half the largest double, so nothing
overflows.  A length-c dot product in any summation order is within
g * sum_j |x_j y_j| of its value.  So:

* ``|a|^2`` and ``|b|^2`` are within g |z|^2 and g |mu|^2;
* ``a.b`` is within g sum_j |z_j mu_j| <= g |z| |mu| <= g P / 2, and the
  factor 2 is exact;
* adding the two norms rounds once (u (1 + g) P), and the subtraction
  rounds once more, by u times its operand, which is at most
  S + (2g + u + u g) P <= (2 + 2g + u + u g) P, because S <= 2P.

In total the unclamped result is within (2g + 3u) P plus terms of
order u g, which is (c + 3/2) eps P to first order.  For c up to 10^6
the higher-order terms fit in the rest of

    |expanded - S| <= (c + 2) eps (|z|^2 + |mu|^2),

and the clamp at 0 only moves a result towards S >= 0.  :func:`exact`
rounds each difference (relative u), squares and sums them (g), so
|exact - S| <= (c + 3) (eps / 2) S <= (c + 3) eps P.  The two forms
therefore differ by at most (2c + 5) eps P.  The Student's-t kernel
takes log w = -log(1 + sq), and d log(1 + sq) / d sq = 1 / (1 + sq) <= 1,
so the same bounds hold for the change in each log-weight.
"""

import numpy as np

# float64 elements in one working block (512 KiB, a quarter of a 2 MiB L2).
# On one thread of a 2-core Xeon with 2 MiB of L2 per core, the best of 15
# exact passes of 10 000 x 40 rows against 40 centers took
# 66 / 44 / 36 / 32 / 30 / 43 / 40 ms at 2^22 / 2^20 / 2^18 / 2^17 / 2^16 /
# 2^15 / 2^14, and the silhouettes of 1 000 x 64 rows under 21 labellings
# took 397 ms at 2^22 and 136 ms at 2^16.
BLOCK_ELEMENTS = 1 << 16


def row_blocks(n: int, width: int):
    """Slices that cover rows 0..n-1 in order, each holding at most
    :data:`BLOCK_ELEMENTS` values of ``width`` per row (one row at least)."""
    rows = max(1, BLOCK_ELEMENTS // max(1, width))
    for start in range(0, n, rows):
        yield slice(start, start + rows)


def exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, k) squared distances, built from row blocks of explicit differences.

    Each entry depends only on its own row of differences, so the result
    has the same bits for any block size.
    """
    n, k = a.shape[0], b.shape[0]
    out = np.empty((n, k), dtype=np.result_type(a, b))
    for block in row_blocks(n, k * a.shape[1]):
        diff = a[block, None, :] - b[None, :, :]
        out[block] = np.einsum("nkc,nkc->nk", diff, diff)
        del diff   # free this block before the next one is built
    return out


def expanded(a: np.ndarray, b: np.ndarray, a_sq: np.ndarray) -> np.ndarray:
    """``|a|^2 + |b|^2 - 2 a.b`` clamped at 0, with ``a_sq`` holding ``|a|^2``.

    Two (n, k) arrays are allocated; the arithmetic and its order are those
    of ``np.maximum(a_sq[:, None] + b_sq[None, :] - 2.0 * (a @ b.T), 0.0)``.
    """
    b_sq = np.einsum("kc,kc->k", b, b)
    ab = a @ b.T
    ab *= 2.0
    out = np.add.outer(a_sq, b_sq)
    out -= ab
    return np.maximum(out, 0.0, out=out)
