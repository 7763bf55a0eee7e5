"""Squared Euclidean distances between the rows of two matrices.

:func:`expanded` takes them from one matrix product,
``|a|^2 + |b|^2 - 2 a.b``.  The Student's-t kernel, its gradients, the
trainer's reseed and the silhouette means all use it.  k-means calls it
only for the anchor centers in the k-means++ D^2 pool and for the
empty-cluster repair; its seeding draws repeat its steps for all
restarts at once, and its label passes score rows centred on their mean
in float32, without the row's own |a|^2, and certify each winner against
an error bound derived in :mod:`kmeans`, falling back to float64
|mu|^2 - 2 a.mu where they cannot.  The silhouette
works in the row blocks that :func:`row_blocks` yields, so it never
holds the whole (N, N) matrix.

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

and the clamp at 0 only moves a result towards S >= 0.  The Student's-t
kernel takes log w = -log(1 + sq), and d log(1 + sq) / d sq =
1 / (1 + sq) <= 1, so the same bound holds for the change in each
log-weight.  The silhouette takes square roots, and |sqrt(a) - sqrt(b)|
<= sqrt(|a - b|), so each of its distances is within

    sqrt((c + 2) eps P)

of the exact one.  It centres the rows first, so P comes from the
centred rows and does not grow with an offset that all rows share.
"""

import numpy as np

# float64 elements in one working block (512 KiB, a quarter of a 2 MiB L2).
# The silhouette sizes its row chunks so that the two (rows, N) arrays of
# one expanded() call together hold at most this many values.  On one
# thread of a 2-core Xeon with 2 MiB of L2 per core, the best of 7 such
# passes over 1 000 x 64 rows under 21 labellings took
# 128 / 70 / 77 / 97 / 130 ms at 2^20 / 2^18 / 2^17 / 2^16 / 2^15.  The
# taller chunks are faster but raise the pass's peak memory with them.
BLOCK_ELEMENTS = 1 << 16


def row_blocks(n: int, width: int):
    """Slices that cover rows 0..n-1 in order, each holding at most
    :data:`BLOCK_ELEMENTS` values of ``width`` per row (one row at least)."""
    rows = max(1, BLOCK_ELEMENTS // max(1, width))
    for start in range(0, n, rows):
        yield slice(start, start + rows)


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
