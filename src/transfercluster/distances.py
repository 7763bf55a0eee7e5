"""Squared Euclidean distances between the rows of two matrices.

:func:`exact` builds explicit differences and is accurate to the last
bits: use it where distances feed further arithmetic (assignment
kernels, gradients, silhouette means).  It works in the row blocks that
:func:`row_blocks` yields, of at most :data:`BLOCK_ELEMENTS` values
each, so it never holds the whole (n, k, c) tensor, and each block stays
in a core's L2 cache while it is reduced.  :func:`expanded` needs only a
matrix product, but cancellation makes small distances inexact: use it
only to rank or sample by distance (k-means assignment and seeding).
"""

import numpy as np

# float64 elements in one working block (512 KiB, a quarter of a 2 MiB L2).
# On one thread of a 2-core Xeon with 2 MiB of L2 per core, the best of 15
# soft_assign passes of 10 000 x 40 rows against 40 centers took
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
