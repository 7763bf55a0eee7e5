"""Squared Euclidean distances between the rows of two matrices.

:func:`exact` builds explicit differences and is accurate to the last
bits: use it where distances feed further arithmetic (assignment
kernels, gradients, silhouette means).  It works in row blocks of at
most :data:`BLOCK_ELEMENTS` differences, so a full-set pass holds one
block, not the whole (n, k, c) tensor.  :func:`exact_with_differences`
returns that whole tensor and is meant for batch-sized inputs.
:func:`expanded` needs only a matrix product, but cancellation makes
small distances inexact: use it only to rank or sample by distance
(k-means assignment and seeding).
"""

import numpy as np

BLOCK_ELEMENTS = 1 << 22   # float64 elements in one working block (32 MiB)


def exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, k) squared distances, built from row blocks of explicit differences.

    Each entry depends only on its own row of differences, so the result
    is bitwise equal to ``exact_with_differences(a, b)[0]``.
    """
    n, k = a.shape[0], b.shape[0]
    out = np.empty((n, k), dtype=np.result_type(a, b))
    rows = max(1, BLOCK_ELEMENTS // max(1, k * a.shape[1]))
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        out[block] = exact_with_differences(a[block], b)[0]
    return out


def exact_with_differences(a: np.ndarray, b: np.ndarray):
    """:func:`exact` and the whole (n, k, c) difference tensor it sums over."""
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("nkc,nkc->nk", diff, diff), diff


def expanded(a: np.ndarray, b: np.ndarray, a_sq: np.ndarray | None = None) -> np.ndarray:
    """``|a|^2 + |b|^2 - 2 a.b`` clamped at 0; ``a_sq`` may pass ``|a|^2`` in."""
    if a_sq is None:
        a_sq = np.einsum("nc,nc->n", a, a)
    b_sq = np.einsum("kc,kc->k", b, b)
    return np.maximum(a_sq[:, None] + b_sq[None, :] - 2.0 * (a @ b.T), 0.0)
