"""Squared Euclidean distances between the rows of two matrices.

:func:`exact` builds explicit differences and is accurate to the last
bits: use it where distances feed further arithmetic (assignment
kernels, gradients, silhouette means).  :func:`expanded` needs only a
matrix product, but cancellation makes small distances inexact: use it
only to rank or sample by distance (k-means assignment and seeding).
"""

import numpy as np


def exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return exact_with_differences(a, b)[0]


def exact_with_differences(a: np.ndarray, b: np.ndarray):
    """:func:`exact` and the (n, k, c) difference tensor it sums over."""
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("nkc,nkc->nk", diff, diff), diff


def expanded(a: np.ndarray, b: np.ndarray, a_sq: np.ndarray | None = None) -> np.ndarray:
    """``|a|^2 + |b|^2 - 2 a.b`` clamped at 0; ``a_sq`` may pass ``|a|^2`` in."""
    if a_sq is None:
        a_sq = np.einsum("nc,nc->n", a, a)
    b_sq = np.einsum("kc,kc->k", b, b)
    return np.maximum(a_sq[:, None] + b_sq[None, :] - 2.0 * (a @ b.T), 0.0)
