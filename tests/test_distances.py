"""Tests for the squared-distance forms and the row blocks of the exact one."""

import numpy as np
import pytest

from transfercluster import distances


@pytest.mark.parametrize("budget", [1 << 22, 4000, 500, 77, 1],
                         ids=["one-block", "two-blocks-and-a-row", "many-blocks",
                              "one-row-exactly", "one-row-below"])
def test_exact_is_bitwise_independent_of_the_block_budget(monkeypatch, budget):
    """103 rows against 11 centers in 7 columns (77 differences a row)."""
    rng = np.random.default_rng(3)
    a = rng.normal(scale=5.0, size=(103, 7))
    b = rng.normal(size=(11, 7))
    diff = a[:, None, :] - b[None, :, :]
    whole = np.einsum("nkc,nkc->nk", diff, diff)
    monkeypatch.setattr(distances, "BLOCK_ELEMENTS", budget)
    assert np.array_equal(distances.exact(a, b), whole)



def test_expanded_matches_the_one_line_formula_bitwise():
    """Random rows plus exact duplicates, whose distances cancel to within
    rounding of 0 and below it, so the clamp is exercised."""
    rng = np.random.default_rng(4)
    b = rng.normal(scale=3.0, size=(9, 6))
    a = np.vstack([rng.normal(scale=3.0, size=(40, 6)), b, b[:3]])
    a_sq = np.einsum("nc,nc->n", a, a)
    b_sq = np.einsum("kc,kc->k", b, b)
    unclamped = a_sq[:, None] + b_sq[None, :] - 2.0 * (a @ b.T)
    assert (unclamped < 0).any()
    assert np.array_equal(distances.expanded(a, b, a_sq), np.maximum(unclamped, 0.0))
