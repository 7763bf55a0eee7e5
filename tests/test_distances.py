"""Tests for the product form of the squared distances."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from transfercluster import distances

EPS = Fraction(2) ** -52


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


# Zero, or a magnitude in [1e-100, 1e100]: no square or product underflows
# or overflows, as the bound in the module docstring assumes.
COORD = st.one_of(st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_expanded_error_is_within_the_derived_bound(data):
    """|expanded - S| <= (c + 2) eps P per pair, with S = |z - mu|^2 and
    P = |z|^2 + |mu|^2 in exact rational arithmetic.  Some centers are
    rows of ``a`` scaled by 1 + f with |f| <= 2^-20 (f = 0 for a
    duplicate), where the product form cancels."""
    c = data.draw(st.integers(1, 8), label="c")
    n = data.draw(st.integers(1, 4), label="n")
    a = np.array(data.draw(st.lists(COORD, min_size=n * c, max_size=n * c), label="a"))
    a = a.reshape(n, c)
    rows = [np.array(data.draw(st.lists(COORD, min_size=c, max_size=c), label="center"))]
    for i in range(n):
        f = data.draw(st.one_of(st.just(0.0), st.floats(-2.0 ** -20, 2.0 ** -20)), label="f")
        rows.append(a[i] * (1.0 + f))
    b = np.array(rows)
    product = distances.expanded(a, b, np.einsum("nc,nc->n", a, a))
    for i in range(n):
        for k in range(len(b)):
            z = [Fraction(v) for v in a[i]]
            mu = [Fraction(v) for v in b[k]]
            exact_sq = sum((x - y) ** 2 for x, y in zip(z, mu))
            scale = EPS * sum(x * x + y * y for x, y in zip(z, mu))
            assert abs(Fraction(product[i, k]) - exact_sq) <= (c + 2) * scale
