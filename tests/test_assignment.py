"""Tests for soft assignments, targets, and the clustering objective."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transfercluster import distances
from transfercluster.assignment import (
    Prototypes,
    _assign_dlogw,
    _kernel,
    _kl_dlogw,
    _squared_distances,
    _vjp,
    consistency_loss,
    kl_loss,
    kl_loss_gradients,
    soft_assign,
    soft_assign_grads,
    target_distribution,
)
from transfercluster.errors import DegenerateClusterError, NumericalError, ParameterError


def direct_soft_assign(z, centers):
    """Entrywise kernel evaluation at alpha = 1: the reference the fast
    path must match."""
    n, k = z.shape[0], centers.shape[0]
    p = np.zeros((n, k))
    for i in range(n):
        weights = []
        for j in range(k):
            sq = float(((z[i] - centers[j]) ** 2).sum())
            weights.append((1.0 + sq) ** -1.0)
        total = sum(weights)
        for j in range(k):
            p[i, j] = weights[j] / total
    return p


class TestSoftAssign:
    def test_point_on_first_center(self):
        """alpha=1, z at mu1 and squared distance 3 to mu2 gives (0.8, 0.2)."""
        protos = Prototypes(np.array([[0.0, 0.0], [np.sqrt(3.0), 0.0]]))
        p = soft_assign(np.zeros((1, 2)), protos)
        np.testing.assert_allclose(p, [[0.8, 0.2]], atol=1e-12)

    def test_equidistant_point_is_uniform(self):
        centers = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        p = soft_assign(np.zeros((1, 2)), Prototypes(centers))
        np.testing.assert_allclose(p, np.full((1, 4), 0.25), atol=1e-12)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(5, 2))
        centers = rng.normal(size=(3, 2))
        np.testing.assert_allclose(
            soft_assign(z, Prototypes(centers)), direct_soft_assign(z, centers),
            atol=1e-12,
        )

    def test_rows_stochastic_and_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = rng.normal(scale=rng.uniform(0.1, 50), size=(8, 3))
            protos = Prototypes(rng.normal(scale=5, size=(4, 3)))
            p = soft_assign(z, protos)
            np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
            assert (p > 0).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            soft_assign(np.zeros((2, 3)), Prototypes(np.zeros((2, 2))))

    @pytest.mark.parametrize("call", [
        lambda z, protos, other: soft_assign(z, protos),
        kl_loss_gradients,
        soft_assign_grads,
    ], ids=["soft_assign", "kl_loss_gradients", "soft_assign_grads"])
    def test_full_set_pass_holds_a_few_nk_arrays(self, call):
        """The distances come from one (N, c) x (c, K) product, so the
        (N, K, c) differences (73 MiB here) are never built: the peak is a
        few (N, K) arrays, with ``BLOCK_ELEMENTS`` values of slack for the
        (N,) and (K,) norms and the call's small temporaries.  ``other`` is
        the gradient functions' q or upstream dLoss/dp."""
        n, k = 6000, 40
        rng = np.random.default_rng(5)
        z = rng.normal(size=(n, k))
        protos = Prototypes(rng.normal(size=(k, k)))
        other = rng.dirichlet(np.ones(k), size=n)
        tracemalloc.start()
        try:
            call(z, protos, other)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= distances.BLOCK_ELEMENTS * 8 + 4 * n * k * 8

    def test_far_row_stays_stochastic(self):
        """A point 1e5 from every center keeps a stochastic row, and the
        other rows keep the bits they have in a batch of their own."""
        protos = Prototypes(np.array([[0.0, 0.0], [1.0, 0.0]]))
        near = np.array([[0.2, 0.1], [0.9, -0.3]])
        z = np.vstack([near, [[1e5, 0.0]]])
        p = soft_assign(z, protos)
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-15)
        assert p[2].argmax() == 1
        np.testing.assert_array_equal(p[:2], soft_assign(near, protos))
        assert np.isfinite(kl_loss(target_distribution(p), p))

    @pytest.mark.parametrize("call", [
        lambda z, protos, other: soft_assign(z, protos),
        kl_loss_gradients,
        soft_assign_grads,
    ], ids=["soft_assign", "kl_loss_gradients", "soft_assign_grads"])
    def test_row_beyond_overflow_distance_raises(self, call):
        """|z|^2 = 1e400 overflows, so the row's distance to every center is
        inf: explicit differences gave a NaN row here."""
        protos = Prototypes(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(NumericalError):
            call(np.array([[1e200, 0.0]]), protos, np.array([[0.5, 0.5]]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_kernel_is_positive_and_stochastic_for_finite_distances(data):
    """With |coordinates| <= 1e150 every squared norm is far below overflow,
    so the kernel never raises, every weight is positive and the KL stays
    finite.  Up to 1e300 it either raises NumericalError or gives finite,
    non-negative, row-stochastic assignments."""
    n = data.draw(st.integers(1, 6), label="n")
    k = data.draw(st.integers(1, 5), label="k")
    c = data.draw(st.integers(1, 4), label="c")
    bound = data.draw(st.sampled_from([1e150, 1e300]), label="bound")
    coord = st.floats(-bound, bound, allow_nan=False, allow_infinity=False)

    def matrix(rows, label):
        values = data.draw(st.lists(coord, min_size=rows * c, max_size=rows * c), label=label)
        return np.array(values).reshape(rows, c)

    z, protos = matrix(n, "embeddings"), Prototypes(matrix(k, "centers"))
    try:
        p = soft_assign(z, protos)
    except NumericalError:
        assert bound > 1e150
        return
    assert np.isfinite(p).all() and (p >= 0).all()
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    if bound <= 1e150:
        assert (p > 0).all()
        assert np.isfinite(kl_loss(target_distribution(p), p))


class TestTargetDistribution:
    def test_uniform_is_fixed_point(self):
        p = np.full((6, 3), 1.0 / 3.0)
        np.testing.assert_allclose(target_distribution(p), p, atol=1e-12)

    def test_one_hot_is_fixed_point(self):
        p = np.eye(4)[[0, 1, 2, 3, 0, 2]]
        np.testing.assert_allclose(target_distribution(p), p)

    def test_hand_computed_example(self):
        # f = (1.4, 0.6); rows renormalise to the values below.
        p = np.array([[0.8, 0.2], [0.6, 0.4]])
        q = target_distribution(p)
        expected = np.array([
            [0.64 / 1.4, 0.04 / 0.6],
            [0.36 / 1.4, 0.16 / 0.6],
        ])
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(q, expected, atol=1e-12)
        np.testing.assert_allclose(q[0], [0.8727, 0.1273], atol=5e-5)
        np.testing.assert_allclose(q[1], [0.4909, 0.5091], atol=5e-5)

    def test_rows_stay_stochastic(self):
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(5), size=40)
        q = target_distribution(p)
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_mass_cluster_raises(self):
        p = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegenerateClusterError) as err:
            target_distribution(p)
        assert err.value.cluster == 1

    def test_sharpening_under_balanced_frequencies(self):
        """With equal cluster masses, the target never softens the row max."""
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            base = rng.dirichlet(np.ones(k), size=3)
            # Cyclic rotations of each base row give exactly equal column sums.
            rows = [np.roll(row, s) for row in base for s in range(k)]
            p = np.array(rows)
            q = target_distribution(p)
            assert (q.max(axis=1) >= p.max(axis=1) - 1e-12).all()


class TestKlLoss:
    def test_zero_when_equal(self):
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(4), size=10)
        assert kl_loss(p, p) <= 1e-12

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            q = rng.dirichlet(np.ones(3), size=6)
            p = rng.dirichlet(np.ones(3), size=6)
            assert kl_loss(q, p) >= 0.0

    def test_closed_form_log2(self):
        assert kl_loss(np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]])) == pytest.approx(
            np.log(2.0), abs=1e-12
        )

    def test_zero_model_probability_raises(self):
        with pytest.raises(NumericalError):
            kl_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(4)
        q = rng.dirichlet(np.ones(3), size=5)
        p = q.copy()
        p[0] = [0.5, 0.25, 0.25]
        q[0] = [0.25, 0.5, 0.25]
        assert kl_loss(q, p) > 1e-3


class TestConsistencyLoss:
    def test_identical_inputs(self):
        p = np.random.default_rng(0).dirichlet(np.ones(3), size=4)
        loss, grad = consistency_loss(p, p)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(p))

    def test_closed_form_opposite_one_hots(self):
        loss, _ = consistency_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert loss == pytest.approx(1.0, abs=1e-15)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(9)
        p = rng.dirichlet(np.ones(4), size=7)
        p2 = rng.dirichlet(np.ones(4), size=7)
        loss, grad = consistency_loss(p, p2)
        direct = sum(
            (p[i, j] - p2[i, j]) ** 2 for i in range(7) for j in range(4)
        ) / (7 * 4)
        assert loss == pytest.approx(direct, abs=1e-12)
        np.testing.assert_allclose(grad, 2 * (p - p2) / (7 * 4), atol=1e-15)


def finite_difference(fun, arrays, h=1e-6):
    """Central finite differences of a scalar function of several arrays."""
    grads = []
    for arr in arrays:
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = arr[idx]
            arr[idx] = old + h
            up = fun()
            arr[idx] = old - h
            down = fun()
            arr[idx] = old
            grad[idx] = (up - down) / (2 * h)
        grads.append(grad)
    return grads


def rel_error(a, b):
    scale = max(np.linalg.norm(a), np.linalg.norm(b), 1e-10)
    return np.linalg.norm(a - b) / scale


class TestGradients:
    def test_kl_gradients_vanish_at_fixed_point(self):
        """Using q = p makes the objective stationary in both arguments."""
        rng = np.random.default_rng(21)
        z = rng.normal(size=(6, 2))
        protos = Prototypes(rng.normal(size=(3, 2)))
        q = soft_assign(z, protos)
        grad_z, grad_c = kl_loss_gradients(z, protos, q)
        np.testing.assert_allclose(grad_z, 0.0, atol=1e-8)
        np.testing.assert_allclose(grad_c, 0.0, atol=1e-8)

    def test_mirror_symmetry(self):
        """A mirrored configuration produces mirrored center gradients."""
        z = np.array([[1.0, 0.5], [-1.0, 0.5]])
        protos = Prototypes(np.array([[2.0, 0.5], [-2.0, 0.5]]))
        q = np.array([[0.9, 0.1], [0.1, 0.9]])
        _, grad_c = kl_loss_gradients(z, protos, q)
        np.testing.assert_allclose(grad_c[0, 0], -grad_c[1, 0], atol=1e-12)
        np.testing.assert_allclose(grad_c[0, 1], grad_c[1, 1], atol=1e-12)

    def test_kl_gradients_match_finite_differences(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            z = rng.normal(size=(5, 3))
            centers = rng.normal(size=(4, 3))
            q = rng.dirichlet(np.ones(4), size=5)
            protos = Prototypes(centers)
            grad_z, grad_c = kl_loss_gradients(z, protos, q)
            fd_z, fd_c = finite_difference(
                lambda: kl_loss(q, soft_assign(z, protos)), [z, centers]
            )
            assert rel_error(grad_z, fd_z) <= 1e-4
            assert rel_error(grad_c, fd_c) <= 1e-4

    def test_vjp_matches_finite_differences(self):
        """Chained consistency gradients agree with direct differentiation."""
        rng = np.random.default_rng(41)
        z = rng.normal(size=(4, 2))
        centers = rng.normal(size=(3, 2))
        p_ref = rng.dirichlet(np.ones(3), size=4)
        protos = Prototypes(centers)

        def loss():
            return consistency_loss(soft_assign(z, protos), p_ref)[0]

        _, grad_p = consistency_loss(soft_assign(z, protos), p_ref)
        grad_z, grad_c = soft_assign_grads(z, protos, grad_p)
        fd_z, fd_c = finite_difference(loss, [z, centers])
        assert rel_error(grad_z, fd_z) <= 1e-4
        assert rel_error(grad_c, fd_c) <= 1e-4

    def test_fused_vjp_equals_sum_of_public_gradients(self):
        """One chain of the summed KL and consistency terms matches the two
        public gradient functions added together, and is bitwise equal to
        the KL gradient alone when the consistency term is zero."""
        rng = np.random.default_rng(52)
        z = rng.normal(size=(7, 3))
        protos = Prototypes(rng.normal(size=(4, 3)))
        q = rng.dirichlet(np.ones(4), size=7)
        grad_p = rng.normal(size=(7, 4))
        sq = _squared_distances(z, protos.centers)
        p = _kernel(sq)

        fused_z, fused_c = _vjp(z, protos.centers, sq,
                                _kl_dlogw(q, p) + _assign_dlogw(p, grad_p))
        kl_z, kl_c = kl_loss_gradients(z, protos, q)
        cons_z, cons_c = soft_assign_grads(z, protos, grad_p)
        assert rel_error(fused_z, kl_z + cons_z) <= 1e-12
        assert rel_error(fused_c, kl_c + cons_c) <= 1e-12

        zero_z, zero_c = _vjp(z, protos.centers, sq,
                              _kl_dlogw(q, p) + _assign_dlogw(p, np.zeros_like(p)))
        np.testing.assert_array_equal(zero_z, kl_z)
        np.testing.assert_array_equal(zero_c, kl_c)
