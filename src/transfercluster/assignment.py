"""Soft cluster assignments and the annealed clustering objective.

Assignments follow a Student's-t kernel around learnable prototypes:

    p(k|i) proportional to 1 / (1 + ||z_i - mu_k||^2)

with one degree of freedom (alpha = 1), as in DEC.

Training matches p against a sharpened, frequency-balanced target q by
minimising the row-averaged KL divergence, optionally plus a consistency
penalty between two assignment matrices.  Assignment matrices are plain
(N, K) float arrays whose rows sum to one.

Every gradient goes through one vector-Jacobian product, ``_vjp``.  A
loss enters it as its gradient with respect to the log of the
unnormalised weights, ``dlogw``: the KL term gives ``-(q - p)/n`` and an
upstream gradient g on p gives ``p * (g - (g*p).sum(1))``.  A training
step adds both terms and chains once.  The chain needs only the squared
distances, the embeddings and the centers, not the (N, K, c) difference
tensor.

Every kernel takes its squared distances from :func:`_squared_distances`,
one (N, c) x (c, K) matrix product.  Its inner dimension is c, so its
bits do not depend on the BLAS thread count.
"""

from dataclasses import dataclass

import numpy as np

from . import distances
from .errors import DegenerateClusterError, NumericalError, ParameterError


@dataclass
class Prototypes:
    """K cluster centers in embedding space."""

    centers: np.ndarray

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)
        if self.centers.ndim != 2 or self.centers.shape[0] < 1:
            raise ParameterError(f"centers must be (K, c), got {self.centers.shape}")
        if not np.isfinite(self.centers).all():
            raise ParameterError("centers must be finite")

    @property
    def n_clusters(self) -> int:
        return self.centers.shape[0]

    def copy(self) -> "Prototypes":
        return Prototypes(self.centers.copy())


def _check_embeddings(embeddings, protos: Prototypes) -> np.ndarray:
    z = np.asarray(embeddings, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != protos.centers.shape[1]:
        raise ParameterError(
            f"embeddings shape {z.shape} does not match prototype dim "
            f"{protos.centers.shape[1]}"
        )
    return z


def _squared_distances(z: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(N, K) squared distances for the kernel, from one matrix product.

    Each is within (c + 2) eps (|z_i|^2 + |mu_k|^2) of the exact value
    (see :mod:`distances`) while that sum stays below half the largest
    double.  Beyond it the product form overflows: an infinite |mu_k|^2
    against a finite 2 z_i.mu_k gives inf, and an infinite |z_i|^2
    against an infinite 2 z_i.mu_k gives inf - inf = NaN.  :func:`_kernel`
    handles both, so the overflow warnings are silenced.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return distances.expanded(z, centers, np.einsum("nc,nc->n", z, z))


def _kernel(sq: np.ndarray) -> np.ndarray:
    """Row-normalised Student's-t weights of the squared distances ``sq``.

    A finite ``sq`` weighs at least 1/DBL_MAX > 0 and an infinite one 0.
    A row whose weights are all 0 (every squared distance overflowed) or
    hold a NaN has no distribution, and raises :class:`NumericalError`.
    """
    weights = 1.0 + sq
    np.divide(1.0, weights, out=weights)
    total = weights.sum(axis=1, keepdims=True)
    empty = ~(total[:, 0] > 0.0)
    if empty.any():
        raise NumericalError(
            f"row {int(empty.argmax())}: its squared distances to every prototype "
            "overflow or are NaN"
        )
    weights /= total
    return weights


def soft_assign(embeddings, protos: Prototypes) -> np.ndarray:
    """Row-stochastic (N, K) matrix of Student's-t assignment probabilities.

    The squared distances come from one matrix product (see
    :func:`_squared_distances`).  While |z_i|^2 + |mu_k|^2 stays below
    half the largest double, as it does for coordinates up to 1e150, every
    entry is positive.  A prototype whose squared distance overflows gets
    weight 0, so it holds no mass.  A row whose distances to every
    prototype overflow, or come out NaN, raises :class:`NumericalError`.
    """
    z = _check_embeddings(embeddings, protos)
    return _kernel(_squared_distances(z, protos.centers))


def target_distribution(p: np.ndarray) -> np.ndarray:
    """Sharpened, frequency-balanced targets: q proportional to p^2 / f.

    ``f_k`` is the total mass assigned to cluster k; a cluster with zero
    mass makes the targets undefined and raises.
    """
    p = np.asarray(p, dtype=np.float64)
    freq = p.sum(axis=0)
    dead = np.nonzero(freq == 0.0)[0]
    if dead.size:
        raise DegenerateClusterError(int(dead[0]))
    unnorm = p * p / freq
    return unnorm / unnorm.sum(axis=1, keepdims=True)


def kl_loss(q: np.ndarray, p: np.ndarray) -> float:
    """Row-averaged KL divergence of targets q from assignments p.

    Terms with q = 0 contribute nothing; p = 0 where q > 0 is an
    infinite divergence and raises.
    """
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if q.shape != p.shape:
        raise ParameterError(f"shape mismatch: q {q.shape} vs p {p.shape}")
    support = q > 0
    ps = p[support]
    if (ps <= 0).any():
        raise NumericalError(
            "infinite divergence: assignment probability is zero where the target is positive"
        )
    qs = q[support]
    # In place over the masked entries: q (log q - log p), term for term.
    np.log(ps, out=ps)
    terms = np.log(qs)
    terms -= ps
    terms *= qs
    return float(terms.sum() / q.shape[0])


def _kl_dlogw(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """dKL(q || p) / dlog w, with the targets q held constant."""
    dlogw = q - p
    np.negative(dlogw, out=dlogw)
    dlogw /= p.shape[0]
    return dlogw


def _assign_dlogw(p: np.ndarray, grad_p: np.ndarray) -> np.ndarray:
    """dLoss / dlog w for an upstream gradient dLoss/dp.

    The row normalisation has a softmax-style Jacobian in log-weight space.
    """
    return p * (grad_p - (grad_p * p).sum(axis=1, keepdims=True))


def _vjp(z: np.ndarray, centers: np.ndarray, sq: np.ndarray, dlogw: np.ndarray):
    """Chain ``dlogw`` back to the embeddings z (N, c) and the centers (K, c).

    ``sq`` holds the kernel's squared distances.  log w = -log(1 + sq),
    so d sq = dlogw * -1 / (1 + sq), and d sq / d z_i = 2 (z_i - mu_k)
    sums over k to ``dsq.sum(1) * z - dsq @ centers``.  ``dsq`` is built in
    ``dlogw``'s buffer, so ``dlogw`` is overwritten: pass an array that is
    not needed afterwards.
    """
    scale = 1.0 + sq
    np.divide(-1.0, scale, out=scale)
    dsq = np.multiply(dlogw, scale, out=dlogw)
    del scale   # free it before the (N, c) products are built
    grad_z = dsq.sum(axis=1)[:, None] * z
    grad_z -= dsq @ centers
    grad_z *= 2.0
    grad_centers = -2.0 * (dsq.T @ z - dsq.sum(axis=0)[:, None] * centers)
    return grad_z, grad_centers


def kl_loss_gradients(embeddings, protos: Prototypes, q: np.ndarray):
    """Analytic gradients of :func:`kl_loss` through :func:`soft_assign`.

    Targets q are treated as constants.  Returns gradients w.r.t. the
    embeddings (N, c) and the prototype centers (K, c).
    """
    z = _check_embeddings(embeddings, protos)
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (z.shape[0], protos.n_clusters):
        raise ParameterError(
            f"q shape {q.shape} does not match ({z.shape[0]}, {protos.n_clusters})"
        )
    sq = _squared_distances(z, protos.centers)
    return _vjp(z, protos.centers, sq, _kl_dlogw(q, _kernel(sq)))


def soft_assign_grads(embeddings, protos: Prototypes, grad_p: np.ndarray):
    """Vector-Jacobian product of :func:`soft_assign`.

    Given dLoss/dp, returns (dLoss/dembeddings, dLoss/dcenters).  Used to
    chain arbitrary losses on the assignment matrix, e.g. consistency.
    """
    z = _check_embeddings(embeddings, protos)
    grad_p = np.asarray(grad_p, dtype=np.float64)
    if grad_p.shape != (z.shape[0], protos.n_clusters):
        raise ParameterError(
            f"grad_p shape {grad_p.shape} does not match "
            f"({z.shape[0]}, {protos.n_clusters})"
        )
    sq = _squared_distances(z, protos.centers)
    return _vjp(z, protos.centers, sq, _assign_dlogw(_kernel(sq), grad_p))


def consistency_loss(p: np.ndarray, p_prime: np.ndarray):
    """Mean squared difference over all N*K entries, plus dLoss/dp.

    ``p_prime`` is treated as a constant (no gradient flows into it).
    """
    p = np.asarray(p, dtype=np.float64)
    p_prime = np.asarray(p_prime, dtype=np.float64)
    if p.shape != p_prime.shape:
        raise ParameterError(f"shape mismatch: {p.shape} vs {p_prime.shape}")
    diff = p - p_prime
    scale = p.shape[0] * p.shape[1]
    return float((diff * diff).sum() / scale), 2.0 * diff / scale
