"""Training orchestration: initialization, warm-up, and the annealing loop.

Initialization extracts trunk features of the unlabelled data, fits a
PCA bottleneck, installs it, and seeds prototypes with k-means.  The
loop then alternates gradient steps on the KL objective (plus a
variant-specific term) with refreshes of the target distribution:

* ``baseline``: KL objective only.
* ``pi``: adds a ramped consistency penalty between the assignments of
  each batch and of a perturbed copy of it; the perturbed copy of the
  whole set is drawn once per epoch.
* ``te``: adds a ramped consistency penalty between batch assignments
  and the bias-corrected prediction ensemble.
* ``tep``: builds the targets from the prediction ensemble instead of
  from the current assignments (no consistency penalty).

Targets stay frozen through warm-up, are refreshed once after it, and
then once per main epoch.  Everything is deterministic given the config
seed.

Each gradient step runs the encoder forward pass on the batch once and
keeps its trace, builds one Student's-t kernel, adds the KL and
consistency gradients in log-weight space, chains them to the
embeddings and centers in one vector-Jacobian product, and
backpropagates through the kept trace.  Only ``pi`` runs a second
forward pass and kernel, on the perturbed batch.  The final assignments
come from the last epoch's full-set pass, as :func:`predict` would
compute them.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .assignment import (
    Prototypes,
    _assign_dlogw,
    _kernel,
    _kl_dlogw,
    _squared_distances,
    _vjp,
    consistency_loss,
    kl_loss,
    soft_assign,
    target_distribution,
)
from .dataset import as_values
from .encoder import (
    EncoderParams,
    _backward,
    _forward_trace,
    _SgdMomentum,
    fit_pca,
    forward,
    install_bottleneck,
)
from .errors import DegenerateClusterError, ParameterError
from .kmeans import kmeans
from .regularizers import (
    EnsembleState,
    ema_corrected,
    ema_update,
    perturb,
    ramp_weight,
)
from .seeding import rng_for

VARIANTS = ("baseline", "pi", "te", "tep")


@dataclass
class TrainConfig:
    k: int
    variant: str = "baseline"
    warmup_epochs: int = 10
    main_epochs: int = 90
    batch_size: int = 64
    learning_rate: float = 0.05
    ema_momentum: float = 0.6
    ramp: int | None = None             # epochs; default warm-up + main // 2
    perturb_sigma: float = 0.1
    seed: int = 0
    bottleneck_dim: int | None = None   # defaults to k

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ParameterError(f"variant must be one of {VARIANTS}, got '{self.variant}'")
        if self.k < 2:
            raise ParameterError(f"k must be at least 2, got {self.k}")
        if self.warmup_epochs < 0 or self.main_epochs < 0:
            raise ParameterError("epoch counts must be non-negative")
        if not 0.0 < self.learning_rate < math.inf:
            raise ParameterError(
                f"learning rate must be positive and finite, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ParameterError("batch size must be at least 1")
        if not 0.0 <= self.perturb_sigma < math.inf:
            raise ParameterError(
                f"perturb sigma must be non-negative and finite, got {self.perturb_sigma}")
        if not 0.0 <= self.ema_momentum < 1.0:
            raise ParameterError(f"ema momentum must be in [0, 1), got {self.ema_momentum}")
        if self.ramp is not None and self.ramp < 1:
            raise ParameterError(f"ramp length must be at least 1 epoch, got {self.ramp}")
        if self.bottleneck_dim is not None and self.bottleneck_dim < 1:
            raise ParameterError(
                f"bottleneck dimension must be at least 1, got {self.bottleneck_dim}")

    @property
    def c(self) -> int:
        return self.bottleneck_dim if self.bottleneck_dim is not None else self.k

    def ramp_schedule(self) -> int:
        if self.ramp is not None:
            return self.ramp
        return max(1, self.warmup_epochs + self.main_epochs // 2)


@dataclass
class EpochRecord:
    epoch: int
    phase: str                 # "warmup" or "main"
    kl_loss: float             # full-set KL against this epoch's targets, end of epoch
    consistency_loss: float    # mean of this epoch's per-batch consistency terms
    omega: float
    mass_hist: np.ndarray      # rows per cluster by assignment argmax, end of epoch


@dataclass
class TrainTrace:
    records: list[EpochRecord]
    assignments: np.ndarray
    prototypes: Prototypes
    encoder: EncoderParams
    warnings: list[str] = field(default_factory=list)
    ensemble: EnsembleState | None = None


def initialize(encoder: EncoderParams, unlabeled, config: TrainConfig):
    """Install the PCA bottleneck and seed prototypes with k-means.

    Returns ``(encoder_with_bottleneck, prototypes, targets)``.
    """
    x = as_values(unlabeled)
    if x.shape[0] < 1:
        raise ParameterError("unlabelled data is empty")
    trunk_features = forward(encoder, x)
    pca = fit_pca(trunk_features, config.c)
    ready = install_bottleneck(encoder, pca)
    embeddings = forward(ready, x)
    km = kmeans(embeddings, config.k, seed=config.seed)
    protos = Prototypes(km.centers.copy())
    q = target_distribution(soft_assign(embeddings, protos))
    return ready, protos, q


def predict(encoder: EncoderParams, protos: Prototypes, batch):
    """Cluster index per row (argmax assignment, lowest index on ties)."""
    probs = soft_assign(forward(encoder, as_values(batch)), protos)
    return probs.argmax(axis=1), probs


def _refresh_targets(source_p, p, protos, embeddings, epoch, warnings):
    """Targets from ``source_p``, reseeding any prototype with zero mass.

    Reseeding moves the dead prototype onto the embedding farthest from
    its nearest prototype and recomputes assignments; in that case the
    targets are rebuilt from the fresh assignments.  Returns the targets
    and the model's assignments ``p``, recomputed if anything was
    reseeded.
    """
    for _ in range(protos.n_clusters + 1):
        freq = source_p.sum(axis=0)
        dead = np.nonzero(freq == 0.0)[0]
        if dead.size == 0:
            return target_distribution(source_p), p
        k = int(dead[0])
        nearest = _squared_distances(embeddings, protos.centers).min(axis=1)
        protos.centers[k] = embeddings[int(np.argmax(nearest))]
        warnings.append(f"epoch {epoch}: reseeded empty prototype {k}")
        source_p = p = soft_assign(embeddings, protos)
    raise DegenerateClusterError(k, "prototype reseeding did not restore cluster mass")


def train(encoder: EncoderParams, protos: Prototypes, unlabeled,
          config: TrainConfig) -> TrainTrace:
    """Run warm-up plus the annealing main loop; inputs are not modified.

    The trace holds one record per epoch, the final assignments, and the
    trained encoder and prototypes.
    """
    x = as_values(unlabeled)
    n = x.shape[0]
    if n < 1:
        raise ParameterError("unlabelled data is empty")
    enc = encoder.copy()
    protos = protos.copy()
    ramp = config.ramp_schedule()
    warnings: list[str] = []

    embeddings = forward(enc, x)
    p_full = soft_assign(embeddings, protos)
    q, p_full = _refresh_targets(p_full, p_full, protos, embeddings, -1, warnings)

    state = None
    if config.variant in ("te", "tep"):
        state = ema_update(EnsembleState.zeros(n, protos.n_clusters, config.ema_momentum), p_full)

    opt = _SgdMomentum([protos.centers, *enc.arrays()], config.learning_rate)

    batch_size = min(config.batch_size, n)
    n_batches = len(range(0, n, batch_size))
    total_epochs = config.warmup_epochs + config.main_epochs
    records = []
    for epoch in range(total_epochs):
        phase = "warmup" if epoch < config.warmup_epochs else "main"
        omega = ramp_weight(ramp, epoch)
        order = rng_for(config.seed, "shuffle", epoch).permutation(n)
        ensemble = ema_corrected(state) if config.variant == "te" else None
        if config.variant == "pi":
            noisy = perturb(x, config.perturb_sigma, config.seed, epoch)
        cons_total = 0.0
        for start in range(0, n, batch_size):
            rows = order[start : start + batch_size]
            xb = x[rows]
            trace = _forward_trace(enc, xb)
            sq = _squared_distances(trace[0], protos.centers)
            p = _kernel(sq)
            dlogw = _kl_dlogw(q[rows], p)
            if config.variant in ("pi", "te"):
                if config.variant == "pi":
                    z_prime = _forward_trace(enc, noisy[rows])[0]
                    p_prime = _kernel(_squared_distances(z_prime, protos.centers))
                else:
                    p_prime = ensemble[rows]
                closs, grad_p = consistency_loss(p, p_prime)
                dlogw = dlogw + _assign_dlogw(p, omega * grad_p)
                cons_total += closs
            grad_z, grad_centers = _vjp(trace[0], protos.centers, sq, dlogw)
            enc_grads, _ = _backward(enc, trace, grad_z)
            opt.step([grad_centers, *enc_grads])

        embeddings = forward(enc, x)
        p_full = soft_assign(embeddings, protos)
        if state is not None:
            state = ema_update(state, p_full)
        records.append(EpochRecord(
            epoch=epoch,
            phase=phase,
            kl_loss=kl_loss(q, p_full),
            consistency_loss=cons_total / n_batches,
            omega=omega,
            mass_hist=np.bincount(p_full.argmax(axis=1), minlength=protos.n_clusters),
        ))

        end_of_warmup = epoch == config.warmup_epochs - 1
        if end_of_warmup or phase == "main":
            source = ema_corrected(state) if config.variant == "tep" else p_full
            q, p_full = _refresh_targets(source, p_full, protos, embeddings, epoch, warnings)

    # The last full-set pass is what predict(enc, protos, x) computes.
    return TrainTrace(records, p_full.argmax(axis=1), protos, enc, warnings, state)
