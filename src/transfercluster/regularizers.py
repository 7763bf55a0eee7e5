"""Prediction ensembling, the consistency ramp, and input perturbation.

The ensemble keeps an exponential moving average of per-epoch assignment
matrices; reading it applies the standard startup-bias correction so a
constant stream of predictions is returned unchanged at every step.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dataset import as_values
from .errors import ParameterError
from .seeding import rng_for


@dataclass(frozen=True)
class EnsembleState:
    """Accumulated EMA of predictions, its step count, and the momentum."""

    accumulated: np.ndarray
    step: int
    momentum: float

    def __post_init__(self):
        acc = np.asarray(self.accumulated, dtype=np.float64)
        if acc.ndim != 2:
            raise ParameterError(f"accumulated must be (N, K), got {acc.shape}")
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.step < 0:
            raise ParameterError("step must be non-negative")
        if self.step == 0 and acc.any():
            raise ParameterError("a zero-step ensemble must be all zeros")
        object.__setattr__(self, "accumulated", acc)

    @classmethod
    def zeros(cls, n_rows: int, n_clusters: int, momentum: float) -> "EnsembleState":
        return cls(np.zeros((n_rows, n_clusters)), 0, momentum)


def ema_update(state: EnsembleState, p: np.ndarray) -> EnsembleState:
    """One EMA step; returns a new state, leaving the input untouched."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != state.accumulated.shape:
        raise ParameterError(
            f"prediction shape {p.shape} does not match state {state.accumulated.shape}"
        )
    accumulated = state.momentum * state.accumulated + (1.0 - state.momentum) * p
    return EnsembleState(accumulated, state.step + 1, state.momentum)


def ema_corrected(state: EnsembleState) -> np.ndarray:
    """Bias-corrected ensemble prediction: accumulated / (1 - momentum**step)."""
    if state.step < 1:
        raise ParameterError("corrected ensemble is undefined before the first update")
    return state.accumulated / (1.0 - state.momentum ** state.step)


def ramp_weight(length: int, t: int) -> float:
    """Consistency weight at epoch t of an L-epoch ramp: exp(-5 (1 - min(t, L)/L)^2)."""
    if length < 1:
        raise ParameterError(f"ramp length must be at least 1 epoch, got {length}")
    if t < 0:
        raise ParameterError("ramp step must be non-negative")
    frac = min(t, length) / length
    return float(np.exp(-5.0 * (1.0 - frac) ** 2))


def perturb(batch, magnitude: float, seed: int, step: int):
    """Add isotropic Gaussian noise of the given per-coordinate scale.

    Deterministic given (seed, step); magnitude 0 returns a bitwise copy
    of the input.  Takes and returns an array.
    """
    if not 0.0 <= magnitude < math.inf:
        raise ParameterError(f"magnitude must be non-negative and finite, got {magnitude}")
    values = as_values(batch)
    if magnitude == 0.0:
        return values.copy()
    rng = rng_for(seed, "perturb", int(step))
    # In place; IEEE addition commutes, so noise + values has the bits of values + noise.
    noise = rng.standard_normal(values.shape)
    noise *= magnitude
    noise += values
    return noise
