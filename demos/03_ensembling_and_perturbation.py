"""The stabilizers: prediction ensembling, bias correction, ramp, noise.

An exponential moving average of per-epoch predictions starts at zero, so
early reads are biased low; dividing by (1 - momentum**step) removes that
startup bias exactly.  The consistency weight ramps smoothly from near
zero to one, and the pi-variant perturbation is plain seeded Gaussian
noise in feature space.
"""

import numpy as np

from transfercluster import (
    EnsembleState,
    ema_corrected,
    ema_update,
    perturb,
    ramp_weight,
)

# A prediction stream that drifts from uniform toward confident.
rng = np.random.default_rng(11)
state = EnsembleState.zeros(1, 2, momentum=0.6)
print("step | raw EMA   | corrected | latest p")
for step in range(1, 7):
    sharp = min(1.0, 0.5 + 0.1 * step)
    p = np.array([[sharp, 1.0 - sharp]])
    state = ema_update(state, p)
    corrected = ema_corrected(state)
    print(f"  {step}  | {state.accumulated[0,0]:.4f}    | {corrected[0,0]:.4f}    | {p[0,0]:.2f}")

print("\nwith a constant stream the corrected ensemble reproduces it exactly:")
state = EnsembleState.zeros(1, 3, momentum=0.9)
constant = np.array([[0.2, 0.5, 0.3]])
for _ in range(50):
    state = ema_update(state, constant)
print("corrected after 50 steps:", np.round(ema_corrected(state)[0], 12).tolist())

ramp_epochs = 60
checkpoints = [0, 15, 30, 45, 60, 90]
print("\nconsistency ramp:", {t: round(ramp_weight(ramp_epochs, t), 4) for t in checkpoints})

x = np.zeros((2000, 10))
noisy = perturb(x, magnitude=0.1, seed=4, step=0)
print(f"\nperturbation: requested scale 0.1, empirical {noisy.std():.4f}")
again = perturb(x, magnitude=0.1, seed=4, step=0)
print("same (seed, step) reproduces the noise bitwise:", bool(np.array_equal(noisy, again)))
