"""Tests for prediction ensembling, the ramp, and input perturbation."""

import numpy as np
import pytest

from transfercluster.errors import ParameterError
from transfercluster.regularizers import (
    EnsembleState,
    ema_corrected,
    ema_update,
    perturb,
    ramp_weight,
)


class TestEmaUpdate:
    def test_single_step_arithmetic(self):
        state = EnsembleState.zeros(1, 1, momentum=0.6)
        updated = ema_update(state, np.array([[0.2]]))
        assert updated.accumulated[0, 0] == pytest.approx(0.08, abs=1e-15)
        assert updated.step == 1
        # the input state is untouched
        assert state.step == 0
        assert state.accumulated[0, 0] == 0.0

    def test_zero_momentum_keeps_latest(self):
        state = EnsembleState.zeros(2, 2, momentum=0.0)
        p = np.array([[0.3, 0.7], [0.9, 0.1]])
        state = ema_update(state, p)
        state = ema_update(state, 1.0 - p)
        np.testing.assert_array_equal(state.accumulated, 1.0 - p)

    def test_two_step_hand_value(self):
        state = EnsembleState.zeros(1, 1, momentum=0.6)
        state = ema_update(state, np.array([[0.2]]))
        state = ema_update(state, np.array([[0.8]]))
        assert state.accumulated[0, 0] == pytest.approx(0.368, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError):
            ema_update(EnsembleState.zeros(2, 2, 0.5), np.zeros((3, 2)))


class TestEmaCorrected:
    def test_first_update_returns_input(self):
        for beta in (0.0, 0.3, 0.9):
            p = np.array([[0.25, 0.75]])
            state = ema_update(EnsembleState.zeros(1, 2, beta), p)
            np.testing.assert_allclose(ema_corrected(state), p, atol=1e-15)

    def test_two_step_hand_value(self):
        state = EnsembleState.zeros(1, 1, momentum=0.6)
        state = ema_update(state, np.array([[0.2]]))
        state = ema_update(state, np.array([[0.8]]))
        assert ema_corrected(state)[0, 0] == pytest.approx(0.575, abs=1e-12)

    def test_constant_stream_is_identity(self):
        """Bias correction exactly undoes the zero start for constant input."""
        rng = np.random.default_rng(1)
        p = rng.dirichlet(np.ones(4), size=6)
        for beta in (0.0, 0.3, 0.6, 0.9):
            state = EnsembleState.zeros(6, 4, beta)
            for _ in range(100):
                state = ema_update(state, p)
                np.testing.assert_allclose(ema_corrected(state), p, atol=1e-12)

    def test_row_stochastic_output(self):
        rng = np.random.default_rng(2)
        state = EnsembleState.zeros(5, 3, momentum=0.6)
        for _ in range(7):
            state = ema_update(state, rng.dirichlet(np.ones(3), size=5))
        np.testing.assert_allclose(ema_corrected(state).sum(axis=1), 1.0, atol=1e-9)

    def test_undefined_before_first_update(self):
        with pytest.raises(ParameterError):
            ema_corrected(EnsembleState.zeros(1, 2, 0.6))


class TestRampWeight:
    def test_formula_endpoints(self):
        assert ramp_weight(80, 0) == pytest.approx(np.exp(-5.0), abs=1e-12)
        assert ramp_weight(80, 40) == pytest.approx(np.exp(-1.25), abs=1e-12)
        assert ramp_weight(80, 80) == 1.0
        assert ramp_weight(80, 500) == 1.0

    def test_nondecreasing_and_bounded(self):
        values = [ramp_weight(33, t) for t in range(0, 34)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] >= np.exp(-5.0) - 1e-15
        assert values[-1] <= 1.0

    @pytest.mark.parametrize("length", [0, -3])
    def test_length_below_one_rejected(self, length):
        with pytest.raises(ParameterError, match="ramp length must be at least 1 epoch"):
            ramp_weight(length, 0)


class TestPerturb:
    def test_zero_magnitude_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 3))
        out = perturb(x, 0.0, seed=1, step=5)
        np.testing.assert_array_equal(out, x)

    def test_deterministic_given_seed_and_step(self):
        x = np.zeros((6, 2))
        a = perturb(x, 0.5, seed=9, step=3)
        b = perturb(x, 0.5, seed=9, step=3)
        np.testing.assert_array_equal(a, b)
        c = perturb(x, 0.5, seed=9, step=4)
        assert not np.array_equal(a, c)

    def test_noise_scale(self):
        x = np.zeros((1000, 20))
        out = perturb(x, 0.1, seed=11, step=0)
        spread = out.std(axis=0)
        assert ((spread >= 0.09) & (spread <= 0.11)).all()

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ParameterError):
            perturb(np.zeros((1, 1)), -0.1, seed=0, step=0)

    @pytest.mark.parametrize("magnitude", [float("nan"), float("inf")])
    def test_non_finite_magnitude_rejected(self, magnitude):
        with pytest.raises(ParameterError, match="finite"):
            perturb(np.zeros((1, 1)), magnitude, seed=0, step=0)
