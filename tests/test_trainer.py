"""Tests for initialization, the training loop, and its variant contracts."""

import numpy as np
import pytest

from transfercluster import trainer
from transfercluster.assignment import (
    Prototypes,
    consistency_loss,
    kl_loss_gradients,
    soft_assign,
    soft_assign_grads,
    target_distribution,
)
from transfercluster.dataset import synth_mixture
from transfercluster.encoder import (
    MOMENTUM,
    EncoderParams,
    LayerParams,
    PretrainConfig,
    backward,
    forward,
    pretrain_encoder,
)
from transfercluster.errors import ParameterError
from transfercluster.kmeans import kmeans
from transfercluster.metrics import clustering_accuracy
from transfercluster.regularizers import (
    EnsembleState,
    ema_corrected,
    ema_update,
    perturb,
    ramp_weight,
)
from transfercluster.seeding import rng_for
from transfercluster.trainer import VARIANTS, TrainConfig, initialize, predict, train


def small_problem(seed=0, n_classes=3, per_class=40, dim=8, sep=6.0, hidden=(16,)):
    labeled, unlabeled, truth = synth_mixture(n_classes, n_classes, per_class,
                                              dim, sep, seed=seed)
    encoder = pretrain_encoder(labeled, PretrainConfig(hidden=hidden, epochs=10), seed=seed)
    return encoder, unlabeled, truth


def built_targets(monkeypatch):
    """A list that collects, in order, each target matrix the trainer builds."""
    built = []

    def recorded(p):
        built.append(target_distribution(p))
        return built[-1]

    monkeypatch.setattr(trainer, "target_distribution", recorded)
    return built


class TestInitialize:
    def test_bottleneck_defaults_to_k(self):
        encoder, unlabeled, _ = small_problem(seed=1)
        config = TrainConfig(k=3, seed=1)
        ready, protos, q = initialize(encoder, unlabeled, config)
        assert ready.output_dim == 3
        assert protos.centers.shape == (3, 3)
        np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)

    def test_explicit_bottleneck_dim(self):
        encoder, unlabeled, _ = small_problem(seed=2)
        config = TrainConfig(k=3, bottleneck_dim=5, seed=2)
        ready, protos, _ = initialize(encoder, unlabeled, config)
        assert ready.output_dim == 5
        assert protos.centers.shape == (3, 5)

    def test_initial_clusters_match_ground_truth_on_easy_data(self):
        encoder, unlabeled, truth = small_problem(seed=3, n_classes=5, dim=20,
                                                  hidden=(64,))
        config = TrainConfig(k=5, seed=3)
        ready, protos, _ = initialize(encoder, unlabeled, config)
        labels, _ = predict(ready, protos, unlabeled)
        acc, _ = clustering_accuracy(truth, labels)
        assert acc >= 0.9

    def test_identity_trunk_is_pca_rotation(self):
        """With an identity trunk and c = d the bottleneck only rotates,
        so the seeded k-means recovers the same partition as on raw data."""
        _, unlabeled, _ = small_problem(seed=4)
        d = unlabeled.dim
        encoder = EncoderParams([], None, d)
        config = TrainConfig(k=3, bottleneck_dim=d, seed=4)
        ready, protos, _ = initialize(encoder, unlabeled, config)
        labels, _ = predict(ready, protos, unlabeled)
        raw = kmeans(unlabeled.values, 3, seed=4)
        acc, _ = clustering_accuracy(raw.assignment, labels)
        assert acc == 1.0


class TestTrain:
    def test_zero_epochs_returns_initial_assignment(self):
        encoder, unlabeled, _ = small_problem(seed=5)
        config = TrainConfig(k=3, warmup_epochs=0, main_epochs=0, seed=5)
        ready, protos, _ = initialize(encoder, unlabeled, config)
        km_labels, _ = predict(ready, protos, unlabeled)
        trace = train(ready, protos, unlabeled, config)
        assert len(trace.records) == 0
        np.testing.assert_array_equal(trace.assignments, km_labels)

    def test_trace_layout_and_phases(self):
        encoder, unlabeled, _ = small_problem(seed=6)
        config = TrainConfig(k=3, warmup_epochs=2, main_epochs=3, seed=6)
        ready, protos, _ = initialize(encoder, unlabeled, config)
        trace = train(ready, protos, unlabeled, config)
        assert len(trace.records) == 5
        assert [r.phase for r in trace.records] == ["warmup"] * 2 + ["main"] * 3
        assert [r.epoch for r in trace.records] == list(range(5))
        for rec in trace.records:
            assert rec.mass_hist.sum() == unlabeled.n_rows

    def test_explicit_ramp_sets_every_omega(self):
        """``ramp=3`` replaces the default length, here 2 + 4 // 2 = 4 epochs."""
        encoder, unlabeled, _ = small_problem(seed=6)
        config = TrainConfig(k=3, variant="pi", warmup_epochs=2, main_epochs=4, ramp=3,
                             seed=6)
        ready, protos, _ = initialize(encoder, unlabeled, config)
        trace = train(ready, protos, unlabeled, config)
        assert [r.omega for r in trace.records] == [ramp_weight(3, t) for t in range(6)]

    def test_targets_frozen_through_warmup(self, monkeypatch):
        """One target set serves the whole warm-up; it is refreshed after the
        warm-up and after every main epoch."""
        encoder, unlabeled, _ = small_problem(seed=7)
        config = TrainConfig(k=3, warmup_epochs=4, main_epochs=2, seed=7)
        ready, protos, _ = initialize(encoder, unlabeled, config)
        built = built_targets(monkeypatch)
        built_before_epoch = []

        def ramp(length, epoch):
            built_before_epoch.append(len(built))
            return ramp_weight(length, epoch)

        monkeypatch.setattr(trainer, "ramp_weight", ramp)
        train(ready, protos, unlabeled, config)
        assert built_before_epoch == [1, 1, 1, 1, 2, 3]
        assert len(built) == 4
        assert not (np.array_equal(built[1], built[0]) and np.array_equal(built[2], built[0]))

    def test_empty_unlabelled_set_rejected(self):
        encoder = EncoderParams([], LayerParams(np.eye(2), np.zeros(2)), 2)
        protos = Prototypes(np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ParameterError, match="unlabelled data is empty"):
            train(encoder, protos, np.empty((0, 2)), TrainConfig(k=2))

    def test_inputs_not_mutated(self):
        encoder, unlabeled, _ = small_problem(seed=8)
        config = TrainConfig(k=3, warmup_epochs=1, main_epochs=1, seed=8)
        ready, protos, _ = initialize(encoder, unlabeled, config)
        centers_before = protos.centers.copy()
        weights_before = ready.layers[0].weights.copy()
        train(ready, protos, unlabeled, config)
        np.testing.assert_array_equal(protos.centers, centers_before)
        np.testing.assert_array_equal(ready.layers[0].weights, weights_before)

    def test_bit_identical_given_seed(self):
        encoder, unlabeled, _ = small_problem(seed=9)
        config = TrainConfig(k=3, warmup_epochs=1, main_epochs=2, seed=9)
        ready, protos, _ = initialize(encoder, unlabeled, config)
        a = train(ready, protos, unlabeled, config)
        b = train(ready, protos, unlabeled, config)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        np.testing.assert_array_equal(a.prototypes.centers, b.prototypes.centers)
        assert [r.kl_loss for r in a.records] == [r.kl_loss for r in b.records]

    def test_predict_matches_final_assignments(self):
        for variant, sep in (("baseline", 6.0), ("tep", 3.0)):
            encoder, unlabeled, _ = small_problem(seed=10, sep=sep)
            config = TrainConfig(k=3, variant=variant, warmup_epochs=1, main_epochs=2,
                                 seed=10)
            ready, protos, _ = initialize(encoder, unlabeled, config)
            trace = train(ready, protos, unlabeled, config)
            labels, probs = predict(trace.encoder, trace.prototypes, unlabeled)
            np.testing.assert_array_equal(labels, trace.assignments)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        # tep refreshes its targets from the ensemble, whose argmax here
        # differs from the assignments the trace must report.
        assert (ema_corrected(trace.ensemble).argmax(axis=1) != trace.assignments).any()

    def test_kl_declines_over_the_main_loop(self):
        """On an easy instance the final KL is no worse than the first
        main-loop epoch's (progress across refreshes, not per-step)."""
        encoder, unlabeled, _ = small_problem(seed=19, n_classes=5, dim=20, hidden=(64,))
        config = TrainConfig(k=5, warmup_epochs=5, main_epochs=20, seed=19)
        ready, protos, _ = initialize(encoder, unlabeled, config)
        trace = train(ready, protos, unlabeled, config)
        first_main = next(r for r in trace.records if r.phase == "main")
        assert trace.records[-1].kl_loss <= first_main.kl_loss

    def test_mean_accuracy_not_below_kmeans_init(self):
        """Annealing on easy mixtures does not lose ground to its k-means start."""
        init_accs, final_accs = [], []
        for seed in range(10):
            encoder, unlabeled, truth = small_problem(seed=200 + seed)
            config = TrainConfig(k=3, warmup_epochs=3, main_epochs=12, seed=seed)
            ready, protos, _ = initialize(encoder, unlabeled, config)
            init_labels, _ = predict(ready, protos, unlabeled)
            init_accs.append(clustering_accuracy(truth, init_labels)[0])
            trace = train(ready, protos, unlabeled, config)
            final_accs.append(clustering_accuracy(truth, trace.assignments)[0])
        assert np.mean(final_accs) >= np.mean(init_accs) - 1e-12


class TestVariants:
    def test_pi_with_zero_sigma_collapses_to_baseline(self):
        encoder, unlabeled, _ = small_problem(seed=11)
        base_cfg = TrainConfig(k=3, warmup_epochs=2, main_epochs=3, seed=11)
        pi_cfg = TrainConfig(k=3, variant="pi", perturb_sigma=0.0,
                             warmup_epochs=2, main_epochs=3, seed=11)
        ready, protos, _ = initialize(encoder, unlabeled, base_cfg)
        base = train(ready, protos, unlabeled, base_cfg)
        pi = train(ready, protos, unlabeled, pi_cfg)
        np.testing.assert_array_equal(base.assignments, pi.assignments)
        np.testing.assert_array_equal(base.prototypes.centers, pi.prototypes.centers)
        assert all(r.consistency_loss == 0.0 for r in pi.records)
        assert [r.kl_loss for r in base.records] == [r.kl_loss for r in pi.records]

    @pytest.mark.parametrize("variant", ["pi", "te"])
    def test_step_matches_public_function_loop(self, variant):
        """The fused step against the loop written with public functions
        only, chaining the KL and consistency gradients separately."""
        encoder, unlabeled, _ = small_problem(seed=18)
        config = TrainConfig(k=3, variant=variant, perturb_sigma=0.2,
                             warmup_epochs=1, main_epochs=1, seed=18)
        ready, protos, _ = initialize(encoder, unlabeled, config)
        trace = train(ready, protos, unlabeled, config)
        assert not trace.warnings

        x = unlabeled.values
        enc, protos = ready.copy(), protos.copy()
        params = [protos.centers, enc.bottleneck.weights, enc.bottleneck.bias]
        for layer in enc.layers:
            params += [layer.weights, layer.bias]
        velocity = [np.zeros_like(p) for p in params]
        p_full = soft_assign(forward(enc, x), protos)
        q = target_distribution(p_full)
        state = ema_update(EnsembleState.zeros(*p_full.shape, config.ema_momentum), p_full)
        for epoch in range(2):
            omega = ramp_weight(config.ramp_schedule(), epoch)
            order = rng_for(config.seed, "shuffle", epoch).permutation(len(x))
            x_prime = perturb(x, config.perturb_sigma, config.seed, epoch)
            for start in range(0, len(x), config.batch_size):
                rows = order[start : start + config.batch_size]
                xb = x[rows]
                zb = forward(enc, xb)
                kl_z, kl_c = kl_loss_gradients(zb, protos, q[rows])
                if variant == "pi":
                    p_prime = soft_assign(forward(enc, x_prime[rows]), protos)
                else:
                    p_prime = ema_corrected(state)[rows]
                _, grad_p = consistency_loss(soft_assign(zb, protos), p_prime)
                cons_z, cons_c = soft_assign_grads(zb, protos, omega * grad_p)
                enc_grads, _ = backward(enc, xb, kl_z + cons_z)
                grads = [kl_c + cons_c, *enc_grads]
                for param, v, g in zip(params, velocity, grads):
                    v *= MOMENTUM
                    v += g
                    param -= config.learning_rate * v
            p_full = soft_assign(forward(enc, x), protos)
            state = ema_update(state, p_full)
            q = target_distribution(p_full)

        labels, _ = predict(enc, protos, x)
        np.testing.assert_array_equal(trace.assignments, labels)
        scale = np.abs(protos.centers).max()
        assert np.abs(trace.prototypes.centers - protos.centers).max() <= 1e-12 * scale

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_pi_perturbs_the_whole_set_once_per_epoch(self, monkeypatch, variant):
        encoder, unlabeled, _ = small_problem(seed=19)
        config = TrainConfig(k=3, variant=variant, warmup_epochs=2, main_epochs=3, seed=19)
        ready, protos, _ = initialize(encoder, unlabeled, config)
        shapes = []

        def counting_perturb(batch, *args):
            shapes.append(np.shape(batch))
            return perturb(batch, *args)

        monkeypatch.setattr(trainer, "perturb", counting_perturb)
        train(ready, protos, unlabeled, config)
        calls = 5 if variant == "pi" else 0
        assert shapes == [unlabeled.values.shape] * calls

    def test_pi_consistency_positive_with_noise(self):
        encoder, unlabeled, _ = small_problem(seed=12)
        config = TrainConfig(k=3, variant="pi", perturb_sigma=0.2,
                             warmup_epochs=1, main_epochs=2, seed=12)
        ready, protos, _ = initialize(encoder, unlabeled, config)
        trace = train(ready, protos, unlabeled, config)
        assert all(r.consistency_loss > 0.0 for r in trace.records)

    def test_te_tracks_ensemble(self):
        encoder, unlabeled, _ = small_problem(seed=13)
        config = TrainConfig(k=3, variant="te", warmup_epochs=1, main_epochs=3, seed=13)
        ready, protos, _ = initialize(encoder, unlabeled, config)
        trace = train(ready, protos, unlabeled, config)
        assert trace.ensemble is not None
        # one seeding update plus one per epoch
        assert trace.ensemble.step == 1 + 4

    def test_tep_targets_come_from_corrected_ensemble(self, monkeypatch):
        """Replicates the warm-up by hand and checks the refreshed targets."""
        encoder, unlabeled, _ = small_problem(seed=14)
        tep_cfg = TrainConfig(k=3, variant="tep", warmup_epochs=1, main_epochs=1, seed=14)
        ready, protos, q0 = initialize(encoder, unlabeled, tep_cfg)
        built = built_targets(monkeypatch)
        train(ready, protos, unlabeled, tep_cfg)
        main_targets = built[1]   # built after the warm-up, used in the main epoch

        # During warm-up tep is identical to the baseline: targets frozen,
        # no consistency term.  Recover the post-warm-up model that way.
        warm_cfg = TrainConfig(k=3, variant="baseline", warmup_epochs=1,
                               main_epochs=0, seed=14)
        warm = train(ready, protos, unlabeled, warm_cfg)
        p_init = soft_assign(forward(ready, unlabeled.values), protos)
        _, p_warm = predict(warm.encoder, warm.prototypes, unlabeled)
        state = ema_update(EnsembleState.zeros(*p_init.shape, 0.6), p_init)
        state = ema_update(state, p_warm)
        q_expected = target_distribution(ema_corrected(state))
        np.testing.assert_array_equal(main_targets, q_expected)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ParameterError):
            TrainConfig(k=3, variant="mixup")

    @pytest.mark.parametrize("name,value", [
        ("perturb_sigma", -1.0), ("perturb_sigma", float("nan")), ("perturb_sigma", float("inf")),
        ("ema_momentum", -0.1), ("ema_momentum", 1.0), ("ema_momentum", 1.5),
    ])
    def test_out_of_range_regularizer_setting_rejected(self, name, value):
        """Rejected for every variant, including those that do not use it."""
        with pytest.raises(ParameterError):
            TrainConfig(k=3, **{name: value})

    @pytest.mark.parametrize("value", [0.0, float("nan"), float("inf")])
    def test_out_of_range_learning_rate_rejected(self, value):
        with pytest.raises(ParameterError, match="learning rate must be positive and finite"):
            TrainConfig(k=3, learning_rate=value)

    def test_regularizer_settings_at_their_bounds_accepted(self):
        config = TrainConfig(k=3, perturb_sigma=0.0, ema_momentum=0.0)
        assert (config.perturb_sigma, config.ema_momentum) == (0.0, 0.0)


class TestRecovery:
    def test_dead_prototype_is_reseeded(self):
        """A prototype at overflow distance gets zero mass and is recycled
        onto the row that explicit differences pick: the argmax over rows
        of the minimum squared distance.  The reported assignments are the
        reseeded model's predictions, with rows in the recycled cluster."""
        rng = np.random.default_rng(15)
        x = rng.normal(size=(30, 2))
        encoder = EncoderParams([], LayerParams(np.eye(2), np.zeros(2)), 2)
        centers = np.vstack([x[:3], np.full((1, 2), 1e200)])
        diff = x[:, None, :] - centers[None, :, :]
        with np.errstate(over="ignore"):
            farthest = x[np.argmax((diff * diff).sum(axis=2).min(axis=1))]
        protos = Prototypes(centers)
        for main_epochs in (0, 1):
            config = TrainConfig(k=4, warmup_epochs=0, main_epochs=main_epochs,
                                 learning_rate=0.01, seed=15)
            trace = train(encoder, protos, x, config)
            assert trace.warnings == ["epoch -1: reseeded empty prototype 3"]
            assert np.isfinite(trace.prototypes.centers).all()
            if main_epochs == 0:   # no step has moved the reseeded center yet
                np.testing.assert_array_equal(trace.prototypes.centers[3], farthest)
            labels, _ = predict(trace.encoder, trace.prototypes, x)
            np.testing.assert_array_equal(labels, trace.assignments)
            assert (labels == 3).any()


class TestPredict:
    def test_point_at_prototype(self):
        protos = Prototypes(np.array([[0.0, 0.0], [50.0, 0.0]]))
        encoder = EncoderParams([], LayerParams(np.eye(2), np.zeros(2)), 2)
        labels, probs = predict(encoder, protos, np.array([[0.1, 0.0]]))
        assert labels[0] == 0
        assert probs[0, 0] > 0.99

    def test_equidistant_tie_takes_lowest_index(self):
        protos = Prototypes(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        encoder = EncoderParams([], LayerParams(np.eye(2), np.zeros(2)), 2)
        labels, _ = predict(encoder, protos, np.zeros((1, 2)))
        assert labels[0] == 0

    def test_dimension_mismatch(self):
        protos = Prototypes(np.zeros((2, 2)))
        encoder = EncoderParams([], LayerParams(np.eye(2), np.zeros(2)), 2)
        with pytest.raises(ParameterError):
            predict(encoder, protos, np.zeros((1, 5)))
