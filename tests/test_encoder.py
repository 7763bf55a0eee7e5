"""Tests for the encoder: forward/backward, PCA, pretraining, checkpoints."""

import struct

import numpy as np
import pytest

from transfercluster.dataset import FeatureMatrix, LabeledSet, synth_mixture
from transfercluster.encoder import (
    EncoderParams,
    _backward,
    _forward_trace,
    LayerParams,
    PretrainConfig,
    backward,
    fit_pca,
    forward,
    install_bottleneck,
    load_encoder,
    pretrain_classifier,
    pretrain_encoder,
    save_encoder,
)
from transfercluster.errors import DataError, ParameterError

# Checkpoint offset of the first layer's activation byte: the "<4sBIB"
# header, then that layer's in and out dims.
TAG_OFFSET = 18


def random_encoder(rng, d_in=4, hidden=5, c=3):
    layers = [LayerParams(rng.normal(scale=0.5, size=(hidden, d_in)),
                          rng.normal(scale=0.1, size=hidden))]
    bottleneck = LayerParams(rng.normal(scale=0.5, size=(c, hidden)),
                             rng.normal(scale=0.1, size=c))
    return EncoderParams(layers, bottleneck, d_in)


def fd_gradients(loss_fn, arrays, h=1e-5):
    out = []
    for arr in arrays:
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + h
            up = loss_fn()
            arr[idx] = keep - h
            down = loss_fn()
            arr[idx] = keep
            grad[idx] = (up - down) / (2 * h)
        out.append(grad)
    return out


def rel_error(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-10)


class TestForward:
    def test_identity_configuration(self):
        enc = EncoderParams([], LayerParams(np.eye(3), np.zeros(3)), 3)
        x = np.arange(12, dtype=float).reshape(4, 3)
        np.testing.assert_array_equal(forward(enc, x), x)

    def test_single_row_shape(self):
        enc = random_encoder(np.random.default_rng(0))
        out = forward(enc, np.zeros((1, 4)))
        assert out.shape == (1, 3)

    def test_affine_property_of_linear_encoder(self):
        rng = np.random.default_rng(1)
        enc = EncoderParams([], LayerParams(rng.normal(scale=0.5, size=(3, 4)),
                                            rng.normal(scale=0.1, size=3)), 4)
        x = rng.normal(size=(6, 4))
        alpha = 2.75
        lhs = forward(enc, alpha * x)
        rhs = alpha * forward(enc, x) - (alpha - 1.0) * forward(enc, np.zeros((6, 4)))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_feature_matrix_keeps_ids(self):
        enc = random_encoder(np.random.default_rng(2))
        fm = FeatureMatrix(np.zeros((2, 4)), ("p", "q"))
        out = forward(enc, fm)
        assert isinstance(out, FeatureMatrix)
        assert out.ids == ("p", "q")

    def test_dim_mismatch(self):
        enc = random_encoder(np.random.default_rng(3))
        with pytest.raises(ParameterError):
            forward(enc, np.zeros((2, 5)))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(4)
        enc = random_encoder(rng)
        grads, input_grad = backward(enc, rng.normal(size=(5, 4)), np.zeros((5, 3)))
        assert len(grads) == len(enc.arrays())
        for arr in grads:
            np.testing.assert_array_equal(arr, np.zeros_like(arr))
        np.testing.assert_array_equal(input_grad, np.zeros((5, 4)))

    def test_kept_trace_gives_public_backward_bitwise(self):
        rng = np.random.default_rng(8)
        enc = random_encoder(rng)
        x = rng.normal(size=(6, 4))
        upstream = rng.normal(size=(6, 3))
        kept_grads, kept_input = _backward(enc, _forward_trace(enc, x), upstream)
        grads, input_grad = backward(enc, x, upstream)
        assert len(kept_grads) == len(grads) == len(enc.arrays())
        for kept, public in zip(kept_grads, grads):
            np.testing.assert_array_equal(kept, public)
        np.testing.assert_array_equal(kept_input, input_grad)

    def test_linear_encoder_matches_least_squares_gradient(self):
        """Quadratic loss through a purely affine map has a closed form.

        With y = x W^T + b and L = ||y - t||^2 / (2n), the gradients are
        dW = (y - t)^T x / n and db = mean(y - t).
        """
        rng = np.random.default_rng(5)
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        enc = EncoderParams([], LayerParams(w, b), 4)
        x = rng.normal(size=(10, 4))
        t = rng.normal(size=(10, 3))
        y = x @ w.T + b
        upstream = (y - t) / 10.0
        grads, _ = backward(enc, x, upstream)
        grad_w, grad_b = grads
        np.testing.assert_allclose(grad_w, (y - t).T @ x / 10.0, atol=1e-8)
        np.testing.assert_allclose(grad_b, (y - t).mean(axis=0), atol=1e-8)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        enc = random_encoder(rng)
        x = rng.normal(size=(4, 4))
        target = rng.normal(size=(4, 3))

        def loss():
            diff = forward(enc, x) - target
            return 0.5 * float((diff * diff).sum())

        upstream = forward(enc, x) - target
        grads, input_grad = backward(enc, x, upstream)
        fd = fd_gradients(loss, enc.arrays())
        assert len(grads) == len(fd)
        for got, want in zip(grads, fd):
            assert rel_error(got, want) <= 1e-4
        (fd_x,) = fd_gradients(loss, [x])
        assert rel_error(input_grad, fd_x) <= 1e-4

    def test_directional_derivative(self):
        """Backward agrees with a central difference along a random direction."""
        rng = np.random.default_rng(7)
        enc = random_encoder(rng)
        x = rng.normal(size=(5, 4))
        target = rng.normal(size=(5, 3))
        upstream = forward(enc, x) - target
        grads, _ = backward(enc, x, upstream)
        params = enc.arrays()
        direction = [rng.normal(size=p.shape) for p in params]
        norm = np.sqrt(sum((d * d).sum() for d in direction))
        direction = [d / norm for d in direction]
        analytic = sum((g * d).sum() for g, d in zip(grads, direction))
        eps = 1e-5

        def loss():
            diff = forward(enc, x) - target
            return 0.5 * float((diff * diff).sum())

        for p, d in zip(params, direction):
            p += eps * d
        up = loss()
        for p, d in zip(params, direction):
            p -= 2 * eps * d
        down = loss()
        for p, d in zip(params, direction):
            p += eps * d
        numeric = (up - down) / (2 * eps)
        assert abs(analytic - numeric) / max(abs(numeric), 1e-10) <= 1e-4


class TestPca:
    def test_rank_one_line(self):
        rng = np.random.default_rng(8)
        t = rng.normal(size=50)
        direction = np.array([1.0, 2.0, -1.0]) / np.sqrt(6.0)
        x = np.outer(t, direction) + np.array([5.0, -3.0, 0.5])
        pca = fit_pca(x, 1)
        assert pca.explained_variance[0] == pytest.approx(np.var(t, ddof=1), rel=1e-10)
        recon = pca.project(x) @ pca.components + pca.mean
        assert np.abs(recon - x).max() <= 1e-10

    def test_matches_covariance_eigendecomposition(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(200, 6)) @ rng.normal(size=(6, 6))
        pca = fit_pca(x, 4)
        centered = x - x.mean(axis=0)
        eigvals = np.linalg.eigvalsh(centered.T @ centered / (len(x) - 1))[::-1]
        np.testing.assert_allclose(pca.explained_variance, eigvals[:4], atol=1e-10)

    def test_isotropic_variances_close(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(5000, 2))
        pca = fit_pca(x, 2)
        v0, v1 = pca.explained_variance
        assert abs(v0 - v1) / v0 < 0.15

    def test_orthonormal_components(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(6, 40))
            d = int(rng.integers(2, 8))
            c = int(rng.integers(1, min(n, d) + 1))
            pca = fit_pca(rng.normal(size=(n, d)), c)
            gram = pca.components @ pca.components.T
            np.testing.assert_allclose(gram, np.eye(c), atol=1e-8)
            assert (np.diff(pca.explained_variance) <= 1e-12).all()

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(30, 5))
        pca = fit_pca(x, 5)
        recon = pca.project(x) @ pca.components + pca.mean
        assert np.abs(recon - x).max() <= 1e-10

    def test_sign_convention(self):
        rng = np.random.default_rng(13)
        pca = fit_pca(rng.normal(size=(40, 4)), 3)
        for row in pca.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_too_many_components(self):
        with pytest.raises(ParameterError):
            fit_pca(np.zeros((3, 5)), 4)


class TestInstallBottleneck:
    def test_forward_equals_pca_projection(self):
        rng = np.random.default_rng(14)
        trunk = EncoderParams(
            [LayerParams(rng.normal(size=(6, 4)), rng.normal(size=6))], None, 4
        )
        x = rng.normal(size=(20, 4))
        pca = fit_pca(forward(trunk, x), 3)
        ready = install_bottleneck(trunk, pca)
        np.testing.assert_allclose(forward(ready, x), pca.project(forward(trunk, x)),
                                   atol=1e-12)

    def test_double_install_rejected(self):
        rng = np.random.default_rng(15)
        enc = random_encoder(rng)
        pca = fit_pca(rng.normal(size=(10, 5)), 2)
        with pytest.raises(ParameterError, match="already"):
            install_bottleneck(enc, pca)

    def test_trunk_preserved_bitwise(self):
        rng = np.random.default_rng(16)
        trunk = EncoderParams(
            [LayerParams(rng.normal(size=(10, 7)), rng.normal(size=10))], None, 7
        )
        pca = fit_pca(rng.normal(size=(30, 10)), 3)
        ready = install_bottleneck(trunk, pca)
        np.testing.assert_array_equal(ready.layers[0].weights, trunk.layers[0].weights)
        np.testing.assert_array_equal(ready.layers[0].bias, trunk.layers[0].bias)
        assert ready.output_dim == 3

    def test_dimension_mismatch(self):
        trunk = EncoderParams([], None, 4)
        pca = fit_pca(np.random.default_rng(0).normal(size=(10, 3)), 2)
        with pytest.raises(ParameterError, match="layer 0 expects input dim 3, got 4"):
            install_bottleneck(trunk, pca)


class TestPretrain:
    def test_loss_decreases_on_separable_toy(self):
        rng = np.random.default_rng(17)
        x = np.vstack([rng.normal(size=(40, 3)) - 4.0, rng.normal(size=(40, 3)) + 4.0])
        labeled = LabeledSet(
            FeatureMatrix(x, tuple(str(i) for i in range(80))),
            np.array([0] * 40 + [1] * 40),
        )
        result = pretrain_classifier(labeled, PretrainConfig(epochs=15), seed=0)
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_held_out_accuracy_on_easy_mixture(self):
        labeled, _, _ = synth_mixture(5, 1, 100, 20, 6.0, seed=21)
        rng = np.random.default_rng(0)
        order = rng.permutation(labeled.features.n_rows)
        cut = int(0.8 * len(order))
        train_rows, test_rows = order[:cut], order[cut:]
        train = LabeledSet(
            FeatureMatrix(labeled.features.values[train_rows],
                          tuple(labeled.features.ids[i] for i in train_rows)),
            np.unique(labeled.labels[train_rows], return_inverse=True)[1],
        )
        result = pretrain_classifier(train, seed=1)
        trunk = forward(result.encoder, labeled.features.values[test_rows])
        logits = trunk @ result.head.weights.T + result.head.bias
        acc = (logits.argmax(axis=1) == labeled.labels[test_rows]).mean()
        assert acc >= 0.95

    def test_identity_trunk_passthrough(self):
        """With no hidden layers only the head trains; features pass through."""
        rng = np.random.default_rng(22)
        x = np.vstack([rng.normal(size=(30, 2)) - 3, rng.normal(size=(30, 2)) + 3])
        labeled = LabeledSet(
            FeatureMatrix(x, tuple(str(i) for i in range(60))),
            np.array([0] * 30 + [1] * 30),
        )
        result = pretrain_classifier(labeled, PretrainConfig(hidden=(), epochs=10), seed=3)
        np.testing.assert_array_equal(forward(result.encoder, x), x)
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    @pytest.mark.parametrize("field", [{"batch_size": 0}, {"batch_size": -4},
                                       {"hidden": (0,)}, {"hidden": (8, -3)}],
                             ids=["batch-0", "batch-negative", "hidden-0", "hidden-negative"])
    def test_config_rejects_sizes_below_one(self, field):
        with pytest.raises(ParameterError):
            PretrainConfig(**field)

    @pytest.mark.parametrize("value", [0.0, float("nan"), float("inf")])
    def test_config_rejects_out_of_range_learning_rate(self, value):
        with pytest.raises(ParameterError, match="learning rate must be positive and finite"):
            PretrainConfig(learning_rate=value)

    def test_deterministic(self):
        labeled, _, _ = synth_mixture(3, 1, 20, 5, 5.0, seed=5)
        a = pretrain_encoder(labeled, PretrainConfig(epochs=5), seed=7)
        b = pretrain_encoder(labeled, PretrainConfig(epochs=5), seed=7)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(23)
        enc = random_encoder(rng)
        path = tmp_path / "enc.dtce"
        save_encoder(path, enc)
        back = load_encoder(path)
        assert back.input_dim == 4
        np.testing.assert_array_equal(back.layers[0].weights, enc.layers[0].weights)
        np.testing.assert_array_equal(back.bottleneck.weights, enc.bottleneck.weights)
        np.testing.assert_array_equal(back.bottleneck.bias, enc.bottleneck.bias)
        assert path.read_bytes()[TAG_OFFSET] == 1   # the tanh activation byte

    def test_round_trip_without_bottleneck(self, tmp_path):
        rng = np.random.default_rng(24)
        enc = EncoderParams(
            [LayerParams(rng.normal(size=(5, 2)), rng.normal(size=5))], None, 2
        )
        path = tmp_path / "enc.dtce"
        save_encoder(path, enc)
        back = load_encoder(path)
        assert back.bottleneck is None
        np.testing.assert_array_equal(back.layers[0].bias, enc.layers[0].bias)

    @pytest.mark.parametrize("with_bottleneck", [True, False], ids=["bottleneck", "trunk"])
    def test_golden_bytes(self, tmp_path, with_bottleneck):
        """The DTCE layout, written out field by field: the "<4sBIB" header
        (magic, version 1, input dim, layer count), each layer's "<IIB" (in,
        out, tanh tag 1), the bottleneck flag byte and the bottleneck's "<II"
        (in, out), then each layer's weights and bias, the bottleneck's last,
        as little-endian float64."""
        rng = np.random.default_rng(27)
        w1, b1 = rng.normal(size=(4, 3)), rng.normal(size=4)
        w2, b2 = rng.normal(size=(2, 4)), rng.normal(size=2)
        a, b = rng.normal(size=(3, 2)), rng.normal(size=3)
        w1[0, 0], b1[1], w2[1, 3], a[2, 1] = -0.0, 5e-324, 1.7976931348623157e308, np.pi
        golden = (struct.pack("<4sBIB", b"DTCE", 1, 3, 2)
                  + struct.pack("<IIB", 3, 4, 1) + struct.pack("<IIB", 4, 2, 1))
        if with_bottleneck:
            golden += struct.pack("<B", 1) + struct.pack("<II", 2, 3)
        else:
            golden += struct.pack("<B", 0)
        params = [w1, b1, w2, b2] + ([a, b] if with_bottleneck else [])
        golden += b"".join(p.astype("<f8").tobytes() for p in params)

        path = tmp_path / "golden.dtce"
        path.write_bytes(golden)
        enc = load_encoder(path)
        assert (enc.input_dim, len(enc.layers)) == (3, 2)
        assert enc.output_dim == (3 if with_bottleneck else 2)
        # arrays(): the bottleneck's (weights, bias) first, then each layer's.
        want = ([a, b] if with_bottleneck else []) + [w1, b1, w2, b2]
        got = enc.arrays()
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == np.float64 and g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        out = tmp_path / "saved.dtce"
        save_encoder(out, enc)
        assert out.read_bytes() == golden

    @pytest.mark.parametrize("tag", [0, 7])
    def test_activation_tag_other_than_tanh_is_data_error(self, tmp_path, tag):
        """Byte 0 was the retired linear activation; only tanh (1) loads."""
        path = tmp_path / "enc.dtce"
        save_encoder(path, random_encoder(np.random.default_rng(25)))
        blob = bytearray(path.read_bytes())
        blob[TAG_OFFSET] = tag
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match=f"unknown activation tag {tag}"):
            load_encoder(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_bottleneck_is_data_error(self, tmp_path, value):
        """A bottleneck with a non-finite value is refused, as a layer with
        one is: on construction, and when a checkpoint holding it loads."""
        enc = random_encoder(np.random.default_rng(26))
        a, b = enc.bottleneck.weights, enc.bottleneck.bias
        with pytest.raises(ParameterError, match="layer parameters must be finite"):
            EncoderParams(enc.layers, LayerParams(a, np.full_like(b, value)), enc.input_dim)
        path = tmp_path / "enc.dtce"
        save_encoder(path, enc)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8] + np.array([value], dtype="<f8").tobytes())   # last of b
        with pytest.raises(DataError, match="layer parameters must be finite"):
            load_encoder(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "enc.dtce"
        path.write_bytes(b"XXXX" + bytes(20))
        with pytest.raises(DataError, match="magic"):
            load_encoder(path)
