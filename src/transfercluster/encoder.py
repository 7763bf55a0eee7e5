"""The embedding network: a small dense trunk plus a linear bottleneck.

The trunk is a stack of fully connected tanh layers; the bottleneck is
a linear :class:`LayerParams` installed from a PCA fit and fine-tuned
afterwards like any other layer.  Forward and backward passes are plain
numpy; backward returns exact analytic gradients.

``_forward_trace`` keeps every trunk activation, from the input to the
trunk output, and ``_backward`` consumes such a trace, so a training
step runs the forward pass once and backpropagates through the same
trace.  The public :func:`backward` traces the batch itself and gives
bit-identical gradients.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .dataset import FeatureMatrix, LabeledSet, as_values
from .errors import DataError, NumericalError, ParameterError
from .seeding import rng_for

_CHECKPOINT_MAGIC = b"DTCE"
_CHECKPOINT_VERSION = 1
_TANH_TAG = 1   # per-layer activation byte; tanh is the only one

MOMENTUM = 0.9   # SGD momentum of pretraining and clustering, as in DEC


@dataclass
class LayerParams:
    """An affine map ``x @ weights.T + bias``: a trunk layer or a head."""

    weights: np.ndarray   # (out, in)
    bias: np.ndarray      # (out,)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ParameterError("layer weights must be (out, in) with matching bias")
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ParameterError("layer parameters must be finite")

    def copy(self) -> "LayerParams":
        return LayerParams(self.weights.copy(), self.bias.copy())


@dataclass
class EncoderParams:
    """Tanh trunk layers plus an optional linear bottleneck, a
    :class:`LayerParams` or ``None``."""

    layers: list[LayerParams]
    bottleneck: LayerParams | None
    input_dim: int

    def __post_init__(self):
        dim = self.input_dim
        for i, layer in enumerate(self.affine_layers()):
            if layer.weights.shape[1] != dim:
                raise ParameterError(
                    f"layer {i} expects input dim {layer.weights.shape[1]}, got {dim}"
                )
            dim = layer.weights.shape[0]

    def affine_layers(self) -> list[LayerParams]:
        """The trunk layers, then the bottleneck if installed."""
        return self.layers + ([self.bottleneck] if self.bottleneck is not None else [])

    @property
    def trunk_output_dim(self) -> int:
        if self.layers:
            return self.layers[-1].weights.shape[0]
        return self.input_dim

    @property
    def output_dim(self) -> int:
        if self.bottleneck is not None:
            return self.bottleneck.weights.shape[0]
        return self.trunk_output_dim

    def copy(self) -> "EncoderParams":
        bn = self.bottleneck.copy() if self.bottleneck is not None else None
        return EncoderParams([l.copy() for l in self.layers], bn, self.input_dim)

    def arrays(self) -> list[np.ndarray]:
        """Trainable arrays: the bottleneck's ``(weights, bias)`` if
        installed, then each layer's; the optimizer updates them in place."""
        head = [self.bottleneck] if self.bottleneck is not None else []
        return [a for l in head + self.layers for a in (l.weights, l.bias)]


@dataclass
class PcaModel:
    """Principal directions of mean-centered data, rows orthonormal."""

    mean: np.ndarray
    components: np.ndarray          # (c, d)
    explained_variance: np.ndarray  # (c,), nonincreasing

    def project(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) @ self.components.T


def _forward_trace(encoder: EncoderParams, x: np.ndarray):
    """Forward pass as ``(output, activations)``.

    ``activations[i]`` is layer i's input and ``activations[-1]`` the
    trunk output.  :func:`_backward` takes the whole tuple.
    """
    activations = [x]
    for layer in encoder.layers:
        t = activations[-1] @ layer.weights.T
        t += layer.bias
        activations.append(np.tanh(t, out=t))
    h = activations[-1]
    if encoder.bottleneck is not None:
        h = h @ encoder.bottleneck.weights.T
        h += encoder.bottleneck.bias
    return h, activations


def forward(encoder: EncoderParams, batch):
    """Embed a batch; emits bottleneck coordinates once one is installed.

    Accepts a FeatureMatrix (returned as a FeatureMatrix with the same
    ids) or a plain array (returned as an array).
    """
    values = as_values(batch)
    if values.ndim != 2:
        raise ParameterError(f"batch must be 2-D, got shape {values.shape}")
    if values.shape[1] != encoder.input_dim:
        raise ParameterError(
            f"batch dim {values.shape[1]} does not match encoder input dim {encoder.input_dim}"
        )
    out, _ = _forward_trace(encoder, values)
    if isinstance(batch, FeatureMatrix):
        return FeatureMatrix(out, batch.ids)
    return out


def backward(encoder: EncoderParams, batch, upstream: np.ndarray):
    """Backpropagate ``upstream`` (N x output_dim) through the encoder.

    Returns ``(gradients, input_gradients)``, where ``gradients`` is a
    list in the order of :meth:`EncoderParams.arrays`.
    """
    x = as_values(batch)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (x.shape[0], encoder.output_dim):
        raise ParameterError(
            f"upstream gradient shape {upstream.shape} does not match "
            f"({x.shape[0]}, {encoder.output_dim})"
        )
    return _backward(encoder, _forward_trace(encoder, x), upstream)


def _backward(encoder: EncoderParams, trace, upstream: np.ndarray):
    """:func:`backward` through a kept :func:`_forward_trace` of the batch."""
    _, activations = trace
    grad = upstream
    head_grads = []
    if encoder.bottleneck is not None:
        head_grads = [grad.T @ activations[-1], grad.sum(axis=0)]
        grad = grad @ encoder.bottleneck.weights

    layer_grads = []
    for layer, layer_in, layer_out in zip(reversed(encoder.layers),
                                          reversed(activations[:-1]),
                                          reversed(activations[1:])):
        pre_grad = grad * (1.0 - layer_out * layer_out)
        layer_grads.append((pre_grad.T @ layer_in, pre_grad.sum(axis=0)))
        grad = pre_grad @ layer.weights
    return head_grads + [g for pair in reversed(layer_grads) for g in pair], grad


def fit_pca(features, n_components: int) -> PcaModel:
    """Top principal directions via eigendecomposition of the covariance.

    Uses the sample covariance (N-1 denominator).  Sign convention: the
    largest-magnitude entry of each component is positive.
    """
    x = as_values(features)
    n, d = x.shape
    if not 1 <= n_components <= min(n, d):
        raise ParameterError(
            f"n_components must be in [1, {min(n, d)}], got {n_components}"
        )
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / max(n - 1, 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:n_components]
    components = eigvecs[:, order].T.copy()
    explained = np.clip(eigvals[order], 0.0, None)
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaModel(mean, components, explained)


def install_bottleneck(encoder: EncoderParams, pca: PcaModel) -> EncoderParams:
    """Append the PCA projection as a permanent affine head.

    After installation, forward(x) equals the PCA projection of the
    trunk output.  Trunk parameters are preserved bitwise.
    """
    if encoder.bottleneck is not None:
        raise ParameterError("bottleneck already installed")
    head = LayerParams(pca.components.copy(), -pca.components @ pca.mean)
    return EncoderParams([l.copy() for l in encoder.layers], head, encoder.input_dim)


@dataclass
class PretrainConfig:
    hidden: tuple[int, ...] = (64,)
    epochs: int = 40
    batch_size: int = 32
    learning_rate: float = 0.1

    def __post_init__(self):
        if self.epochs < 1:
            raise ParameterError("pretraining needs at least one epoch")
        if not 0.0 < self.learning_rate < math.inf:
            raise ParameterError(
                f"learning rate must be positive and finite, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ParameterError("batch size must be at least 1")
        if any(width < 1 for width in self.hidden):
            raise ParameterError(f"hidden widths must be at least 1, got {self.hidden}")


class _SgdMomentum:
    def __init__(self, params, lr):
        self.params = params
        self.lr = lr
        self.velocity = [np.zeros_like(p) for p in params]

    def step(self, grads):
        for p, v, g in zip(self.params, self.velocity, grads):
            v *= MOMENTUM
            v += g
            p -= self.lr * v


@dataclass
class PretrainResult:
    encoder: EncoderParams
    head: LayerParams   # the softmax head over the trunk output
    epoch_losses: list[float]


def _init_trunk(input_dim, config: PretrainConfig, sample: np.ndarray, seed: int):
    """Tanh layers, Glorot init rescaled so each unit's preactivation has
    unit spread."""
    layers = []
    h = sample
    dim = input_dim
    for li, width in enumerate(config.hidden):
        rng = rng_for(seed, "pretrain-init", li)
        limit = np.sqrt(6.0 / (dim + width))
        w = rng.uniform(-limit, limit, size=(width, dim))
        b = np.zeros(width)
        pre = h @ w.T + b
        spread = np.maximum(pre.std(axis=0), 1e-3)
        w /= spread[:, None]
        b /= spread
        layers.append(LayerParams(w, b))
        h = np.tanh(h @ w.T + b)
        dim = width
    return layers


def _softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def pretrain_classifier(labeled: LabeledSet, config: PretrainConfig | None = None,
                        seed: int = 0) -> PretrainResult:
    """Train trunk + softmax head with cross-entropy on the labelled set.

    The result's ``.encoder`` is the trunk and ``.head`` the softmax head,
    a :class:`LayerParams` over the trunk output."""
    config = config or PretrainConfig()
    n_classes = labeled.n_classes
    if n_classes < 2:
        raise ParameterError("pretraining needs at least 2 classes")
    x = labeled.features.values
    y = labeled.labels
    n, input_dim = x.shape

    layers = _init_trunk(input_dim, config, x, seed)
    trunk = EncoderParams(layers, None, input_dim)
    trunk_dim = trunk.trunk_output_dim
    rng = rng_for(seed, "pretrain-head")
    limit = np.sqrt(6.0 / (trunk_dim + n_classes))
    head_w = rng.uniform(-limit, limit, size=(n_classes, trunk_dim))
    head_b = np.zeros(n_classes)
    # The softmax head trains as the affine head over the trunk's own arrays.
    classifier = EncoderParams(layers, LayerParams(head_w, head_b), input_dim)

    opt = _SgdMomentum(classifier.arrays(), config.learning_rate)
    batch_size = min(config.batch_size, n)
    losses = []
    for epoch in range(config.epochs):
        order = rng_for(seed, "pretrain-shuffle", epoch).permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, batch_size):
            rows = order[start : start + batch_size]
            xb, yb = x[rows], y[rows]
            trace = _forward_trace(classifier, xb)
            probs = _softmax(trace[0])
            batch_n = len(rows)
            loss = -np.log(probs[np.arange(batch_n), yb] + 1e-300).mean()
            epoch_loss += loss
            n_batches += 1
            dlogits = probs.copy()
            dlogits[np.arange(batch_n), yb] -= 1.0
            dlogits /= batch_n
            grads, _ = _backward(classifier, trace, dlogits)
            opt.step(grads)
        mean_loss = epoch_loss / n_batches
        if not np.isfinite(mean_loss):
            raise NumericalError(f"pretraining diverged at epoch {epoch}")
        losses.append(float(mean_loss))
    return PretrainResult(trunk, classifier.bottleneck, losses)


def pretrain_encoder(labeled: LabeledSet, config: PretrainConfig | None = None,
                     seed: int = 0) -> EncoderParams:
    """Pretrain on the labelled classes; the classification head is discarded."""
    return pretrain_classifier(labeled, config, seed).encoder


def save_encoder(path, encoder: EncoderParams) -> None:
    """Write a versioned binary checkpoint (magic ``DTCE``)."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sBIB", _CHECKPOINT_MAGIC, _CHECKPOINT_VERSION,
                             encoder.input_dim, len(encoder.layers)))
        for layer in encoder.layers:
            out_dim, in_dim = layer.weights.shape
            fh.write(struct.pack("<IIB", in_dim, out_dim, _TANH_TAG))
        bn = encoder.bottleneck
        fh.write(struct.pack("<B", bn is not None))
        if bn is not None:
            out_dim, in_dim = bn.weights.shape
            fh.write(struct.pack("<II", in_dim, out_dim))
        for layer in encoder.affine_layers():
            fh.write(layer.weights.astype("<f8").tobytes())
            fh.write(layer.bias.astype("<f8").tobytes())


def load_encoder(path) -> EncoderParams:
    """Load a checkpoint written by :func:`save_encoder`.

    A truncated, garbled or inconsistent checkpoint raises DataError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _decode_checkpoint(blob, path)
    except (struct.error, ParameterError) as exc:
        raise DataError(f"{path}: malformed checkpoint: {exc}") from None


def _decode_checkpoint(blob: bytes, path) -> EncoderParams:
    offset = struct.calcsize("<4sBIB")
    if len(blob) < offset:
        raise DataError(f"{path}: truncated checkpoint header")
    magic, version, input_dim, n_layers = struct.unpack_from("<4sBIB", blob)
    if magic != _CHECKPOINT_MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}")
    if version != _CHECKPOINT_VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    shapes = []
    for _ in range(n_layers):
        in_dim, out_dim, tag = struct.unpack_from("<IIB", blob, offset)
        offset += struct.calcsize("<IIB")
        if tag != _TANH_TAG:
            raise DataError(f"{path}: unknown activation tag {tag}")
        shapes.append((in_dim, out_dim))
    (has_bn,) = struct.unpack_from("<B", blob, offset)
    offset += 1
    if has_bn not in (0, 1):
        raise DataError(f"{path}: bottleneck flag must be 0 or 1, got {has_bn}")
    if has_bn:
        shapes.append(struct.unpack_from("<II", blob, offset))
        offset += struct.calcsize("<II")

    def take(count):
        nonlocal offset
        end = offset + 8 * count
        if end > len(blob):
            raise DataError(f"{path}: truncated at offset {offset}")
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        offset = end
        return arr.astype(np.float64)

    layers = []
    for in_dim, out_dim in shapes:
        w = take(in_dim * out_dim).reshape(out_dim, in_dim)
        layers.append(LayerParams(w, take(out_dim)))
    if offset != len(blob):
        raise DataError(f"{path}: {len(blob) - offset} trailing bytes")
    bottleneck = layers.pop() if has_bn else None
    return EncoderParams(layers, bottleneck, int(input_dim))
