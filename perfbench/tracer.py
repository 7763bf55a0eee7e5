"""Spans around the package's public functions, installed from outside.

A :class:`Tracer` replaces chosen module attributes with timing
wrappers, records one span (name, start, end, parent) per call in
memory, and puts the originals back on :meth:`Tracer.restore`.  A name
that no longer exists in its module is skipped, so it reports 0 calls.
Work counts that follow from argument shapes or return values are
computed by per-name hooks; they are exact, not timed.  A hook that no
longer fits its function's arguments is recorded in ``hook_errors``
instead of failing the call.

Untraced runs use :class:`NullTracer`, which installs nothing.
"""

import contextlib
import importlib
import json
import math
import os
import time
from collections import defaultdict


class NullTracer:
    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self.hook_errors = {}      # span name -> why its work count is missing
        self._stack = []
        self._patched = []

    @contextlib.contextmanager
    def span(self, name):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                try:
                    hook(self.counts, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    # A changed signature must not fail the pipeline call.
                    self.hook_errors[name] = f"{type(exc).__name__}: {exc}"
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        """Wrap the ``(module, attribute, hook)`` targets that exist."""
        for module, attr, hook in targets:
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self._wrap(attr, original, hook))
            self._patched.append((module, attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return out

    def dump(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


# --- computed work counts -------------------------------------------------

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows_cols(x):
    shape = getattr(x, "values", x).shape
    return shape[0], shape[1]


def _tensor_bytes(counts, args, kwargs, result):
    n, c = _rows_cols(_arg(args, kwargs, 0, "embeddings"))
    k = _arg(args, kwargs, 1, "protos").centers.shape[0]
    counts["assignment.tensor_bytes"] += n * k * c * 8


def _silhouette_pairs(counts, args, kwargs, result):
    n, _ = _rows_cols(_arg(args, kwargs, 0, "data"))
    counts["metrics.silhouette_pairs"] += n * n


def _iterations(metric):
    def hook(counts, args, kwargs, result):
        counts[metric] += result.iterations
    return hook


def _train(counts, args, kwargs, result):
    n, _ = _rows_cols(_arg(args, kwargs, 2, "unlabeled"))
    config = _arg(args, kwargs, 3, "config")
    epochs = config.warmup_epochs + config.main_epochs
    counts["trainer.steps"] += epochs * math.ceil(n / min(config.batch_size, n))
    counts["trainer.row_epochs"] += n * epochs
    counts["trainer.reseeds"] += len(result.warnings)


def _load_bytes(counts, args, kwargs, result):
    counts["dataset.load_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# Public names as the trainer, estimator and CLI import them, each with
# its work-count hook; a call's span is named after the attribute.  The
# metrics module is wrapped too, because evaluate_clustering calls its
# own accuracy and NMI functions.
NAMES = {
    "trainer": [
        ("forward", None),
        ("backward", None),
        ("fit_pca", None),
        ("kmeans", _iterations("kmeans.iterations")),
        ("soft_assign", _tensor_bytes),
        ("kl_loss_gradients", _tensor_bytes),
        ("soft_assign_grads", _tensor_bytes),
        ("target_distribution", None),
        ("kl_loss", None),
        ("consistency_loss", None),
        ("perturb", None),
        ("ema_update", None),
        ("ema_corrected", None),
    ],
    "estimator": [
        ("constrained_kmeans", _iterations("kmeans.constrained_iterations")),
        ("silhouette", _silhouette_pairs),
        ("clustering_accuracy", None),
    ],
    "metrics": [
        ("clustering_accuracy", None),
        ("nmi", None),
    ],
    "cli": [
        ("load_features", _load_bytes),
        ("load_encoder", None),
        ("forward", None),
        ("initialize", None),
        ("train", _train),
        ("write_manifest", None),
    ],
}

# The benchmark's own entry points are wrapped the same way, so spans
# nest identically whether the pipeline starts in the library or the CLI.
TOP_LEVEL = [
    ("forward", None),
    ("initialize", None),
    ("train", _train),
]


def targets(package):
    out = []
    for module_name, names in NAMES.items():
        try:
            module = importlib.import_module(f"{package.__name__}.{module_name}")
        except ModuleNotFoundError:
            continue
        out += [(module, attr, hook) for attr, hook in names]
    out += [(package, attr, hook) for attr, hook in TOP_LEVEL]
    return out


# Per-layer metrics: (metric, span name, field) with field one of
# "s" (total seconds), "self_s" (self seconds) or "calls".
SPAN_METRICS = [
    ("encoder.pretrain_s", "pretrain_encoder", "s"),
    ("encoder.forward_s", "forward", "s"),
    ("encoder.forward_calls", "forward", "calls"),
    ("encoder.backward_s", "backward", "s"),
    ("encoder.backward_calls", "backward", "calls"),
    ("encoder.fit_pca_s", "fit_pca", "s"),
    ("encoder.load_s", "load_encoder", "s"),
    ("assignment.soft_assign_s", "soft_assign", "s"),
    ("assignment.soft_assign_calls", "soft_assign", "calls"),
    ("assignment.kl_grad_s", "kl_loss_gradients", "s"),
    ("assignment.kl_grad_calls", "kl_loss_gradients", "calls"),
    ("assignment.vjp_s", "soft_assign_grads", "s"),
    ("assignment.vjp_calls", "soft_assign_grads", "calls"),
    ("assignment.target_s", "target_distribution", "s"),
    ("assignment.kl_loss_s", "kl_loss", "s"),
    ("assignment.consistency_s", "consistency_loss", "s"),
    ("regularizers.perturb_s", "perturb", "s"),
    ("regularizers.perturb_calls", "perturb", "calls"),
    ("kmeans.s", "kmeans", "s"),
    ("kmeans.constrained_s", "constrained_kmeans", "s"),
    ("metrics.silhouette_s", "silhouette", "s"),
    ("metrics.silhouette_calls", "silhouette", "calls"),
    ("metrics.accuracy_s", "clustering_accuracy", "s"),
    ("metrics.nmi_s", "nmi", "s"),
    ("estimator.s", "estimate_class_count", "s"),
    ("estimator.self_s", "estimate_class_count", "self_s"),
    ("trainer.initialize_s", "initialize", "s"),
    ("trainer.train_s", "train", "s"),
    ("trainer.train_self_s", "train", "self_s"),
    ("dataset.load_s", "load_features", "s"),
    ("cli.cluster_s", "cli.main", "s"),
    ("cli.self_s", "cli.main", "self_s"),
    ("manifest.write_s", "write_manifest", "s"),
]

# Span names summed into one metric.
SUMMED_SPAN_METRICS = [
    ("regularizers.ema_s", ("ema_update", "ema_corrected")),
]

# Computed (not timed) counts, taken from argument shapes and results.
COMPUTED_COUNTS = [
    ("assignment.tensor_bytes", "B"),
    ("metrics.silhouette_pairs", "count"),
    ("trainer.steps", "count"),
    ("trainer.reseeds", "count"),
    ("kmeans.iterations", "count"),
    ("kmeans.constrained_iterations", "count"),
    ("dataset.load_bytes", "B"),
]


def layer_metrics(tracer):
    """Per-layer values from the recorded spans and computed counts."""
    totals = tracer.totals()
    values = {}
    for metric, name, fieldname in SPAN_METRICS:
        calls, total, own = totals.get(name, (0, 0.0, 0.0))
        values[metric] = {"s": total, "self_s": own, "calls": calls}[fieldname]
    for metric, names in SUMMED_SPAN_METRICS:
        values[metric] = sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)
    for metric, _ in COMPUTED_COUNTS:
        values[metric] = tracer.counts.get(metric, 0)
    return values
