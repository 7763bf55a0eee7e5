"""Feature datasets: validation, file formats, probe splits, synthesis.

Two on-disk formats are supported.

CSV: first line is the header ``id,f0,f1,...,f{d-1}`` with an optional
trailing ``label`` column; one record per line; decimal floating point.

Binary: magic bytes ``DTCF``, a version byte, little-endian u32 row and
column counts, a flag byte (bit 0 = labels present), the feature values
as little-endian float64 row-major, then (if flagged) one little-endian
u32 label per row.  The binary format carries no ids; rows load with
their index as id.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParameterError
from .seeding import rng_for

FORMATS = ("csv", "binary")
_BINARY_MAGIC = b"DTCF"
_BINARY_VERSION = 1


@dataclass(frozen=True)
class FeatureMatrix:
    """N rows of d-dimensional features with stable, unique row ids."""

    values: np.ndarray
    ids: tuple[str, ...]

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ParameterError(f"feature values must be 2-D, got shape {values.shape}")
        if values.shape[1] < 1:
            raise ParameterError("feature dimension must be at least 1")
        ids = tuple(str(i) for i in self.ids)
        if len(ids) != values.shape[0]:
            raise ParameterError(
                f"{len(ids)} ids for {values.shape[0]} rows"
            )
        if len(set(ids)) != len(ids):
            raise DataError("row ids are not unique")
        bad = ~np.isfinite(values)
        if bad.any():
            row = int(np.nonzero(bad.any(axis=1))[0][0])
            raise DataError(f"non-finite value in row id '{ids[row]}'")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "ids", ids)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def as_values(batch) -> np.ndarray:
    """The float64 value array of a FeatureMatrix or of any array-like."""
    if isinstance(batch, FeatureMatrix):
        return batch.values
    return np.asarray(batch, dtype=np.float64)


@dataclass(frozen=True)
class LabeledSet:
    """Features plus a class label per row.

    Labels are contiguous integers 0..L-1 with every class non-empty.
    File loaders remap arbitrary integer labels onto this range by
    sorted value.
    """

    features: FeatureMatrix
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.shape[0] != self.features.n_rows:
            raise DataError(
                f"label array length {labels.shape} does not match "
                f"{self.features.n_rows} rows"
            )
        present = np.unique(labels)
        if present.size == 0:
            raise DataError("labeled set has no rows")
        expected = np.arange(present.size)
        if not np.array_equal(present, expected):
            raise DataError(
                "labels must be contiguous 0..L-1 with every class non-empty; "
                f"got classes {present.tolist()}"
            )
        object.__setattr__(self, "labels", labels)

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class ProbeSplit:
    """Class-level partition into anchor, validation and training sets."""

    anchor_classes: frozenset[int]
    validation_classes: frozenset[int]
    training_classes: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        anchor = frozenset(int(c) for c in self.anchor_classes)
        validation = frozenset(int(c) for c in self.validation_classes)
        training = frozenset(int(c) for c in self.training_classes)
        if not anchor or not validation:
            raise ParameterError("anchor and validation sets must each be non-empty")
        if anchor & validation or anchor & training or validation & training:
            raise ParameterError("probe split sets must be pairwise disjoint")
        object.__setattr__(self, "anchor_classes", anchor)
        object.__setattr__(self, "validation_classes", validation)
        object.__setattr__(self, "training_classes", training)

    @property
    def probe_classes(self) -> frozenset[int]:
        return self.anchor_classes | self.validation_classes


def _parse_header(line: str):
    names = line.rstrip("\n").split(",")
    if not names or names[0] != "id":
        raise DataError("header must start with the 'id' column")
    has_labels = names[-1] == "label"
    feature_names = names[1:-1] if has_labels else names[1:]
    if len(feature_names) < 1:
        raise DataError("header declares no feature columns")
    for j, name in enumerate(feature_names):
        if name != f"f{j}":
            raise DataError(f"expected feature column 'f{j}', found '{name}'")
    return len(feature_names), has_labels


def read_text(path) -> str:
    """A UTF-8 text file's contents; undecodable bytes are a DataError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None


def _load_csv(path):
    lines = read_text(path).splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    dim, has_labels = _parse_header(lines[0])
    width = 1 + dim + (1 if has_labels else 0)
    values = np.empty((len(lines) - 1, dim))
    ids, labels = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != width:
            raise DataError(
                f"{path}: line {lineno}: expected {width} fields, got {len(parts)}"
            )
        try:
            # numpy parses each token as float() does, without a float object.
            values[len(ids)] = parts[1 : 1 + dim]
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
        ids.append(parts[0])
        if has_labels:
            try:
                labels.append(int(parts[-1]))
            except ValueError:
                raise DataError(
                    f"{path}: line {lineno}: label '{parts[-1]}' is not an integer"
                ) from None
    if not ids:
        raise DataError(f"{path}: no rows")
    return values[: len(ids)], ids, (np.array(labels) if has_labels else None)


def _load_binary(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    header = struct.calcsize("<4sBIIB")
    if len(blob) < header:
        raise DataError(f"{path}: truncated header ({len(blob)} bytes)")
    magic, version, n, d, flags = struct.unpack_from("<4sBIIB", blob)
    if magic != _BINARY_MAGIC:
        raise DataError(f"{path}: bad magic {magic!r} at offset 0")
    if version != _BINARY_VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    has_labels = bool(flags & 1)
    need = header + 8 * n * d + (4 * n if has_labels else 0)
    if len(blob) != need:
        raise DataError(f"{path}: expected {need} bytes, got {len(blob)}")
    if n == 0:
        raise DataError(f"{path}: no rows")
    if d == 0:
        raise DataError(f"{path}: no feature columns")
    values = np.frombuffer(blob, dtype="<f8", count=n * d, offset=header)
    values = values.reshape(n, d).astype(np.float64)
    labels = None
    if has_labels:
        labels = np.frombuffer(blob, dtype="<u4", count=n, offset=header + 8 * n * d)
        labels = labels.astype(np.int64)
    return values, range(n), labels


def _check_format(format: str):
    if format not in FORMATS:
        options = " or ".join(map(repr, FORMATS))
        raise ParameterError(f"unknown format '{format}' (use {options})")


def _load(path, format: str):
    """``(features, labels or None)`` from a file in either format."""
    _check_format(format)
    values, ids, labels = (_load_csv if format == "csv" else _load_binary)(path)
    try:
        return FeatureMatrix(values, ids), labels
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_features(path, format: str = "csv") -> FeatureMatrix:
    """Load a feature file, validating shape, finiteness and id uniqueness."""
    return _load(path, format)[0]


def load_labeled(path, format: str = "csv") -> LabeledSet:
    """Load a feature file that carries a label column.

    Arbitrary integer labels are remapped to 0..L-1 by sorted value.
    """
    features, labels = _load(path, format)
    if labels is None:
        raise DataError(f"{path}: no label column")
    _, remapped = np.unique(labels, return_inverse=True)
    return LabeledSet(features, remapped)


def save_features(path, features: FeatureMatrix, format: str = "csv",
                  labels: np.ndarray | None = None) -> None:
    """Write a feature file; values round-trip exactly through either format."""
    _check_format(format)
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (features.n_rows,):
            raise ParameterError("labels length does not match rows")
        if (labels < 0).any():
            raise ParameterError("binary/CSV labels must be non-negative")
    if format == "csv":
        dim = features.dim
        cols = ["id"] + [f"f{j}" for j in range(dim)] + (["label"] if labels is not None else [])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(cols) + "\n")
            for i in range(features.n_rows):
                parts = [features.ids[i]]
                parts += [repr(float(v)) for v in features.values[i]]
                if labels is not None:
                    parts.append(str(int(labels[i])))
                fh.write(",".join(parts) + "\n")
    else:
        flags = 1 if labels is not None else 0
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sBIIB", _BINARY_MAGIC, _BINARY_VERSION,
                                 features.n_rows, features.dim, flags))
            fh.write(features.values.astype("<f8").tobytes())
            if labels is not None:
                fh.write(labels.astype("<u4").tobytes())


def split_probes(labeled: LabeledSet, n_probe: int | None, anchor_ratio: float = 0.8,
                 seed: int = 0) -> ProbeSplit:
    """Hold out ``n_probe`` whole classes as probes, split anchor:validation.

    ``n_probe=None`` makes every class a probe and leaves no training
    classes.  The anchor set gets round(anchor_ratio * n_probe) classes,
    clamped so both anchor and validation keep at least one class.
    Deterministic given the seed.
    """
    n_classes = labeled.n_classes
    if n_probe is None:
        if n_classes < 2:
            raise ParameterError(f"a probe split needs at least 2 classes, got {n_classes}")
        n_probe = n_classes
    elif n_probe < 2 or n_probe >= n_classes:
        raise ParameterError(
            f"n_probe must satisfy 2 <= n_probe < {n_classes}, got {n_probe}"
        )
    if not 0.0 < anchor_ratio < 1.0:
        raise ParameterError(f"anchor_ratio must be in (0, 1), got {anchor_ratio}")
    rng = rng_for(seed, "split-probes")
    drawn = rng.choice(n_classes, size=n_probe, replace=False)
    n_anchor = int(math.floor(anchor_ratio * n_probe + 0.5))
    n_anchor = min(max(n_anchor, 1), n_probe - 1)
    anchor = frozenset(int(c) for c in drawn[:n_anchor])
    validation = frozenset(int(c) for c in drawn[n_anchor:])
    training = frozenset(range(n_classes)) - anchor - validation
    return ProbeSplit(anchor, validation, training)


def _place_means(n_means, dim, separation, rng):
    # Scale so typical pairwise distances land near 1.6x the requested
    # floor; the floor itself is enforced by rejection.  Many classes in
    # a low dimension can exhaust the packing room and fail.
    scale = 1.6 * separation / math.sqrt(2.0 * dim)
    means = np.empty((n_means, dim))
    budget = 500 * n_means
    placed = 0
    while placed < n_means:
        if budget == 0:
            raise ParameterError(
                "could not place class means at the requested separation; "
                "increase dim or reduce separation"
            )
        budget -= 1
        candidate = scale * rng.standard_normal(dim)
        if placed > 0:
            gaps = np.linalg.norm(means[:placed] - candidate, axis=1)
            if gaps.min() < separation:
                continue
        means[placed] = candidate
        placed += 1
    return means


def synth_mixture(n_labeled_classes: int, n_unlabeled_classes: int, per_class: int,
                  dim: int, separation: float, seed: int = 0):
    """Sample a labelled set and an unlabelled set of Gaussian clusters.

    Each class is an isotropic unit-variance Gaussian; class means are
    drawn so all pairwise mean distances are at least ``separation``
    (in within-class standard deviations), with labelled and unlabelled
    means disjoint.  Returns ``(labeled, unlabeled, truth)`` where
    ``truth`` holds the ground-truth class of each unlabelled row.
    """
    for name, value in (("n_labeled_classes", n_labeled_classes),
                        ("n_unlabeled_classes", n_unlabeled_classes),
                        ("per_class", per_class), ("dim", dim)):
        if int(value) < 1:
            raise ParameterError(f"{name} must be at least 1, got {value}")
    if separation <= 0:
        raise ParameterError(f"separation must be positive, got {separation}")
    rng = rng_for(seed, "synth-mixture")
    n_total = n_labeled_classes + n_unlabeled_classes
    means = _place_means(n_total, dim, separation, rng)

    def sample_block(class_means, prefix):
        blocks, labels = [], []
        for c, mean in enumerate(class_means):
            blocks.append(mean + rng.standard_normal((per_class, dim)))
            labels.append(np.full(per_class, c, dtype=np.int64))
        values = np.vstack(blocks)
        ids = tuple(f"{prefix}{i}" for i in range(values.shape[0]))
        return FeatureMatrix(values, ids), np.concatenate(labels)

    labeled_features, labeled_labels = sample_block(means[:n_labeled_classes], "l")
    unlabeled, truth = sample_block(means[n_labeled_classes:], "u")
    return LabeledSet(labeled_features, labeled_labels), unlabeled, truth
