"""Estimating how many categories the unlabelled data contains.

Labelled probe classes are mixed into the unlabelled data and anchored
k-means is run for every candidate count K in 0..k_max, using
``n_probe_classes + K`` clusters with the anchor classes pinned.  Each
run is scored twice: clustering accuracy on the validation probe rows,
and the Silhouette index on the unlabelled rows.  The two argmax
candidates are averaged (rounding half up), the clustering at that
count is taken from the sweep, and non-anchor clusters holding less
than ``tau`` times the largest unlabelled mass are discarded.  The
surviving cluster count is the estimate.

The sweep runs in two phases.  First every candidate's anchored k-means
and probe accuracy run, serially or on a thread pool.  Then one shared
distance pass over the unlabelled rows scores the Silhouette of every
candidate at once, since only the cluster memberships differ between
candidates.

Accuracy on a crisp probe set can plateau at its maximum across many
candidates; plateau ties resolve toward the candidate closest to the
Silhouette optimum (then toward the smaller count), so an uninformative
probe score defers to the unlabelled-data evidence instead of dragging
the average toward zero.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dataset import LabeledSet, ProbeSplit, as_values, parse_digits
from .errors import ParameterError
from .kmeans import constrained_kmeans
from .metrics import clustering_accuracy, silhouettes
from .seeding import derive_seed

UNDEFINED_CVI = -1.0   # Silhouette sentinel when unlabelled rows span < 2 clusters


@dataclass
class SweepPoint:
    k_candidate: int
    probe_acc: float
    cvi: float
    inertia: float


@dataclass
class EstimationReport:
    sweep: list[SweepPoint]
    k_star_acc: int
    k_star_cvi: int
    k_hat: int
    k_final: int
    dropped_clusters: list[tuple[int, int]]
    n_non_anchor: int
    final_assignment: np.ndarray = field(repr=False, default=None)


def default_threads() -> int:
    """Worker cap from the DTC_THREADS environment variable: 1 when unset
    or empty, otherwise a positive integer, else a ParameterError."""
    value = os.environ.get("DTC_THREADS", "")
    if not value:
        return 1
    threads = parse_digits(value)
    if not threads:
        raise ParameterError(f"DTC_THREADS must be a positive integer, got {value!r}")
    return threads


def parallel_map(fn, items, workers: int) -> list:
    """``[fn(item) for item in items]``, on ``workers`` threads when above 1."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def estimate_class_count(probe: LabeledSet, unlabeled, split: ProbeSplit,
                         k_max: int, tau: float = 0.01, seed: int = 0,
                         threads: int = 1) -> EstimationReport:
    """Sweep candidate counts and return the pruned final estimate.

    Parameters
    ----------
    probe:
        Labelled rows covering at least the split's anchor and
        validation classes; rows of other classes are ignored.  Features
        must already be embeddings (apply the encoder first).
    unlabeled:
        Embedded unlabelled rows.
    split:
        Which probe classes are anchors and which are validation.
    k_max:
        Largest candidate count; the sweep covers 0..k_max inclusive.
    tau:
        Pruning threshold, as a fraction of the largest non-anchor
        cluster's unlabelled mass.
    """
    if k_max < 0:
        raise ParameterError(f"k_max must be non-negative, got {k_max}")
    if not 0.0 < tau < 1.0:
        raise ParameterError(f"tau must be in (0, 1), got {tau}")
    x_unlabeled = as_values(unlabeled)

    anchor_classes = sorted(split.anchor_classes)
    probe_rows = np.flatnonzero(np.isin(probe.labels, sorted(split.probe_classes)))
    probe_y = probe.labels[probe_rows]
    is_anchor = np.isin(probe_y, anchor_classes)
    val_rows = np.flatnonzero(~is_anchor)
    if val_rows.size == 0:
        raise ParameterError("validation probe set is empty")
    for c in anchor_classes:
        if not (probe_y == c).any():
            raise ParameterError(f"anchor class {c} has no probe rows")

    probe_x = probe.features.values[probe_rows]
    if probe_x.shape[1] != x_unlabeled.shape[1]:
        raise ParameterError(
            f"probe dim {probe_x.shape[1]} does not match unlabelled dim {x_unlabeled.shape[1]}"
        )
    stacked = np.vstack([probe_x, x_unlabeled])
    n_probe = probe_x.shape[0]
    n_probe_classes = len(split.probe_classes)

    # Anchor rows keep their class's cluster, numbered in sorted class order.
    pinned = np.full(stacked.shape[0], -1)
    pinned[:n_probe][is_anchor] = np.searchsorted(anchor_classes, probe_y[is_anchor])
    val_labels = probe_y[val_rows]
    unlabeled_slice = slice(n_probe, n_probe + x_unlabeled.shape[0])

    def run(k):
        result = constrained_kmeans(stacked, n_probe_classes + k, pinned,
                                    seed=derive_seed(seed, "sweep", k))
        acc, _ = clustering_accuracy(val_labels, result.assignment[val_rows])
        return acc, result

    candidates = range(k_max + 1)
    outcomes = parallel_map(run, candidates, threads)

    unl_assigns = [result.assignment[unlabeled_slice] for _, result in outcomes]
    scored = [k for k in candidates if np.unique(unl_assigns[k]).size >= 2]
    cvis = [UNDEFINED_CVI] * len(outcomes)
    for k, cvi in zip(scored, silhouettes(stacked[unlabeled_slice],
                                          [unl_assigns[k] for k in scored])):
        cvis[k] = cvi
    sweep = [SweepPoint(k, acc, cvis[k], result.inertia)
             for k, (acc, result) in enumerate(outcomes)]

    accs = np.array([pt.probe_acc for pt in sweep])
    k_star_cvi = int(np.argmax(cvis))
    best_acc = accs.max()
    tied = np.nonzero(accs == best_acc)[0]
    k_star_acc = int(tied[np.argmin(np.abs(tied - k_star_cvi))])
    k_hat = (k_star_acc + k_star_cvi + 1) // 2

    _, final = outcomes[k_hat]
    n_anchor_clusters = len(anchor_classes)
    total_clusters = n_probe_classes + k_hat
    masses = np.bincount(unl_assigns[k_hat], minlength=total_clusters)
    non_anchor = np.arange(n_anchor_clusters, total_clusters)
    largest = masses[non_anchor].max()
    dropped = [(int(c), int(masses[c])) for c in non_anchor
               if masses[c] < tau * largest]
    k_final = int(non_anchor.size - len(dropped))
    return EstimationReport(
        sweep=sweep,
        k_star_acc=k_star_acc,
        k_star_cvi=k_star_cvi,
        k_hat=k_hat,
        k_final=k_final,
        dropped_clusters=dropped,
        n_non_anchor=int(non_anchor.size),
        final_assignment=final.assignment,
    )


def sweep_report_to_csv(report: EstimationReport) -> str:
    """Render the sweep as CSV: one line per candidate, header included."""
    lines = ["K,probe_acc,cvi,inertia"]
    for pt in report.sweep:
        lines.append(f"{pt.k_candidate},{pt.probe_acc!r},{pt.cvi!r},{pt.inertia!r}")
    return "\n".join(lines) + "\n"
