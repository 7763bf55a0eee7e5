"""The three benchmark workloads: inputs, timed pipeline, output checks.

Each workload has these parts:

* ``setup(seed, workdir)`` builds the inputs from the workload seed
  (timed on its own, reported as ``setup_s``);
* ``run(inputs, outdir, tracer)`` is the timed pipeline, from inputs to
  assignments or estimate; ``tracer`` opens spans around the
  benchmark's own calls into the package;
* ``outcome(inputs, result, outdir)`` turns what ``run`` returned into
  an :class:`Outcome`, untimed, and ``check(inputs, outcome)`` lists
  what is wrong with it;
* ``score(inputs, outcome)`` adds quality against the truth, untimed.

The package sees only the generated inputs: every package-side seed is
the fixed ``PIPELINE_SEED``, and the workload seed only feeds
``synth_mixture``.
"""

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import transfercluster as tc
from transfercluster import cli

PIPELINE_SEED = 0


@dataclass
class Outcome:
    assignments: np.ndarray     # cluster per scored row
    n_clusters: int             # valid assignment range is 0..n_clusters-1
    digest: str                 # reproducibility fingerprint of the outputs
    quality: dict = field(default_factory=dict)   # acc, nmi and workload extras


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _quality(truth, assignments, k_found=None) -> dict:
    """Accuracy, NMI and the error in the number of categories found.

    ``k_found`` defaults to the number of distinct clusters assigned.
    """
    acc, _ = tc.clustering_accuracy(truth, assignments)
    if k_found is None:
        k_found = np.unique(assignments).size
    return {"acc": acc, "nmi": tc.nmi(truth, assignments),
            "count_error": tc.count_error(np.unique(truth).size, k_found)}


def _check_range(outcome: Outcome, n_rows: int) -> list[str]:
    a = outcome.assignments
    if a.shape != (n_rows,):
        return [f"assignments have shape {a.shape}, expected ({n_rows},)"]
    if a.size and (a.min() < 0 or a.max() >= outcome.n_clusters):
        return [f"assignments outside 0..{outcome.n_clusters - 1}"]
    return []


class TrainPi:
    """pretrain -> initialize -> train (pi), small batches: call-bound."""

    name = "train-pi"
    setup_repeats = 25
    epochs = (10, 90)

    def setup(self, seed, workdir):
        labeled, unlabeled, truth = tc.synth_mixture(10, 10, 200, dim=64, separation=6.0,
                                                     seed=seed)
        return {"labeled": labeled, "unlabeled": unlabeled, "truth": truth}

    def run(self, inputs, outdir, tracer):
        with tracer.span("pretrain_encoder"):
            encoder = tc.pretrain_encoder(inputs["labeled"], seed=PIPELINE_SEED)
        warmup, main = self.epochs
        config = tc.TrainConfig(k=10, variant="pi", warmup_epochs=warmup, main_epochs=main,
                                batch_size=64, seed=PIPELINE_SEED)
        ready, protos, _ = tc.initialize(encoder, inputs["unlabeled"], config)
        return tc.train(ready, protos, inputs["unlabeled"], config)

    def outcome(self, inputs, trace, outdir):
        return Outcome(trace.assignments, trace.prototypes.n_clusters,
                       _digest(trace.assignments, trace.prototypes.centers))

    def score(self, inputs, outcome):
        outcome.quality.update(_quality(inputs["truth"], outcome.assignments))

    def check(self, inputs, outcome):
        return _check_range(outcome, inputs["unlabeled"].n_rows)


class EstimateK:
    """Embed probe + unlabelled rows, then the anchored k-means count sweep."""

    name = "estimate-k"
    setup_repeats = 5
    k_max = 20
    n_novel = 10

    def setup(self, seed, workdir):
        labeled, unlabeled, truth = tc.synth_mixture(10, self.n_novel, 100, 64, 6.0,
                                                     seed=seed)
        encoder = tc.pretrain_encoder(labeled, seed=PIPELINE_SEED)
        return {"labeled": labeled, "unlabeled": unlabeled, "truth": truth,
                "encoder": encoder}

    def run(self, inputs, outdir, tracer):
        encoder, labeled = inputs["encoder"], inputs["labeled"]
        probe = tc.LabeledSet(tc.forward(encoder, labeled.features), labeled.labels)
        unlabeled = tc.forward(encoder, inputs["unlabeled"])
        split = tc.split_probes(labeled, n_probe=4, anchor_ratio=0.8, seed=PIPELINE_SEED)
        with tracer.span("estimate_class_count"):
            report = tc.estimate_class_count(probe, unlabeled, split, k_max=self.k_max,
                                             tau=0.01, seed=PIPELINE_SEED, threads=1)
        return report, split

    def outcome(self, inputs, result, outdir):
        report, split = result
        final = report.final_assignment
        n_anchor = len(split.anchor_classes)
        unl = final[final.size - inputs["unlabeled"].n_rows:]
        sweep = np.array([[p.probe_acc, p.cvi, p.inertia] for p in report.sweep])
        return Outcome(
            unl, len(split.probe_classes) + report.k_hat, _digest(final, sweep),
            {"k_star_acc": report.k_star_acc, "k_star_cvi": report.k_star_cvi,
             "k_hat": report.k_hat, "k_final": report.k_final,
             "candidates": len(report.sweep),
             "anchor_unlabeled_frac": float(np.mean(unl < n_anchor))},
        )

    def score(self, inputs, outcome):
        outcome.quality.update(_quality(inputs["truth"], outcome.assignments,
                                        outcome.quality["k_final"]))

    def check(self, inputs, outcome):
        problems = _check_range(outcome, inputs["unlabeled"].n_rows)
        if outcome.quality["candidates"] != self.k_max + 1:
            problems.append(f"sweep has {outcome.quality['candidates']} candidates, "
                            f"expected {self.k_max + 1}")
        return problems


class ClusterWide:
    """The CLI ``cluster`` command on files: large batches, memory-bound passes."""

    name = "cluster-wide"
    setup_repeats = 3
    k = 40
    epochs = (2, 18)

    def setup(self, seed, workdir):
        labeled, unlabeled, truth = tc.synth_mixture(20, self.k, 250, 64, 8.0, seed=seed)
        encoder = tc.pretrain_encoder(labeled, seed=PIPELINE_SEED)
        data_path = workdir / "unlabeled.csv"
        truth_path = workdir / "unlabeled_truth.csv"
        encoder_path = workdir / "encoder.dtce"
        tc.save_features(data_path, unlabeled)
        truth_path.write_text(
            "id,label\n" + "".join(f"{i},{t}\n" for i, t in zip(unlabeled.ids, truth.tolist())),
            encoding="utf-8",
        )
        tc.save_encoder(encoder_path, encoder)
        return {"ids": unlabeled.ids, "truth": truth, "data": data_path,
                "truth_path": truth_path, "encoder": encoder_path}

    def run(self, inputs, outdir, tracer):
        warmup, main = self.epochs
        argv = ["cluster", "--encoder", str(inputs["encoder"]), "--data", str(inputs["data"]),
                "--k", str(self.k), "--variant", "tep", "--warmup", str(warmup),
                "--epochs", str(main), "--batch-size", "256",
                "--truth", str(inputs["truth_path"]),
                "--seed", str(PIPELINE_SEED), "--out-dir", str(outdir)]
        printed = io.StringIO()
        with tracer.span("cli.main"), contextlib.redirect_stdout(printed):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cli cluster exited with code {code}")

    def outcome(self, inputs, result, outdir):
        raw = (Path(outdir) / "assignments.csv").read_bytes()
        rows = [line.split(",") for line in raw.decode("utf-8").splitlines()[1:]]
        if [r[0] for r in rows] != list(inputs["ids"]):
            raise RuntimeError("assignments.csv ids do not match the data ids")
        assignments = np.array([int(r[1]) for r in rows], dtype=np.int64)
        return Outcome(assignments, self.k, hashlib.sha256(raw).hexdigest())

    def score(self, inputs, outcome):
        outcome.quality.update(_quality(inputs["truth"], outcome.assignments))

    def check(self, inputs, outcome):
        return _check_range(outcome, len(inputs["ids"]))


WORKLOADS = {w.name: w for w in (TrainPi(), EstimateK(), ClusterWide())}
