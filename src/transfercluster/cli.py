"""Command-line pipeline: synthesize, pretrain, cluster, estimate, evaluate.

Every command writes one manifest next to its outputs; ``rerun`` checks
that the manifest's input files are unchanged, replays it and reproduces
the outputs byte for byte.  Exit codes: 0 on success, 1 for usage errors,
2 for data or validation errors, 3 for numerical failures.  The
DTC_THREADS environment variable, a positive integer, caps worker
threads for ``estimate-k``, ``cluster --auto-k`` and ``sweep``.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import (
    FORMATS,
    LabeledSet,
    load_features,
    load_labeled,
    parse_digits,
    read_text,
    save_features,
    split_probes,
    synth_mixture,
)
from .encoder import PretrainConfig, forward, load_encoder, pretrain_encoder, save_encoder
from .errors import DataError, NumericalError, ParameterError
from .estimator import default_threads, estimate_class_count, parallel_map, sweep_report_to_csv
from .manifest import file_digest, read_manifest, write_manifest
from .metrics import count_error, evaluate_clustering
from .trainer import VARIANTS, TrainConfig, initialize, train


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_rows(path, header, rows, sep=","):
    """Write ``header`` (None: no header line) and one ``sep``-joined line
    per row; return the text written.

    Values are written with ``str``, which for a Python float is its
    shortest round-trip ``repr``.
    """
    lines = [] if header is None else [header]
    lines += [sep.join(map(str, row)) for row in rows]
    text = "\n".join(lines) + "\n"
    Path(path).write_text(text, encoding="utf-8")
    return text


def _read_id_value_file(path, column):
    """Read an ``id,<column>`` file into a dict from id to integer."""
    header, *lines = read_text(path).split("\n")
    if header != f"id,{column}":
        raise DataError(f"{path}: expected header 'id,{column}', found '{header}'")
    mapping = {}
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DataError(f"{path}: line {lineno}: expected 2 fields")
        if parts[0] in mapping:
            raise DataError(f"{path}: line {lineno}: repeated id '{parts[0]}'")
        value = parse_digits(parts[1].removeprefix("-"))
        if value is None:
            raise DataError(f"{path}: line {lineno}: '{parts[1]}' is not an integer "
                            "in -(2**63 - 1)..2**63 - 1")
        mapping[parts[0]] = -value if parts[1].startswith("-") else value
    if not mapping:
        raise DataError(f"{path}: no rows")
    return mapping


def _manifest(ns, argv, command, inputs, outputs):
    config = {k: v for k, v in vars(ns).items() if k != "out_dir" and not callable(v)}
    path = Path(ns.out_dir) / f"{command}.manifest"
    write_manifest(path, command, argv, config, inputs, outputs, __version__)
    return path


def _out_dir(ns) -> Path:
    out = Path(ns.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_synth(ns, argv):
    labeled, unlabeled, truth = synth_mixture(
        ns.labeled_classes, ns.unlabeled_classes, ns.per_class,
        ns.dim, ns.sep, ns.seed,
    )
    out = _out_dir(ns)
    ext = "csv" if ns.format == "csv" else "dtcf"
    labeled_path = out / f"labeled.{ext}"
    unlabeled_path = out / f"unlabeled.{ext}"
    truth_path = out / "unlabeled_truth.csv"
    save_features(labeled_path, labeled.features, ns.format, labels=labeled.labels)
    save_features(unlabeled_path, unlabeled, ns.format)
    _write_rows(truth_path, "id,label", zip(unlabeled.ids, truth.tolist()))
    _manifest(ns, argv, "synth", {}, {
        "labeled": labeled_path, "unlabeled": unlabeled_path, "truth": truth_path,
    })
    print(f"wrote {labeled_path} ({labeled.features.n_rows} rows), "
          f"{unlabeled_path} ({unlabeled.n_rows} rows)")


def cmd_pretrain(ns, argv):
    labeled = load_labeled(ns.labeled, ns.format)
    config = PretrainConfig(hidden=(ns.hidden,), epochs=ns.epochs,
                            batch_size=ns.batch_size, learning_rate=ns.lr)
    encoder = pretrain_encoder(labeled, config, seed=ns.seed)
    out = _out_dir(ns)
    encoder_path = out / "encoder.dtce"
    save_encoder(encoder_path, encoder)
    _manifest(ns, argv, "pretrain", {"labeled": ns.labeled}, {"encoder": encoder_path})
    print(f"wrote {encoder_path}")


def _check_width(path, features, encoder):
    """Refuse a feature file whose rows are not as wide as the encoder's input."""
    if features.dim != encoder.input_dim:
        raise DataError(f"{path}: rows have {features.dim} features, but the encoder "
                        f"takes {encoder.input_dim}")
    return features


def _estimate(ns, encoder, data, threads):
    """Count estimate for ``data`` with the probe file and split flags in ``ns``."""
    probe = load_labeled(ns.probe, ns.format)
    _check_width(ns.probe, probe.features, encoder)
    split = split_probes(probe, ns.n_probe, ns.anchor_ratio, ns.seed)
    embedded_probe = LabeledSet(forward(encoder, probe.features), probe.labels)
    return estimate_class_count(
        embedded_probe, forward(encoder, data), split,
        ns.k_max, ns.tau, ns.seed, threads=threads,
    )


def _train_config(ns, k, bottleneck):
    return TrainConfig(
        k=k, variant=ns.variant, warmup_epochs=ns.warmup, main_epochs=ns.epochs,
        batch_size=ns.batch_size, learning_rate=ns.lr, ema_momentum=ns.ema_momentum,
        ramp=ns.ramp,
        perturb_sigma=ns.sigma, seed=ns.seed, bottleneck_dim=bottleneck,
    )


def _check_bottleneck(encoder, config):
    """Refuse a bottleneck wider than the encoder's trunk, before any data is read."""
    if config.c > encoder.trunk_output_dim:
        raise ParameterError(f"bottleneck dimension {config.c} exceeds the encoder's "
                             f"trunk width {encoder.trunk_output_dim}")


def _run_cluster(encoder, data, config):
    ready, protos, _ = initialize(encoder, data, config)
    return train(ready, protos, data, config)


def cmd_cluster(ns, argv):
    if ns.auto_k and not ns.probe:
        raise ParameterError("--auto-k needs --probe")
    # The training settings and thread cap are checked before any work;
    # --auto-k sets k once the count estimate is known.
    config = _train_config(ns, 2 if ns.auto_k else ns.k, ns.bottleneck)
    threads = default_threads() if ns.auto_k else 1
    encoder = load_encoder(ns.encoder)
    if not ns.auto_k or ns.bottleneck is not None:   # --auto-k alone sets k later
        _check_bottleneck(encoder, config)
    data = _check_width(ns.data, load_features(ns.data, ns.format), encoder)
    out = _out_dir(ns)
    inputs = {"encoder": ns.encoder, "data": ns.data}
    outputs = {}
    if ns.auto_k:
        report = _estimate(ns, encoder, data, threads)
        sweep_path = out / "auto_k_sweep.csv"
        sweep_path.write_text(sweep_report_to_csv(report), encoding="utf-8")
        print(f"estimated k_final={report.k_final} (k_hat={report.k_hat})")
        outputs["auto_k_sweep"] = sweep_path
        inputs["probe"] = ns.probe
        if report.k_final < 2:
            raise DataError(f"estimated k_final={report.k_final} (k_hat={report.k_hat}); "
                            "clustering needs at least 2 clusters")
        config = replace(config, k=report.k_final)
        if ns.bottleneck is None:   # the estimated k sets the bottleneck
            _check_bottleneck(encoder, config)
    trace = _run_cluster(encoder, data, config)
    for line in trace.warnings:
        print(f"warning: {line}", file=sys.stderr)

    assignments_path = out / "assignments.csv"
    _write_rows(assignments_path, "id,cluster", zip(data.ids, trace.assignments.tolist()))
    trace_path = out / "trace.csv"
    _write_rows(trace_path, "epoch,phase,kl_loss,consistency_loss,omega",
                ((r.epoch, r.phase, r.kl_loss, r.consistency_loss, r.omega)
                 for r in trace.records))
    outputs.update({"assignments": assignments_path, "trace": trace_path})
    if ns.truth:
        report = evaluate_clustering(_read_truth(ns.truth, data.ids), trace.assignments)
        inputs["truth"] = ns.truth
        print(f"acc={report.acc!r} nmi={report.nmi!r}")
    _manifest(ns, argv, "cluster", inputs, outputs)
    print(f"wrote {assignments_path}")


def _read_truth(path, ids):
    """Labels of ``ids``, in order, from an ``id,label`` file that lists exactly them."""
    mapping = _read_id_value_file(path, "label")
    missing = [i for i in ids if i not in mapping]
    id_set = set(ids)
    extra = [i for i in mapping if i not in id_set]
    if missing or extra:
        raise DataError(
            f"{path}: id mismatch; missing={missing[:5]} extra={extra[:5]}"
        )
    return np.array([mapping[i] for i in ids], dtype=np.int64)


def cmd_estimate_k(ns, argv):
    threads = default_threads()
    encoder = load_encoder(ns.encoder)
    data = _check_width(ns.data, load_features(ns.data, ns.format), encoder)
    report = _estimate(ns, encoder, data, threads)
    out = _out_dir(ns)
    sweep_path = out / "sweep.csv"
    sweep_path.write_text(sweep_report_to_csv(report), encoding="utf-8")
    report_path = out / "estimate_report.txt"
    dropped = ";".join(f"{c}:{m}" for c, m in report.dropped_clusters)
    _write_rows(report_path, None, [
        ("k_star_acc", report.k_star_acc), ("k_star_cvi", report.k_star_cvi),
        ("k_hat", report.k_hat), ("k_final", report.k_final),
        ("n_non_anchor", report.n_non_anchor), ("dropped", dropped),
    ], sep="=")
    _manifest(ns, argv, "estimate-k",
              {"encoder": ns.encoder, "probe": ns.probe, "data": ns.data},
              {"sweep": sweep_path, "report": report_path})
    print(f"k_hat={report.k_hat} k_final={report.k_final}")


def cmd_eval(ns, argv):
    assignments = _read_id_value_file(ns.assignments, "cluster")
    ids = sorted(assignments)
    truth_values = _read_truth(ns.truth, ids)
    predicted = np.array([assignments[i] for i in ids], dtype=np.int64)
    report = evaluate_clustering(truth_values, predicted)
    k_err = count_error(len(set(truth_values.tolist())), len(set(predicted.tolist())))
    out = _out_dir(ns)
    pairs = [("acc", report.acc), ("nmi", report.nmi), ("count_error", k_err),
             ("n_points", report.n_points)]
    if ns.format == "csv":
        header, sep, report_path = "metric,value", ",", out / "eval_report.csv"
    else:
        header, sep, report_path = None, "=", out / "eval_report.txt"
    text = _write_rows(report_path, header, pairs, sep)
    _manifest(ns, argv, "eval",
              {"assignments": ns.assignments, "truth": ns.truth},
              {"report": report_path})
    print(text, end="")


def cmd_sweep(ns, argv):
    values = [v for v in (tok.strip() for tok in ns.values.split(",")) if v]
    if not values:
        raise ParameterError("--values must list at least one integer")
    try:
        values = [int(v) for v in values]
    except ValueError as exc:
        raise ParameterError(f"--values must be integers: {exc}") from None
    if ns.sweep == "bottleneck" and ns.k is None:
        raise ParameterError("bottleneck sweep needs --k")
    if not ns.truth:
        raise ParameterError("sweep needs --truth to score each point")
    # Every point's settings and the thread cap are checked before any work.
    if ns.sweep == "bottleneck":
        configs = [_train_config(ns, ns.k, value) for value in values]
    else:
        configs = [_train_config(ns, value, None) for value in values]
    threads = default_threads()
    encoder = load_encoder(ns.encoder)
    for config in configs:
        _check_bottleneck(encoder, config)
    data = _check_width(ns.data, load_features(ns.data, ns.format), encoder)
    truth = _read_truth(ns.truth, data.ids)

    def run_point(config):
        trace = _run_cluster(encoder, data, config)
        report = evaluate_clustering(truth, trace.assignments)
        return report.acc, report.nmi, trace.warnings

    scores = parallel_map(run_point, configs, threads)
    for value, (_, _, warnings) in zip(values, scores):
        for line in warnings:
            print(f"warning: {ns.sweep}={value}: {line}", file=sys.stderr)
    rows = [(value, acc, nmi) for value, (acc, nmi, _) in zip(values, scores)]
    out = _out_dir(ns)
    table_path = out / "sweep_results.csv"
    _write_rows(table_path, "value,acc,nmi", rows)
    _manifest(ns, argv, "sweep",
              {"encoder": ns.encoder, "data": ns.data, "truth": ns.truth},
              {"table": table_path})
    for value, acc, score in rows:
        print(f"{ns.sweep}={value} acc={acc!r} nmi={score!r}")


def cmd_rerun(ns, argv):
    record = read_manifest(ns.manifest)
    if record.get("version") != __version__:
        print(f"warning: manifest written by version {record.get('version')}, "
              f"this is {__version__}", file=sys.stderr)
    if record["argv"][:1] == ["rerun"]:
        raise DataError(f"{ns.manifest}: replays 'rerun', which writes no manifest")
    for name, path in record["inputs"].items():
        if file_digest(path) != record["digests"].get(name):
            raise DataError(f"{ns.manifest}: input '{name}' ({path}) does not match "
                            "the digest recorded when the manifest was written")
    code = main(record["argv"])
    if code == 3:
        raise NumericalError(f"replayed command exited with {code}")
    if code != 0:
        raise DataError(f"{ns.manifest}: replayed command '{record['command']}' "
                        f"exited with {code}")


def _add_common(sub, *, fmt=True):
    sub.add_argument("--out-dir", default=".", help="directory for outputs and the manifest")
    sub.add_argument("--seed", type=int, default=0)
    if fmt:
        sub.add_argument("--format", choices=FORMATS, default="csv",
                         help="feature file format")


def _add_cluster_flags(sub):
    sub.add_argument("--encoder", required=True, help="encoder checkpoint")
    sub.add_argument("--data", required=True, help="unlabelled feature file")
    sub.add_argument("--variant", choices=VARIANTS, default="baseline")
    sub.add_argument("--warmup", type=int, default=10, help="warm-up epochs")
    sub.add_argument("--epochs", type=int, default=90, help="main-loop epochs")
    sub.add_argument("--batch-size", type=int, default=64)
    sub.add_argument("--lr", type=float, default=0.05)
    sub.add_argument("--ema-momentum", type=float, default=0.6)
    sub.add_argument("--sigma", type=float, default=0.1,
                     help="perturbation scale for the pi variant")
    sub.add_argument("--ramp", type=int, default=None,
                     help="consistency ramp length in epochs")
    sub.add_argument("--truth", default=None, help="id,label file for reporting accuracy")


def _add_estimate_flags(sub):
    sub.add_argument("--n-probe", type=int, default=None,
                     help="hold out this many probe classes (default: all)")
    sub.add_argument("--anchor-ratio", type=float, default=0.8)
    sub.add_argument("--k-max", type=int, default=100)
    sub.add_argument("--tau", type=float, default=0.01)


def build_parser() -> _Parser:
    parser = _Parser(prog="transfercluster", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    synth = commands.add_parser("synth", help="generate a synthetic mixture dataset")
    synth.add_argument("--labeled-classes", type=int, required=True)
    synth.add_argument("--unlabeled-classes", type=int, required=True)
    synth.add_argument("--per-class", type=int, required=True)
    synth.add_argument("--dim", type=int, required=True)
    synth.add_argument("--sep", type=float, required=True)
    _add_common(synth)
    synth.set_defaults(func=cmd_synth)

    pretrain = commands.add_parser("pretrain", help="pretrain the encoder on labelled data")
    pretrain.add_argument("--labeled", required=True)
    pretrain.add_argument("--hidden", type=int, default=64)
    pretrain.add_argument("--epochs", type=int, default=40)
    pretrain.add_argument("--batch-size", type=int, default=32)
    pretrain.add_argument("--lr", type=float, default=0.1)
    _add_common(pretrain)
    pretrain.set_defaults(func=cmd_pretrain)

    cluster = commands.add_parser("cluster", help="cluster unlabelled data")
    _add_cluster_flags(cluster)
    count = cluster.add_mutually_exclusive_group(required=True)
    count.add_argument("--k", type=int, default=None, help="number of clusters")
    count.add_argument("--auto-k", action="store_true",
                       help="estimate k from probe classes first")
    cluster.add_argument("--probe", default=None, help="labelled probe file for --auto-k")
    _add_estimate_flags(cluster)
    cluster.add_argument("--bottleneck", type=int, default=None,
                         help="bottleneck dimension (default: k)")
    _add_common(cluster)
    cluster.set_defaults(func=cmd_cluster)

    estimate = commands.add_parser("estimate-k", help="estimate the number of categories")
    estimate.add_argument("--encoder", required=True)
    estimate.add_argument("--probe", required=True, help="labelled probe feature file")
    estimate.add_argument("--data", required=True, help="unlabelled feature file")
    _add_estimate_flags(estimate)
    _add_common(estimate)
    estimate.set_defaults(func=cmd_estimate_k)

    evaluate = commands.add_parser("eval", help="score assignments against ground truth")
    evaluate.add_argument("--assignments", required=True, help="id,cluster file")
    evaluate.add_argument("--truth", required=True, help="id,label file")
    evaluate.add_argument("--format", choices=("text", "csv"), default="text",
                          help="report format")
    _add_common(evaluate, fmt=False)
    evaluate.set_defaults(func=cmd_eval)

    sweep = commands.add_parser("sweep", help="rerun clustering across bottleneck sizes or k")
    _add_cluster_flags(sweep)
    sweep.add_argument("--sweep", choices=("bottleneck", "k"), required=True)
    sweep.add_argument("--values", required=True, help="comma-separated integers")
    sweep.add_argument("--k", type=int, default=None,
                       help="cluster count (bottleneck sweep only)")
    _add_common(sweep)
    sweep.set_defaults(func=cmd_sweep)

    rerun = commands.add_parser("rerun", help="replay a command from its manifest")
    rerun.add_argument("manifest")
    rerun.set_defaults(func=cmd_rerun)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # A manifest records one argument per line, so it could not replay this.
    for arg in argv:
        if "\n" in arg or "\r" in arg:
            print(f"error: argument {arg!r} contains a line break", file=sys.stderr)
            return 1
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        ns.func(ns, argv)
        return 0
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
