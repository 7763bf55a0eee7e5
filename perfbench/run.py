"""Benchmark of the transfercluster pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload train-pi --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout, never from an
installed copy.  One run builds the workload's inputs from ``--seed``
several times (``setup_s`` is the median), then repeats the timed
pipeline on those inputs for ``--seconds`` seconds, and at least three
times, and reports medians.
Each repetition is one attempted operation; it fails if it raises, if
its assignments have the wrong length or range, or if its output digest
differs from the first repetition's.  With ``--trace 1`` one more
repetition runs with timing wrappers installed and the per-layer
metrics are reported instead of the end-to-end ones.

BLAS, OpenMP and package worker threads are all pinned to 1.  The last
line of standard output is one JSON object; the lines before it give
the environment and every metric with its unit.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
               "DTC_THREADS")

# Repetitions run even past --seconds, so the median can drop one outlier.
MIN_REPETITIONS = 3
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Outcome values reported as per-layer metrics.  acc, nmi and count_error
# are deterministic for a seed but spread widely across seeds.
OUTCOME_METRICS = [
    ("acc", "acc", "fraction"),
    ("nmi", "nmi", "fraction"),
    ("count_error", "count_error", "count"),
    ("estimator.candidates", "candidates", "count"),
    ("estimator.anchor_unlabeled_frac", "anchor_unlabeled_frac", "fraction"),
]
# Estimator picks, printed with every result but not metrics.
ESTIMATOR_PICKS = ("k_star_acc", "k_star_cvi", "k_hat", "k_final")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_package():
    """Import transfercluster from this checkout's src/, or return None."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import transfercluster
    except ImportError as exc:
        print(f"error: cannot import transfercluster from {src}: {exc}", file=sys.stderr)
        return None
    if Path(transfercluster.__file__).resolve().parent.parent != src.resolve():
        print(f"error: transfercluster imported from {transfercluster.__file__}, "
              f"not from {src}", file=sys.stderr)
        return None
    return transfercluster


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": _git_commit(),
    }


class _Runner:
    """Repeats one workload's pipeline on fixed inputs and checks each result."""

    def __init__(self, workload, inputs, workdir):
        self.workload = workload
        self.inputs = inputs
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.walls = []
        self.first = None
        self.problems = []

    def attempt(self, tracer):
        self.attempted += 1
        outdir = self.workdir / f"rep{self.attempted}"
        start = time.perf_counter()
        try:
            result = self.workload.run(self.inputs, outdir, tracer)
            wall = time.perf_counter() - start
            outcome = self.workload.outcome(self.inputs, result, outdir)
        except Exception as exc:  # a failed operation is counted, not fatal
            self._fail(f"{type(exc).__name__}: {exc}")
            return None
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        problems = self.workload.check(self.inputs, outcome)
        if self.first is None:
            self.first = outcome
        elif outcome.digest != self.first.digest:
            problems.append("output digest differs from the first repetition")
        if problems:
            self._fail("; ".join(problems))
            return None
        self.walls.append(wall)
        return wall

    def _fail(self, message):
        self.failed += 1
        self.problems.append(f"repetition {self.attempted}: {message}")


def _end_to_end(setup_times, walls):
    values = {
        "wall_s": statistics.median(walls) if walls else float("nan"),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _per_layer(tracer, quality, traced_wall, untraced_walls):
    layer = tracing.layer_metrics(tracer)
    units = dict(tracing.COMPUTED_COUNTS)
    metrics = {name: {"value": value,
                      "unit": units.get(name, "count" if name.endswith("_calls") else "s")}
               for name, value in layer.items()}
    row_epochs = tracer.counts.get("trainer.row_epochs", 0)
    metrics["train_row_epochs_per_s"] = {
        "value": row_epochs / layer["trainer.train_s"] if row_epochs else 0.0, "unit": "1/s"}
    candidates = quality.get("candidates", 0)
    metrics["candidates_per_s"] = {
        "value": candidates / layer["estimator.s"] if candidates else 0.0, "unit": "1/s"}
    for metric, key, unit in OUTCOME_METRICS:
        metrics[metric] = {"value": quality.get(key, 0), "unit": unit}
    overhead = (traced_wall - statistics.median(untraced_walls)
                if traced_wall is not None and untraced_walls else float("nan"))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    transfercluster = _import_package()
    if transfercluster is None:
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload '{args.workload}'; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(workload.setup_repeats):
            start = time.perf_counter()
            inputs = workload.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - start)

        runner = _Runner(workload, inputs, workdir)
        null = tracing.NullTracer()
        start = time.perf_counter()
        while runner.attempted < MIN_REPETITIONS or time.perf_counter() - start < args.seconds:
            runner.attempt(null)
        untraced = list(runner.walls)

        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(tracing.targets(transfercluster))
            try:
                traced_wall = runner.attempt(tracer)
            finally:
                tracer.restore()
            tracer.dump(str(ROOT / ".perfbench_out"
                            / f"spans-{workload.name}-seed{args.seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()   # only when no other run is using it

    if runner.first is not None:
        workload.score(inputs, runner.first)
    quality = runner.first.quality if runner.first is not None else {}
    correct = runner.failed == 0 and bool(untraced)

    if args.trace:
        metrics = _per_layer(tracer, quality, traced_wall, untraced)
        correct = correct and traced_wall is not None
    else:
        metrics = _end_to_end(setup_times, untraced)

    print(json.dumps({"environment": _environment()}))
    print(f"workload {workload.name} seed {args.seed}: {runner.attempted} repetitions, "
          f"{runner.failed} failed; setups {[round(t, 4) for t in setup_times]}, "
          f"untraced walls {[round(w, 4) for w in untraced]}")
    shown = ("acc", "nmi", "count_error") + ESTIMATOR_PICKS
    print("outcome: " + " ".join(f"{k}={quality[k]!r}" for k in shown if k in quality))
    for problem in runner.problems:
        print(f"  FAILED {problem}")
    if args.trace:
        for name, error in tracer.hook_errors.items():
            print(f"  work count of {name} missing: {error}")
    computed = dict(tracing.COMPUTED_COUNTS) if args.trace else {}
    for name, entry in metrics.items():
        tag = "  (computed)" if name in computed else ""
        print(f"  {name:34s} {entry['value']!r:>24} {entry['unit']}{tag}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
