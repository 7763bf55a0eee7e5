"""Print SHA-256 listings of a fixed CLI sequence and of the benchmark outputs.

Usage::

    python tools/parity.py WORK_DIR SEEDS > listing.txt

WORK_DIR must be empty or absent; SEEDS is a comma-separated list of
integers.  The package comes from the ``src/`` directory next to this
script.  Diffing the listings of two checkouts shows whether they behave
the same.

First, every step of a fixed CLI sequence runs in-process in WORK_DIR,
and the script prints ``<sha256>  <path>`` for each file left there,
then ``<sha256>  <step>/stdout exit=<code>`` for each step.  The
sequence covers synth in CSV and binary, pretrain, ``cluster`` with all
four variants (one on binary data), ``--ramp``, ``--auto-k``,
``estimate-k`` with and without ``--n-probe``, both sweeps (one with
``DTC_THREADS=2``), ``eval`` in both formats and ``rerun`` of five
manifests.  Then each workload in ``perfbench/workloads.py`` runs once
per seed with no tracer, in a temporary directory, and the script prints
``<workload> <seed> <digest>`` from its ``Outcome.digest``.  Nothing is
written under ``perfbench/``.

Thread counts (BLAS, OpenMP, ``DTC_THREADS``) come from the caller's
environment, so running one checkout at 1 and at 2 threads and diffing
the two listings shows whether any output depends on them.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True   # leave no __pycache__ under perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from tracer import NullTracer  # noqa: E402
from transfercluster import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TRAIN = ["--encoder", "enc/encoder.dtce", "--warmup", "2", "--epochs", "4", "--seed", "2"]
TRUTH = ["--truth", "data/unlabeled_truth.csv"]
DATA = ["--data", "data/unlabeled.csv"]
ESTIMATE = ["--encoder", "enc/encoder.dtce", "--probe", "data/labeled.csv", *DATA,
            "--k-max", "6", "--seed", "3"]
SYNTH = ["synth", "--labeled-classes", "5", "--unlabeled-classes", "3",
         "--per-class", "30", "--dim", "10", "--sep", "6", "--seed", "1"]

# (step name, argv, extra environment)
STEPS = [
    ("synth-csv", [*SYNTH, "--out-dir", "data"], {}),
    ("synth-binary", [*SYNTH, "--format", "binary", "--out-dir", "data-bin"], {}),
    ("pretrain", ["pretrain", "--labeled", "data/labeled.csv", "--hidden", "24",
                  "--epochs", "6", "--seed", "1", "--out-dir", "enc"], {}),
    *[(f"cluster-{v}", ["cluster", *TRAIN, *DATA, *TRUTH, "--k", "3", "--variant", v,
                        "--out-dir", f"cluster-{v}"], {})
      for v in ("baseline", "pi", "te", "tep")],
    ("cluster-binary-pi", ["cluster", *TRAIN, "--data", "data-bin/unlabeled.dtcf",
                           "--format", "binary", "--k", "3", "--variant", "pi",
                           "--out-dir", "cluster-binary"], {}),
    ("cluster-ramp", ["cluster", *TRAIN, *DATA, "--k", "3", "--variant", "te",
                      "--ramp", "3", "--out-dir", "cluster-ramp"], {}),
    ("cluster-ramp-zero", ["cluster", *TRAIN, *DATA, "--k", "3", "--variant", "te",
                           "--ramp", "0", "--out-dir", "cluster-ramp-zero"], {}),
    ("cluster-auto-k", ["cluster", *TRAIN, *DATA, *TRUTH, "--auto-k",
                        "--probe", "data/labeled.csv", "--n-probe", "4", "--k-max", "5",
                        "--out-dir", "cluster-auto-k"], {}),
    ("estimate-k-n-probe", ["estimate-k", *ESTIMATE, "--n-probe", "4",
                            "--out-dir", "estimate-n-probe"], {}),
    ("estimate-k-all", ["estimate-k", *ESTIMATE, "--out-dir", "estimate-all"], {}),
    ("sweep-k", ["sweep", *TRAIN, *DATA, *TRUTH, "--sweep", "k", "--values", "2,3,4",
                 "--variant", "pi", "--out-dir", "sweep-k"], {"DTC_THREADS": "2"}),
    ("sweep-bottleneck", ["sweep", *TRAIN, *DATA, *TRUTH, "--sweep", "bottleneck",
                          "--k", "3", "--values", "2,4", "--variant", "tep",
                          "--out-dir", "sweep-bottleneck"], {}),
    ("sweep-ramp-zero", ["sweep", *TRAIN, *DATA, *TRUTH, "--sweep", "k", "--values", "3",
                         "--ramp", "0", "--out-dir", "sweep-ramp-zero"], {}),
    ("eval-text", ["eval", "--assignments", "cluster-baseline/assignments.csv", *TRUTH,
                   "--out-dir", "eval-text"], {}),
    ("eval-csv", ["eval", "--assignments", "cluster-te/assignments.csv", *TRUTH,
                  "--format", "csv", "--out-dir", "eval-csv"], {}),
    *[(f"rerun-{name}", ["rerun", manifest], {})
      for name, manifest in (("pretrain", "enc/pretrain.manifest"),
                             ("cluster-pi", "cluster-pi/cluster.manifest"),
                             ("auto-k", "cluster-auto-k/cluster.manifest"),
                             ("estimate-k", "estimate-all/estimate-k.manifest"),
                             ("sweep-k", "sweep-k/sweep.manifest"))],
]


def run_step(argv, env):
    """Exit code and stdout of one CLI call, with ``env`` set only for it."""
    saved = os.environ.copy()
    os.environ.update(env)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return code, out.getvalue()


def cli_listing(work: Path) -> None:
    os.chdir(work)
    stdout_lines = []
    for name, argv, env in STEPS:
        code, text = run_step(argv, env)
        digest = hashlib.sha256(text.encode()).hexdigest()
        stdout_lines.append(f"{digest}  {name}/stdout exit={code}")
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")
    print("\n".join(stdout_lines), flush=True)


def bench_digest(workload, seed: int) -> str:
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        inputs = workload.setup(seed, work)
        result = workload.run(inputs, work / "out", NullTracer())
        return workload.outcome(inputs, result, work / "out").digest


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    work = Path(argv[0]).resolve()
    try:
        seeds = [int(s) for s in argv[1].split(",")]
    except ValueError:
        print(f"error: SEEDS must be comma-separated integers, got '{argv[1]}'",
              file=sys.stderr)
        return 2
    work.mkdir(parents=True, exist_ok=True)
    if any(work.iterdir()):
        print(f"error: {work} is not empty", file=sys.stderr)
        return 2
    cli_listing(work)
    for name, workload in WORKLOADS.items():
        for seed in seeds:
            print(f"{name} {seed} {bench_digest(workload, seed)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
