"""Run a fixed CLI sequence and print a SHA-256 line for everything it writes.

Usage::

    python tools/cli_parity.py WORK_DIR > digests.txt

WORK_DIR must be empty or absent.  The script imports the package from
the ``src/`` directory next to it, runs every step in-process with paths
relative to WORK_DIR, and prints ``<sha256>  <path>`` for each file left
in WORK_DIR, followed by ``<sha256>  <step>/stdout exit=<code>`` for each
step's standard output.  Running it from two checkouts and diffing the
two listings shows whether they behave the same.

The sequence covers synth in CSV and binary, pretrain, ``cluster`` with
all four variants (one of them on binary data), ``--ramp``, ``--auto-k``,
``estimate-k`` with and without ``--n-probe``, both sweeps (one with
``DTC_THREADS=2``), ``eval`` in both formats and ``rerun`` of five
manifests.  Every run is small, so the whole sequence takes seconds.
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from transfercluster.cli import main  # noqa: E402

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
    os.environ.update(env)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        for key in env:
            del os.environ[key]
    return code, out.getvalue()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_parity(work_dir) -> int:
    work = Path(work_dir)
    work.mkdir(parents=True, exist_ok=True)
    if any(work.iterdir()):
        print(f"error: {work} is not empty", file=sys.stderr)
        return 2
    os.chdir(work)
    stdout_lines = []
    for name, argv, env in STEPS:
        code, text = run_step(argv, env)
        stdout_lines.append(f"{sha256(text.encode())}  {name}/stdout exit={code}")
    for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
        print(f"{sha256(path.read_bytes())}  {path.as_posix()}")
    print("\n".join(stdout_lines))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(run_parity(sys.argv[1]))
