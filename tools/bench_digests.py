"""Print the benchmark workloads' output digests for a list of seeds.

Usage::

    python tools/bench_digests.py 0,1,2,3,4 > digests.txt

For each workload in ``perfbench/workloads.py`` and each seed, the script
builds the workload's inputs, runs its pipeline once with no tracer and
prints ``<workload> <seed> <digest>``, where the digest is the
workload's ``Outcome.digest``.  Both the workloads and the package are
imported from the checkout that holds this script, with BLAS, OpenMP
and package worker threads pinned to 1 as ``perfbench/run.py`` pins
them.  Running it from two checkouts and diffing the two listings shows
whether a change keeps every benchmark output byte-identical.
"""

import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True   # leave no __pycache__ under perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from run import THREAD_VARS  # noqa: E402

for _var in THREAD_VARS:
    os.environ[_var] = "1"

from tracer import NullTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def digest(workload, seed: int) -> str:
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        inputs = workload.setup(seed, work)
        result = workload.run(inputs, work / "out", NullTracer())
        return workload.outcome(inputs, result, work / "out").digest


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        seeds = [int(s) for s in argv[0].split(",")]
    except ValueError:
        print(f"error: SEEDS must be comma-separated integers, got '{argv[0]}'",
              file=sys.stderr)
        return 2
    for name, workload in WORKLOADS.items():
        for seed in seeds:
            print(f"{name} {seed} {digest(workload, seed)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
