"""Time the estimate-k inputs' count sweep from two checkouts in alternating fresh processes.

Usage::

    python tools/sweep_pairs.py PARENT_DIR CHANGE_DIR --k-max 100 --seed 1 --runs 3

Each run is one fresh process at one BLAS, OpenMP and ``DTC_THREADS``
thread, with bytecode writing off.  It builds the inputs of the
estimate-k workload in ``perfbench/workloads.py`` of its own checkout
from ``--seed``, raises the workload's ``k_max`` to ``--k-max``, and
times the workload's ``run``: embedding the probe and unlabelled rows
and the count sweep over K = 0..k_max.  ``--runs`` runs go to each side,
and the side that runs first flips from one run to the next, starting
with the parent.

The script prints one line per run (side, seconds, k_hat, k_final and
the workload's output digest), then each side's times and median.  It
exits 1 if a run fails or if any two runs' digests differ, since then
the two sides do not compute the same sweep.  Nothing is written under
either ``perfbench/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")

# Runs in the checkout; argv is checkout, k_max, seed.
CHILD = """
import json, sys, tempfile, time
from pathlib import Path
sys.dont_write_bytecode = True
root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
from tracer import NullTracer
from workloads import EstimateK
workload = EstimateK()
workload.k_max = int(sys.argv[2])
with tempfile.TemporaryDirectory() as work:
    work = Path(work)
    inputs = workload.setup(int(sys.argv[3]), work)
    start = time.perf_counter()
    result = workload.run(inputs, work / "out", NullTracer())
    seconds = time.perf_counter() - start
    outcome = workload.outcome(inputs, result, work / "out")
print(json.dumps({"seconds": seconds, "digest": outcome.digest,
                  "k_hat": outcome.quality["k_hat"], "k_final": outcome.quality["k_final"]}))
"""

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DTC_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--k-max", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=3)
    return parser.parse_args(argv)


def run_once(checkout: Path, k_max: int, seed: int) -> dict:
    """One timed sweep in a fresh process from ``checkout``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **dict.fromkeys(THREAD_VARIABLES, "1"))
    checkout = checkout.resolve()
    proc = subprocess.run([sys.executable, "-c", CHILD, str(checkout), str(k_max), str(seed)],
                          cwd=checkout, env=env, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"{checkout}: run exited {proc.returncode} without a result line:\n"
                           f"{proc.stderr.strip()}") from None


def summarize(runs: list) -> tuple[list, bool]:
    """Each side's times and median as printable lines, and whether every
    run's digest is the same.  ``runs`` holds ``(side, record)`` pairs."""
    lines = []
    for side in SIDES:
        times = [record["seconds"] for s, record in runs if s == side]
        lines.append(f"{side}: " + " ".join(f"{t:.2f}" for t in times)
                     + f" s, median {statistics.median(times):.2f} s")
    return lines, len({record["digest"] for _, record in runs}) == 1


def main(argv) -> int:
    args = _parse(argv)
    sides = {"parent": args.parent, "change": args.change}
    runs = []
    for i in range(args.runs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            try:
                record = run_once(sides[side], args.k_max, args.seed)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            runs.append((side, record))
            print(f"run {i + 1} {side}: {record['seconds']:.2f} s k_hat={record['k_hat']} "
                  f"k_final={record['k_final']} digest={record['digest'][:16]}", flush=True)
    lines, same = summarize(runs)
    print(f"k_max {args.k_max}, seed {args.seed}, {args.runs} runs a side")
    print("\n".join(lines))
    if not same:
        print("error: the sweep digests differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
