"""Run the benchmark in alternating pairs from two checkouts and compare them.

Usage::

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload cluster-wide \\
        --seeds 0,1,2,3,4,5,6,7,8,9 --seconds 20

Each listed seed is one pair: ``perfbench/run.py`` runs once from each
checkout with the same workload, seed and ``--seconds``, in a fresh
process, with ``--trace 0``.  The side that runs first flips from one
pair to the next, starting with the parent.  A seed may be listed more
than once.

The script prints one line per pair with both sides' end-to-end metrics
and failed/attempted counts.  Then, per metric, it prints each side's
median and quartiles, the parent's interquartile range, and how many
pairs the change won; ties count for neither side.  Which direction is
better comes from ``BENCHMARK.json`` in CHANGE_DIR.  The script imports
nothing from either ``perfbench/`` and runs both with bytecode writing
off, so it leaves no file there.  It exits 1 if a run fails to print
its result line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated seeds, one pair each")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    try:
        args.seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers, got '{args.seeds}'")
    return args


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from ``checkout``: its last stdout line, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        raise RuntimeError(f"{checkout}: run exited {proc.returncode} without a result line:\n"
                           f"{proc.stderr.strip()}")
    return result


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _directions(change: Path) -> dict:
    spec = json.loads((change / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def main(argv) -> int:
    args = _parse(argv)
    directions = _directions(args.change)
    sides = {"parent": args.parent, "change": args.change}
    results = {"parent": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            try:
                pair[side] = run_once(sides[side], args.workload, seed, args.seconds)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            results[side].append(pair[side])
        shown = "  ".join(
            f"{side}: " + " ".join(f"{name}={pair[side]['metrics'][name]['value']:.4g}"
                                   for name in directions)
            + f" failed={pair[side]['failed']}/{pair[side]['attempted']}"
            for side in ("parent", "change"))
        print(f"pair {i + 1} seed {seed} first={order[0]}  {shown}", flush=True)

    print(f"{args.workload}: {len(args.seeds)} pairs, --seconds {args.seconds:g}")
    for name, better in directions.items():
        values = {side: [r["metrics"][name]["value"] for r in results[side]] for side in sides}
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        (p1, pm, p3), (c1, cm, c3) = (_quartiles(values[s]) for s in ("parent", "change"))
        unit = results["parent"][0]["metrics"][name]["unit"]
        print(f"  {name} ({unit}, {better} is better): parent median {pm:.4g} "
              f"[{p1:.4g}, {p3:.4g}], change median {cm:.4g} [{c1:.4g}, {c3:.4g}], "
              f"median change {(cm - pm) / pm:+.1%}, parent IQR {p3 - p1:.4g}, "
              f"change won {wins}/{len(args.seeds)}")
    for side in ("parent", "change"):
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        print(f"  {side} failed {failed}/{attempted} operations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
