"""Run the benchmark in alternating pairs from two checkouts and compare them.

Usage::

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload cluster-wide \\
        --seeds 0,1,2,3,4,5,6,7,8,9 --seconds 20 [--json BENCH.json]

Each listed seed is one pair: ``perfbench/run.py`` runs once from each
checkout with the same workload, seed and ``--seconds``, in a fresh
process, with ``--trace 0``.  The side that runs first flips from one
pair to the next, starting with the parent.  A seed may be listed more
than once.  ``--workload`` may list several workloads, comma-separated;
each one runs all its pairs before the next starts.

The script prints one line per pair with both sides' end-to-end metrics
and failed/attempted counts.  Then, per metric, it prints each side's
median and quartiles, the parent's interquartile range, and how many
pairs the change won; ties count for neither side.  Which direction is
better comes from ``BENCHMARK.json`` in CHANGE_DIR.  With ``--json``,
the same record is also written to PATH as one JSON object: both
sides' commits and environment lines (as ``perfbench/run.py`` prints
them), and per workload every pair and every metric's summary.  The
script imports nothing from either ``perfbench/`` and runs both with
bytecode writing off, so it leaves no file there.  It exits 1 if a run
fails to print its result line.
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
    parser.add_argument("--workload", required=True, help="comma-separated workloads")
    parser.add_argument("--seeds", required=True, help="comma-separated seeds, one pair each")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--json", type=Path, help="also write the record to this file")
    args = parser.parse_args(argv)
    args.workloads = args.workload.split(",")
    try:
        args.seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers, got '{args.seeds}'")
    return args


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from ``checkout``: its last stdout line, parsed, with
    the environment line that run printed under ``"environment"``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    parsed = []
    for line in proc.stdout.strip().splitlines():
        try:
            parsed.append(json.loads(line))
        except ValueError:
            parsed.append(None)
    result = parsed[-1] if parsed else None
    if not isinstance(result, dict) or "metrics" not in result:
        raise RuntimeError(f"{checkout}: run exited {proc.returncode} without a result line:\n"
                           f"{proc.stderr.strip()}")
    result["environment"] = next((p["environment"] for p in parsed
                                  if isinstance(p, dict) and "environment" in p), None)
    return result


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _directions(change: Path) -> dict:
    spec = json.loads((change / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def run_pairs(args, workload: str, directions: dict):
    """Run and print one workload's pairs and summary.

    Returns the workload's record and each side's first environment line.
    """
    sides = {"parent": args.parent, "change": args.change}
    pairs, environment = [], {}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {}
        for side in order:
            result = run_once(sides[side], workload, seed, args.seconds)
            environment.setdefault(side, result["environment"])
            units = {name: result["metrics"][name]["unit"] for name in directions}
            runs[side] = {**{name: result["metrics"][name]["value"] for name in directions},
                          "failed": result["failed"], "attempted": result["attempted"]}
        pairs.append({"seed": seed, "first": order[0], **{side: runs[side] for side in sides}})
        shown = "  ".join(
            f"{side}: " + " ".join(f"{name}={runs[side][name]:.4g}" for name in directions)
            + f" failed={runs[side]['failed']}/{runs[side]['attempted']}"
            for side in sides)
        print(f"pair {i + 1} seed {seed} first={order[0]}  {shown}", flush=True)

    print(f"{workload}: {len(args.seeds)} pairs, --seconds {args.seconds:g}")
    summary = {}
    for name, better in directions.items():
        values = {side: [pair[side][name] for pair in pairs] for side in sides}
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        (p1, pm, p3), (c1, cm, c3) = (_quartiles(values[s]) for s in ("parent", "change"))
        print(f"  {name} ({units[name]}, {better} is better): parent median {pm:.4g} "
              f"[{p1:.4g}, {p3:.4g}], change median {cm:.4g} [{c1:.4g}, {c3:.4g}], "
              f"median change {(cm - pm) / pm:+.1%}, parent IQR {p3 - p1:.4g}, "
              f"change won {wins}/{len(args.seeds)}")
        summary[name] = {"unit": units[name], "better": better,
                         "parent": {"q1": p1, "median": pm, "q3": p3},
                         "change": {"q1": c1, "median": cm, "q3": c3},
                         "change_won": wins}
    for side in sides:
        failed = sum(pair[side]["failed"] for pair in pairs)
        attempted = sum(pair[side]["attempted"] for pair in pairs)
        print(f"  {side} failed {failed}/{attempted} operations")
    return {"pairs": pairs, "metrics": summary}, environment


def main(argv) -> int:
    args = _parse(argv)
    directions = _directions(args.change)
    records = {}
    for workload in args.workloads:
        try:
            records[workload], environment = run_pairs(args, workload, directions)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if args.json is not None:
        record = {
            "commits": {side: (env or {}).get("git_commit") for side, env in environment.items()},
            "environment": environment,
            "seconds": args.seconds,
            "seeds": args.seeds,
            "workloads": records,
        }
        args.json.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
