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

The script prints one line per pair with both sides' end-to-end metrics,
failed/attempted counts and minor page faults (the ``ru_minflt`` of the
child process, from ``resource.getrusage``).  Then, per metric, it
prints each side's median and quartiles, the parent's interquartile
range, and how many pairs the change won; ties count for neither side.
It also prints the median and quartiles of the per-pair ratio
change/parent, and that ratio's interquartile range: two runs of one
pair share a seed, so this spread leaves out the seed-to-seed variation
of the workload that the sides' own quartiles include.  The ratios raise
no flag.
Each metric's direction and ``bound`` come from ``BENCHMARK.json`` in
CHANGE_DIR, and two flags are raised against the bound: "worse beyond
bound" when the change's median is worse than the parent's by more than
bound x the parent's median, and "unresolved" when the parent's
interquartile range exceeds bound x its median, so the runs spread too
widely to tell.  Last come each side's median minor page faults; they
are not an end-to-end metric and raise no flag.  With ``--json``, the
same record is also written to PATH as one JSON object: both sides'
commits and environment lines (as ``perfbench/run.py`` prints them), and
per workload every pair, every metric's summary and each side's median
minor page faults.  The script imports nothing from either
``perfbench/`` and runs both with bytecode writing off, so it leaves no
file there.  It exits 1 if a run fails to print its result line.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


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
    the environment line that run printed under ``"environment"`` and the
    run's minor page faults under ``"minor_faults"``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
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
    result["minor_faults"] = faults
    return result


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _end_to_end(change: Path) -> dict:
    """Each end-to-end metric's ``BENCHMARK.json`` entry, by name."""
    spec = json.loads((change / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def summarize(pairs: list, metrics: dict) -> dict:
    """Per metric: each side's quartiles, the quartiles of the per-pair
    ratio change/parent and their interquartile range, the pairs the
    change won and the two bound flags.  ``pairs`` holds one ``{"parent": {...}, "change": {...}}``
    value record per pair; ``metrics`` is :func:`_end_to_end`'s mapping."""
    summary = {}
    for name, spec in metrics.items():
        values = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        sign = 1 if spec["better"] == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        (p1, pm, p3), (c1, cm, c3) = (_quartiles(values[s]) for s in SIDES)
        r1, rm, r3 = _quartiles([c / p for p, c in zip(values["parent"], values["change"])])
        allowed = spec["bound"] * abs(pm)
        summary[name] = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                         "parent": {"q1": p1, "median": pm, "q3": p3},
                         "change": {"q1": c1, "median": cm, "q3": c3},
                         "ratio": {"q1": r1, "median": rm, "q3": r3},
                         "ratio_iqr": r3 - r1,
                         "change_won": wins,
                         "worse_beyond_bound": sign * (cm - pm) > allowed,
                         "unresolved": p3 - p1 > allowed}
    return summary


def fault_medians(pairs: list) -> dict:
    """Each side's median minor page faults over ``pairs``."""
    return {side: statistics.median(pair[side]["minor_faults"] for pair in pairs)
            for side in SIDES}


def _flags(entry: dict) -> str:
    flags = [text for key, text in (("worse_beyond_bound", "worse beyond bound"),
                                    ("unresolved", "unresolved")) if entry[key]]
    return "; " + ", ".join(flags) if flags else ""


def run_pairs(args, workload: str, metrics: dict):
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
            runs[side] = {**{name: result["metrics"][name]["value"] for name in metrics},
                          "failed": result["failed"], "attempted": result["attempted"],
                          "minor_faults": result["minor_faults"]}
        pairs.append({"seed": seed, "first": order[0], **{side: runs[side] for side in SIDES}})
        shown = "  ".join(
            f"{side}: " + " ".join(f"{name}={runs[side][name]:.4g}" for name in metrics)
            + f" failed={runs[side]['failed']}/{runs[side]['attempted']}"
            + f" faults={runs[side]['minor_faults']}"
            for side in SIDES)
        print(f"pair {i + 1} seed {seed} first={order[0]}  {shown}", flush=True)

    print(f"{workload}: {len(args.seeds)} pairs, --seconds {args.seconds:g}")
    summary = summarize(pairs, metrics)
    for name, entry in summary.items():
        (p1, pm, p3), (c1, cm, c3) = (
            (entry[s]["q1"], entry[s]["median"], entry[s]["q3"]) for s in SIDES)
        print(f"  {name} ({entry['unit']}, {entry['better']} is better, bound "
              f"{entry['bound']:.0%}): parent median {pm:.4g} [{p1:.4g}, {p3:.4g}], "
              f"change median {cm:.4g} [{c1:.4g}, {c3:.4g}], "
              f"median change {(cm - pm) / pm:+.1%}, parent IQR {p3 - p1:.4g}, "
              f"pair ratio median {entry['ratio']['median']:.4f} "
              f"[{entry['ratio']['q1']:.4f}, {entry['ratio']['q3']:.4f}], "
              f"ratio IQR {entry['ratio_iqr']:.4f}, "
              f"change won {entry['change_won']}/{len(args.seeds)}{_flags(entry)}")
    for side in SIDES:
        failed = sum(pair[side]["failed"] for pair in pairs)
        attempted = sum(pair[side]["attempted"] for pair in pairs)
        print(f"  {side} failed {failed}/{attempted} operations")
    faults = fault_medians(pairs)
    print(f"  minor page faults (not an end-to-end metric): parent median "
          f"{faults['parent']:.0f}, change median {faults['change']:.0f}")
    return {"pairs": pairs, "metrics": summary, "minor_faults": faults}, environment


def main(argv) -> int:
    args = _parse(argv)
    metrics = _end_to_end(args.change)
    records = {}
    for workload in args.workloads:
        try:
            records[workload], environment = run_pairs(args, workload, metrics)
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
