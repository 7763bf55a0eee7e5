"""Run the benchmark in alternating pairs, a parent commit against this tree, and compare them.

Usage::

    python tools/bench_pairs.py PARENT_REV --workload cluster-wide \\
        --seeds 0,1,2,3,4,5,6,7,8,9 --seconds 20 [--json BENCH.json]
    python tools/bench_pairs.py PARENT_REV --workload estimate-k --k-max 100 --seeds 1,1

The change side is the working tree that holds this script.  The parent
side is the commit that PARENT_REV names, exported with ``git archive``
into a temporary directory that is removed at the end.  Each listed seed
is one pair, and a seed may be listed twice: one run from each side, each
in a fresh process with bytecode writing off and BLAS, OpenMP and
``DTC_THREADS`` at one thread.  The side that runs first flips from pair
to pair, starting with the parent.  Comma-separated workloads run one
after another.  A run is ``perfbench/run.py --seconds SECONDS --trace
0``.  With ``--k-max N`` (``--workload estimate-k`` only) a run is one
timed ``run`` of that side's estimate-k workload at ``k_max`` N, the
count sweep over K = 0..N; its result line has ``perfbench/run.py``'s
shape with ``wall_s`` alone, plus the workload's output digest.

The script prints one line per pair with both sides' end-to-end metrics,
failed/attempted counts, the child's minor page faults (``ru_minflt``)
and any digest.  Then, per metric: each side's median and quartiles, the
parent's interquartile range, the pairs the change won (ties count for
neither), and the quartiles and IQR of the per-pair ratio change/parent,
which leave out the seed-to-seed spread that a pair's two runs share.
Each metric's direction and ``bound`` come from this tree's
``BENCHMARK.json``.  "worse beyond bound" flags a change median worse
than the parent's by more than bound x the parent median; "unresolved"
flags a parent IQR above bound x its median, too wide to tell.  Last
come each side's median minor page faults, which raise no flag.
``--json`` writes the same record to PATH, with each side's environment
line from ``perfbench/run.py`` (none with ``--k-max``) and ``commits``:
the parent's resolved commit, the change's ``git rev-parse HEAD``, and
``dirty``, true when ``git status --porcelain`` lists anything.  Nothing
is imported from or written under either ``perfbench/``.  The script
exits 1 if PARENT_REV names no commit, if a run prints no result line,
or, once the times are printed, if two runs of one seed print different
digests: then the sides do not compute the same thing.
"""

import argparse
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DTC_THREADS")

# One timed estimate-k run at a raised k_max in the checkout it runs in;
# argv is k_max, seed.
SWEEP_CHILD = """
import json, sys, tempfile, time
from pathlib import Path
sys.path[:0] = [str(Path("src").resolve()), str(Path("perfbench").resolve())]
from tracer import NullTracer
from workloads import EstimateK
workload = EstimateK()
workload.k_max = int(sys.argv[1])
with tempfile.TemporaryDirectory() as work:
    work = Path(work)
    inputs = workload.setup(int(sys.argv[2]), work)
    start = time.perf_counter()
    result = workload.run(inputs, work / "out", NullTracer())
    wall = time.perf_counter() - start
    outcome = workload.outcome(inputs, result, work / "out")
failed = int(bool(workload.check(inputs, outcome)))
print(json.dumps({"correct": not failed, "attempted": 1, "failed": failed,
                  "metrics": {"wall_s": {"value": wall, "unit": "s"}},
                  "digest": outcome.digest}))
"""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision of the parent commit")
    parser.add_argument("--workload", required=True, help="comma-separated workloads")
    parser.add_argument("--seeds", required=True, help="comma-separated seeds, one pair each")
    parser.add_argument("--seconds", type=float, help="each perfbench run's --seconds")
    parser.add_argument("--k-max", type=int,
                        help="time one estimate-k sweep over K = 0..K_MAX per run instead")
    parser.add_argument("--json", type=Path, help="also write the record to this file")
    args = parser.parse_args(argv)
    args.workloads = args.workload.split(",")
    try:
        args.seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers, got '{args.seeds}'")
    if (args.k_max is None) == (args.seconds is None) or (
            args.k_max is not None and args.workloads != ["estimate-k"]):
        parser.error("--seconds, or else --k-max with --workload estimate-k alone, is required")
    return args


def _git(*argv) -> str:
    """One git command's stripped stdout in this tree; raises if git fails."""
    return subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def _export(commit: str, dest: Path):
    """Unpack ``commit``'s files into ``dest`` with ``git archive``."""
    tar = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True,
                         check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_once(checkout: Path, workload: str, seed: int, seconds, k_max) -> dict:
    """One run from ``checkout``: its last stdout line, parsed, with the
    environment line that run printed under ``"environment"`` and the run's
    minor page faults under ``"minor_faults"``."""
    if k_max is None:
        argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    else:
        argv = [sys.executable, "-c", SWEEP_CHILD, str(k_max), str(seed)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **dict.fromkeys(THREAD_VARIABLES, "1"))
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


def _end_to_end(checkout: Path) -> dict:
    """Each end-to-end metric's ``BENCHMARK.json`` entry, by name."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
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


def digests_agree(pairs: list) -> bool:
    """Whether all runs of one seed printed the same output digest, or none."""
    digests = {(pair["seed"], pair[side].get("digest")) for pair in pairs for side in SIDES}
    return len(digests) == len({pair["seed"] for pair in pairs})


def _flags(entry: dict) -> str:
    flags = [text for key, text in (("worse_beyond_bound", "worse beyond bound"),
                                    ("unresolved", "unresolved")) if entry[key]]
    return "; " + ", ".join(flags) if flags else ""


def run_pairs(args, checkouts: dict, workload: str, metrics: dict):
    """Run and print one workload's pairs and summary.

    Returns the workload's record and each side's first environment line.
    """
    pairs, environment = [], {}
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        runs = {}
        for side in order:
            result = run_once(checkouts[side], workload, seed, args.seconds, args.k_max)
            environment.setdefault(side, result["environment"])
            runs[side] = {name: result["metrics"][name]["value"] for name in metrics}
            runs[side].update({key: result[key] for key in ("failed", "attempted",
                                                            "minor_faults", "digest")
                               if key in result})
        pairs.append({"seed": seed, "first": order[0], **{side: runs[side] for side in SIDES}})
        shown = "  ".join(
            f"{side}: " + " ".join(f"{name}={runs[side][name]:.4g}" for name in metrics)
            + f" failed={runs[side]['failed']}/{runs[side]['attempted']}"
            + f" faults={runs[side]['minor_faults']}"
            + (f" digest={runs[side]['digest'][:16]}" if "digest" in runs[side] else "")
            for side in SIDES)
        print(f"pair {i + 1} seed {seed} first={order[0]}  {shown}", flush=True)

    print(f"{workload}: {len(args.seeds)} pairs, " + (
        f"--seconds {args.seconds:g}" if args.k_max is None else f"--k-max {args.k_max}"))
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
    metrics = _end_to_end(ROOT)
    if args.k_max is not None:
        metrics = {"wall_s": metrics["wall_s"]}
    try:
        parent = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    except subprocess.CalledProcessError as exc:
        print(f"error: '{args.parent}' names no commit: {exc.stderr.strip()}", file=sys.stderr)
        return 1
    commits = {"parent": parent, "change": _git("rev-parse", "HEAD"),
               "dirty": bool(_git("status", "--porcelain"))}
    records, environment = {}, {}
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as export:
        _export(parent, Path(export))
        checkouts = {"parent": Path(export), "change": ROOT}
        for workload in args.workloads:
            try:
                records[workload], environment = run_pairs(args, checkouts, workload, metrics)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
    if not all(digests_agree(record["pairs"]) for record in records.values()):
        print("error: runs of one seed printed different digests", file=sys.stderr)
        return 1
    if args.json is not None:
        record = {"commits": commits, "environment": environment, "seconds": args.seconds,
                  "k_max": args.k_max, "seeds": args.seeds, "workloads": records}
        args.json.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
