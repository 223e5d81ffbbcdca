#!/usr/bin/env python3
"""Write the BENCH file of a speed claim: alternating parent/change runs of
``perfbench/run.py``, each in its own process.

The parent tree is ``git archive <rev>`` of this repository; the change
tree is a copy of this checkout's tracked and untracked, not ignored,
files.  Both go under ``--scratch``, so no run writes into the checkout.
Every workload of ``BENCHMARK.json`` runs for its ``run_seconds`` in each
of 10 pairs.  Pair k runs the parent first when k is even and the change
first when it is odd, and the workloads interleave within a pair.  The
seed is required: a claim is measured at a seed not used while writing
the change.  With ``--trace-seed`` each tree also makes one traced run per
workload at that seed.  The file
holds every pair, and per metric the median and quartiles of each side,
the number of pairs in which the change is better, and whether the gap
between the medians exceeds the parent's interquartile range.  Each run
also records ``cpu_s``, its user plus system CPU seconds, summarised in
the same way: unlike wall-clock rates, it does not count time in which
the host ran other work.

Usage:
    python scripts/bench_pair.py --parent HEAD --topic one_function_evaluation \\
        --seed SEED --trace-seed 3141 --scratch /tmp/bench
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
CPU = {"name": "cpu_s", "better": "lower"}  # summarised beside the end-to-end metrics


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def make_trees(rev, scratch):
    """(parent tree, change tree) under ``scratch``, made afresh."""
    parent, change = os.path.join(scratch, "parent"), os.path.join(scratch, "change")
    for tree in (parent, change):
        shutil.rmtree(tree, ignore_errors=True)
        os.makedirs(tree)
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", parent], stdin=archive.stdout, check=True)
    if archive.wait():
        raise SystemExit(f"error: git archive {rev} failed")
    files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode()
    for name in filter(None, files.split("\0")):
        if os.path.isfile(os.path.join(ROOT, name)):
            os.makedirs(os.path.dirname(os.path.join(change, name)), exist_ok=True)
            shutil.copy2(os.path.join(ROOT, name), os.path.join(change, name))
    return parent, change


def run(tree, workload, seed, seconds, trace):
    """The metrics of one run, with its correct/failed/attempted counts,
    its CPU seconds and, untraced, each task's tokens/s."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    row = {name: m["value"] for name, m in result["metrics"].items()}
    row.update(correct=result["correct"], failed=result["failed"], attempted=result["attempted"])
    row["cpu_s"] = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    if not trace:
        path = os.path.join(tree, "perfbench", "results", f"{workload}-seed{seed}-trace0.json")
        with open(path, encoding="utf-8") as fh:
            per_task = json.load(fh)["per_task"]
        row["per_task_tokens_per_s"] = {t: r["tokens_per_s"] for t, r in per_task.items()}
    return row


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summary(pairs, metrics):
    """Per end-to-end metric: each side's median and quartiles, the pairs
    in which the change is better, and whether the medians differ by more
    than the parent's interquartile range, in the better direction."""
    out = {}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        sides = {side: [p[side][name] for p in pairs] for side in ("parent", "change")}
        stats = {side: quartiles(values) for side, values in sides.items()}
        gap = sign * (stats["change"]["median"] - stats["parent"]["median"])
        out[name] = {
            "better": m["better"], **stats,
            "pairs_change_better": sum(sign * (c - p) > 0 for p, c in zip(*sides.values())),
            "pairs": len(pairs),
            "gap_exceeds_parent_iqr": gap > stats["parent"]["q3"] - stats["parent"]["q1"],
        }
    return out


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="the parent revision")
    ap.add_argument("--topic", required=True, help="the file is BENCH_<topic>.json")
    ap.add_argument("--seed", type=int, required=True, help="the seed of the timed runs")
    ap.add_argument("--trace-seed", type=int, help="also one traced run per tree and workload")
    ap.add_argument("--scratch", required=True, help="a directory for the two trees")
    ap.add_argument("--claim", default="", help="the claimed gain, recorded in the file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    trees = dict(zip(("parent", "change"), make_trees(args.parent, args.scratch)))
    pairs = {w: [] for w in workloads}
    for k in range(PAIRS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for w in workloads:
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run(trees[side], w, args.seed, seconds, 0)
            pairs[w].append(pair)
            speeds = ", ".join(f"{side} {pair[side]['tokens_per_s']:.0f}" for side in ("parent", "change"))
            print(f"pair {k + 1}/{PAIRS} {w}: {speeds} tokens/s", flush=True)
    report = {
        "topic": args.topic,
        "claim": args.claim,
        "harness": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {seconds:g} --trace 0",
        "method": "scripts/bench_pair.py: alternating parent/change runs (even pairs parent "
                  "first, the workloads interleaved within a pair), each in its own process; "
                  "the parent from git archive of its commit, the change from a copy of the checkout",
        "parent_commit": git("rev-parse", args.parent).decode().strip(),
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "workloads": {},
    }
    for w in workloads:
        report["workloads"][w] = {"pairs": pairs[w], "summary": summary(pairs[w], metrics + [CPU])}
        if args.trace_seed is not None:
            report["workloads"][w]["trace"] = {
                "harness": f"python3 perfbench/run.py --workload {w} --seed {args.trace_seed} "
                           f"--seconds {seconds:g} --trace 1",
                **{side: run(tree, w, args.trace_seed, seconds, 1) for side, tree in trees.items()},
            }
    path = os.path.join(ROOT, f"BENCH_{args.topic}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
