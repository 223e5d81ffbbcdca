#!/usr/bin/env python3
"""Desk-scale benchmark sweep.

Runs every task under the three decode algorithms at each constraint level
and prints one summary row per configuration.  Results are appended as
jsonl so `asgdec report` can aggregate across invocations.

Usage:
    python scripts/run_benchmarks.py --count 10 --out results/bench.jsonl
"""

import argparse
import os
import sys

from asgdec.cli import run_batch
from asgdec.tasks import TASK_IDS, TASKS, MetricsReport

SWEEP = [
    ("base", "none"),
    ("base", "cfg"),
    ("base", "sem"),
    ("bon", "sem"),
    ("mcts", "sem"),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tasks", nargs="*", default=list(TASK_IDS))
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    records = []
    for task in args.tasks:
        spec = TASKS[task]
        for algo, constraint in SWEEP:
            if spec.rho is None and algo != "base":
                continue  # no task reward to search or rerank against
            cfg = {
                "task": task,
                "algo": algo,
                "constraint": constraint,
                "policy": "uniform",
                "budget": spec.budget,
                "seed": args.seed,
                "count": args.count,
                "max_tokens": spec.max_tokens,
                "endpoint": "",
                "model": "",
            }
            batch = run_batch(cfg)
            records.extend(batch)
            row = MetricsReport.of(batch).row()
            print(f"{task:12s} {algo:5s} {constraint:5s} " + row)
            sys.stdout.flush()

    if args.out:
        import json

        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as fh:
            for r in records:
                fh.write(json.dumps(r, sort_keys=True) + "\n")
        print(f"wrote {len(records)} records to {args.out}")


if __name__ == "__main__":
    main()
