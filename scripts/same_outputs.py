#!/usr/bin/env python3
"""Check that two source trees give the same outputs on the benchmark's
operations and parse the task grammars the same way.

Runs one pass of every operation of the four perfbench workloads against
this checkout's ``src/`` and against another tree's, each in its own
process and both with this checkout's ``perfbench/``.  Per operation it
compares the token ids (verdicts for ``verify_words``), the outcome,
whether the operation failed and as which kept fault, and the search work
(``Outcome.search``: rollouts, simulations and the largest branching;
empty outside ``mcts_search``), so a refactor of the search must show the
same work, not only the same tokens.  The ``grammars`` check parses every
task's instances at the seed, plus the packaged ``.asg`` files, and
compares the printed grammar, the start symbol, the terminals, and every
production id, fragment name and rule id.  The ``records`` check runs
``cli.run_batch`` on every task x algo x level that ``asgdec run``
accepts (bon and mcts only where the task has a distance; count 2, budget
8, uniform policy, one worker) and compares the records, less their
``t_constraint_ms``.  The ``distances`` check folds every task distance,
over the same instances as ``grammars``, on the reference word, edited
copies of it and seeded random words over the instance's terminals, and
compares ``repr(rho(prefix))`` for every prefix.  Prints one line per
check and seed, and exits 1 on any difference.

Usage:
    python scripts/same_outputs.py --other ../parent/src --seeds 5 7 11
    python scripts/same_outputs.py --other ../parent/src --workloads mcts_search
    python scripts/same_outputs.py --other ../parent/src --workloads grammars \
        --seeds 0 1 2 3 4 5 6 7 8 9
    python scripts/same_outputs.py --other ../parent/src --workloads records distances
"""

import argparse
import json
import os
import subprocess
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = (
    "sample_sem", "json_subword", "mcts_search", "verify_words", "grammars", "records",
    "distances",
)
RANDOM_WORDS = 40  # edited reference words, and as many random ones, per instance
GRAMMAR_INSTANCES = 6  # per task and seed
LEVELS = ("none", "cfg", "csg", "sem")


def grammar_rows(seed):
    """One row per grammar, in the shape of an operation's row, with the
    parse in place of the token ids."""
    import asgdec
    from asgdec.grammar import format_grammar, load_grammar
    from asgdec.tasks import TASK_IDS, generate_instances

    grammars = [
        (inst.instance_id, inst.grammar())
        for task in TASK_IDS
        for inst in generate_instances(task, GRAMMAR_INSTANCES, seed=seed)
    ]
    packaged = os.path.join(os.path.dirname(asgdec.__file__), "grammars")
    for name in sorted(os.listdir(packaged)):
        grammars.append((name, load_grammar(os.path.join(packaged, name))))
    rows = []
    for label, g in grammars:
        fragments = [(p.prod_id, p.annotation) for p in g.productions]
        parse = [
            format_grammar(g), g.start, sorted(g.terminals),
            [[k, f.name, [r.rule_id for r in f.rules]]
             for k, f in fragments + [("background", g.background)]],
        ]
        rows.append([label, parse, "grammar", True, None, []])
    return rows


def record_rows(seed):
    """One row per ``run_batch`` record, the record without its time in
    place of the token ids."""
    from asgdec.cli import ALGOS, run_batch
    from asgdec.tasks import TASKS

    rows = []
    for task, spec in TASKS.items():
        for algo in ALGOS if spec.rho else ALGOS[:1]:
            for level in LEVELS:
                cfg = {
                    "task": task, "algo": algo, "constraint": level,
                    "policy": "uniform", "budget": 8, "seed": seed, "count": 2,
                    "max_tokens": spec.max_tokens, "endpoint": None, "model": "stub",
                }
                for k, record in enumerate(run_batch(cfg, workers=1)):
                    record.pop("t_constraint_ms")
                    rows.append([f"{task} {algo} {level} #{k}", record, "record", True, None, []])
    return rows


def distance_rows(seed):
    """One row per word, its distance after every prefix in place of the
    token ids."""
    import random

    from asgdec.tasks import TASKS, generate_instances, reference_solution, rho_for

    rng = random.Random(seed)
    rows = []
    for task, spec in TASKS.items():
        if spec.rho is None:
            continue
        for inst in generate_instances(task, GRAMMAR_INSTANCES, seed=seed):
            rho, solved = rho_for(inst), reference_solution(inst)
            terminals = sorted(inst.grammar().terminals)
            words = [solved]
            for _ in range(RANDOM_WORDS):
                word = list(solved)  # the reference with a few terminals changed
                for _ in range(rng.randrange(1, 4)):
                    word.insert(rng.randrange(len(word) + 1), rng.choice(terminals))
                    del word[rng.randrange(len(word))]
                words.append(tuple(word))
                length = rng.randrange(len(solved) + 4)
                words.append(tuple(rng.choice(terminals) for _ in range(length)))
            for k, word in enumerate(words):
                values = [repr(rho(word[:n])) for n in range(len(word) + 1)]
                rows.append([f"{inst.instance_id} #{k}", values, "distance", True, None, []])
    return rows


# the checks, whose rows are not operations
CHECKS = {"grammars": grammar_rows, "records": record_rows, "distances": distance_rows}


def dump(src, workload, seed):
    """Print one JSON row per operation of ``workload`` run on ``src``."""
    sys.path[:0] = [src, os.path.join(ROOT, "perfbench")]
    import asgdec

    if not os.path.abspath(asgdec.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: asgdec imported from {asgdec.__file__}, not {src}")
    if workload in CHECKS:
        json.dump(CHECKS[workload](seed), sys.stdout)
        return
    from workloads import WORKLOADS as SETUPS

    rows = []
    for op in SETUPS[workload](seed).ops:
        out = op.run()
        rows.append([op.label, repr(out.ids), out.kind, out.ok, out.known, list(out.search)])
    json.dump(rows, sys.stdout)


def outputs(src, workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--dump", src,
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True,
    )
    if proc.returncode:
        raise SystemExit(f"error: {workload} seed {seed} on {src}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def kept_faults(rows):
    return Counter(known for _, _, _, ok, known, _ in rows if not ok and known)


def compare(mine, theirs):
    """Labels of the operations whose outputs differ."""
    if [r[0] for r in mine] != [r[0] for r in theirs]:
        return ["<operation lists differ>"]
    return [a[0] for a, b in zip(mine, theirs) if a != b]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--other", help="the other tree's src directory")
    ap.add_argument("--seeds", type=int, nargs="+", default=[5, 7, 11])
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    ap.add_argument("--dump", metavar="SRC", help=argparse.SUPPRESS)
    ap.add_argument("--workload", choices=WORKLOADS, help=argparse.SUPPRESS)
    ap.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.dump:
        dump(os.path.abspath(args.dump), args.workload, args.seed)
        return 0
    if not args.other:
        ap.error("--other is required")
    here = os.path.join(ROOT, "src")
    other = os.path.abspath(args.other)
    differ = False
    for seed in args.seeds:
        for workload in args.workloads:
            mine = outputs(here, workload, seed)
            theirs = outputs(other, workload, seed)
            diff = compare(mine, theirs)
            faults, other_faults = kept_faults(mine), kept_faults(theirs)
            same = not diff and faults == other_faults
            differ = differ or not same
            print(
                f"seed {seed} {workload}: {len(mine)} "
                f"{workload if workload in CHECKS else 'operations'}, "
                f"{'same' if same else 'DIFFERENT'}; kept faults {dict(faults)}"
                + ("" if faults == other_faults else f" vs {dict(other_faults)}")
                + (f"; first differences: {diff[:5]}" if diff else "")
            )
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
