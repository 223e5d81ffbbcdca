#!/usr/bin/env python3
"""Solve rate of the tree search as a function of rollout budget.

For each task, runs the uniform-policy search over a grid of budgets and a
handful of seeds per instance, printing solve-rate curves.  Useful for
picking per-task default budgets.

Usage:
    python scripts/budget_sweep.py --task sudoku3 --budgets 2 5 10 20
"""

import argparse
import time

from asgdec import (
    Reward,
    SearchConfig,
    SearchTree,
    TerminalTokenizer,
    UniformPolicy,
    build_map,
)
from asgdec.decoding import COMPLETED
from asgdec.mcts import search
from asgdec.tasks import TASKS, checker_for, generate_instances, rho_for


def solve_rate(task, budget, count, seeds, gen_seed):
    solved = total = 0
    rollouts = 0.0
    for inst in generate_instances(task, count, seed=gen_seed):
        grammar = inst.grammar()
        tokenizer = TerminalTokenizer(grammar.terminals)
        token_map = build_map(grammar.terminals, tokenizer)
        reward = Reward(rho=rho_for(inst))
        check = checker_for(inst)
        for seed in range(seeds):
            tree = SearchTree(grammar, token_map, ())
            cfg = SearchConfig(
                budget=budget,
                max_tokens=TASKS[task].max_tokens,
                seed=seed,
            )
            policy = UniformPolicy(token_map.vocab_size)
            result, stats = search(tree, policy, reward, cfg)
            ok = (
                result is not None
                and result.outcome == COMPLETED
                and check(result.terminals)
            )
            solved += ok
            total += 1
            rollouts += stats.rollouts
    return solved, total, rollouts / max(total, 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--task", required=True)
    ap.add_argument("--budgets", type=int, nargs="+", default=[5, 10, 25, 50])
    ap.add_argument("--count", type=int, default=5)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--gen-seed", type=int, default=0)
    args = ap.parse_args()

    print(f"task={args.task}  instances={args.count}  seeds={args.seeds}")
    for budget in args.budgets:
        t0 = time.time()
        solved, total, mean_rollouts = solve_rate(
            args.task, budget, args.count, args.seeds, args.gen_seed
        )
        print(
            f"  budget={budget:4d}  solved={solved}/{total}"
            f"  mean_rollouts={mean_rollouts:.1f}"
            f"  t={time.time() - t0:.1f}s"
        )


if __name__ == "__main__":
    main()
