"""Command-line front end: grammar checking, completion queries, experiment
batches, and result aggregation.

Exit codes: 0 success / ACCEPT, 1 REJECT or dead end, 2 usage or grammar
errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import align, decoding, earley, mcts, tasks
from .align import EOS_ID, TerminalTokenizer
from .decoding import DEAD_END, DecodeConfig, DecodeResult
from .errors import AsgError, InvalidExtension, UncoverableTerminal
from .grammar import LEVELS, load_grammar, project
from .mcts import Reward, SearchConfig, SearchTree
from .policy import NgramPolicy, RemotePolicy, UniformPolicy

ALGOS = ("base", "bon", "mcts")
POLICIES = ("uniform", "ngram", "remote")


def _load(path):
    """The grammar at ``path``, or None after reporting why it failed."""
    try:
        return load_grammar(path)
    except (OSError, AsgError) as exc:
        print(f"error: {exc}", file=sys.stderr)


def cmd_check(args):
    grammar = _load(args.grammar)
    if grammar is None:
        return 2
    word, bad = align.segment(grammar.terminals, args.word)
    if bad is not None:
        print(f"REJECT: unknown terminal at offset {bad}: {args.word[bad:]!r}")
        return 1
    session = earley.Session()
    session.violation_log = []
    state = earley.init(grammar, session)
    for pos, t in enumerate(word):
        try:
            state = earley.extend(state, t)
        except InvalidExtension:
            reasons = sorted({v for _, v in session.violation_log if v})
            detail = f" (constraints: {', '.join(reasons)})" if reasons else ""
            print(f"REJECT: no parse at terminal {pos} ({t!r}){detail}")
            return 1
    if earley.is_complete(state):
        print("ACCEPT")
        return 0
    reasons = sorted({v for _, v in session.violation_log if v})
    if reasons:
        print(f"REJECT: constraints violated: {', '.join(reasons)}")
    else:
        print(f"REJECT: incomplete word of {len(word)} terminals")
    return 1


def cmd_complete(args):
    grammar = _load(args.grammar)
    if grammar is None:
        return 2
    word, bad = align.segment(grammar.terminals, args.prefix)
    if bad is not None:
        print(f"error: unknown terminal at offset {bad}", file=sys.stderr)
        return 2
    state = earley.init(grammar, earley.Session())
    try:
        for t in word:
            state = earley.extend(state, t)
    except InvalidExtension as exc:
        print(f"dead end: {exc}", file=sys.stderr)
        return 1
    valid = earley.valid_terminals(state)
    names = sorted(
        "<EOS>" if t is earley.END_MARKER else t for t in valid
    )
    if not names:
        print("dead end: no valid continuation", file=sys.stderr)
        return 1
    for name in names:
        print(name)
    return 0


# ---------------------------------------------------------------------------
# run


def _build_policy(name, vocab_size, references, tokenizer, cfg):
    if name == "uniform":
        return UniformPolicy(vocab_size)
    if name == "ngram":
        # instances of one task may differ in terminals (graph3color's node
        # labels), so fit only on the words this tokenizer can spell
        exemplars = []
        for text in references:
            try:
                exemplars.append(tuple(tokenizer.encode(text)) + (EOS_ID,))
            except UncoverableTerminal:
                continue
        return NgramPolicy(vocab_size, exemplars)
    if name == "remote":
        return RemotePolicy(cfg["endpoint"], cfg["model"], vocab_size)
    raise ValueError(name)


def run_batch(cfg, workers=1):
    """Result records for every instance of one batch config, in index
    order.  The instances, and the reference words the n-gram policy is
    fitted on, are generated once per batch."""
    instances = tasks.generate_instances(cfg["task"], cfg["count"], cfg["seed"])
    references = None
    if cfg["policy"] == "ngram":
        references = ["".join(tasks.reference_solution(i)) for i in instances]
    n = len(instances)
    args = ([cfg] * n, range(n), instances, [references] * n)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_instance, *args))
    return list(map(run_instance, *args))


def run_instance(cfg, index, inst, references):
    """Execute one instance of a batch config; returns the result record.
    An engine error is recorded as outcome "error" and does not abort the
    batch."""
    grammar = inst.grammar()
    terminals = sorted(grammar.terminals)
    tokenizer = TerminalTokenizer(terminals)
    token_map = align.build_map(terminals, tokenizer)
    rho = tasks.rho_for(inst)
    seed = cfg["seed"] * 100003 + index
    record = {
        "instance_id": inst.instance_id,
        "algo": cfg["algo"],
        "constraint": cfg["constraint"],
        "seed": seed,
        "config": cfg,
    }
    dcfg = DecodeConfig(
        mode="sample",
        constraint=cfg["constraint"],
        n=cfg["budget"],
        max_tokens=cfg["max_tokens"],
        top_k=50,
        seed=seed,
    )
    try:
        policy = _build_policy(
            cfg["policy"], tokenizer.vocab_size, references, tokenizer, cfg
        )
        if cfg["algo"] == "base":
            result = decoding.generate(
                grammar, token_map, policy, (), dcfg, session=earley.Session()
            )
        elif cfg["algo"] == "bon":

            def reward_fn(r):
                if rho is None:
                    return 0.0
                if r.terminals is None:
                    return -float(cfg["max_tokens"])
                return Reward(rho).of(r.terminals, r.outcome == "completed")

            result, _ = decoding.best_of_n(
                grammar, token_map, policy, (), dcfg, reward_fn
            )
        else:
            tree = SearchTree(project(grammar, cfg["constraint"]), token_map, ())
            scfg = SearchConfig(
                budget=cfg["budget"], max_tokens=cfg["max_tokens"], seed=seed
            )
            result, _ = mcts.search(
                tree, policy, Reward(rho or (lambda w: 0.0)), scfg
            )
            if result is None:
                result = DecodeResult((), "", None, DEAD_END, 0)
        word = result.terminals
        rho_val = float(rho(word)) if (rho is not None and word is not None) else None
        record.update(
            outcome=result.outcome,
            rho=rho_val,
            reward=result.reward,
            tokens=result.tokens_generated,
            t_constraint_ms=result.constraint_seconds * 1000.0,
            output="".join(word) if word else "",
        )
        record.update(tasks.validity(grammar, word))
    except AsgError as exc:
        record.update(
            outcome="error", rho=None, reward=None, tokens=0,
            t_constraint_ms=0.0, output=f"{type(exc).__name__}: {exc}",
        )
        record.update(tasks.validity(grammar, None))
    return record


def cmd_run(args):
    spec = tasks.TASKS.get(args.task)
    if spec is None:
        print(f"error: unknown task {args.task!r}", file=sys.stderr)
        return 2
    if spec.rho is None and args.algo != "base":
        print(
            f"error: the {args.task} task has no reward; use --algo base",
            file=sys.stderr,
        )
        return 2
    for flag in ("--budget", "--max-tokens", "--count", "--workers"):
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value < 1:
            print(f"error: {flag} must be at least 1, not {value}", file=sys.stderr)
            return 2
    if args.algo == "mcts" and args.constraint == "none":
        print("note: unconstrained search baseline (flagged)", file=sys.stderr)
    cfg = {
        "task": args.task,
        "algo": args.algo,
        "constraint": args.constraint,
        "policy": args.policy,
        "budget": args.budget or spec.budget,
        "seed": args.seed,
        "count": args.count,
        "max_tokens": args.max_tokens or spec.max_tokens,
        "endpoint": args.endpoint
        or os.environ.get("ASGDEC_ENDPOINT", "http://127.0.0.1:8763"),
        "model": args.model,
    }
    records = run_batch(cfg, args.workers)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            for r in records:
                fh.write(json.dumps(r, sort_keys=True) + "\n")
    print(tasks.MetricsReport.of(records).row())
    return 0


def cmd_report(args):
    groups = {}
    for path in args.results:
        try:
            with open(path, encoding="utf-8") as fh:
                for n, line in enumerate(fh, start=1):
                    if not line.strip():
                        continue
                    r = json.loads(line)
                    key = (
                        r["config"]["task"],
                        r["algo"],
                        r["constraint"],
                        r["config"]["policy"],
                    )
                    groups.setdefault(key, []).append(r)
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: {path}: cannot read: {exc}", file=sys.stderr)
            return 2
        except (ValueError, KeyError, TypeError) as exc:
            what = f"no field {exc}" if isinstance(exc, KeyError) else str(exc)
            print(f"error: {path}:{n}: not a result record: {what}", file=sys.stderr)
            return 2
    for key in sorted(groups):
        task, algo, constraint, policy = key
        print(f"{task:12s} {algo:5s} {constraint:5s} {policy:8s} "
              + tasks.MetricsReport.of(groups[key]).row())
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="asgdec", description="annotated-grammar constrained decoding"
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="test membership of a word")
    c.add_argument("grammar")
    c.add_argument("word")
    c.set_defaults(func=cmd_check)

    c = sub.add_parser("complete", help="valid next terminals for a prefix")
    c.add_argument("grammar")
    c.add_argument("prefix")
    c.set_defaults(func=cmd_complete)

    c = sub.add_parser("run", help="run an experiment batch")
    c.add_argument("--task", required=True)
    c.add_argument("--algo", choices=ALGOS, default="base")
    c.add_argument("--constraint", choices=LEVELS, default="sem")
    c.add_argument("--policy", choices=POLICIES, default="uniform")
    c.add_argument("--budget", type=int, default=None)
    c.add_argument("--count", type=int, default=10)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--max-tokens", type=int, default=None)
    c.add_argument("--output", default=None)
    c.add_argument("--endpoint", default=None)
    c.add_argument("--model", default="stub")
    c.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    c.set_defaults(func=cmd_run)

    c = sub.add_parser("report", help="aggregate result files")
    c.add_argument("results", nargs="+")
    c.set_defaults(func=cmd_report)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AsgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
