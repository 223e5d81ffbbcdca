"""Decoding benchmark: one workload per process, timings that resist a
noisy host.

    python3 perfbench/run.py --workload sample_sem --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py              # every workload, one process each

Run from the repository root.  The package is imported from ``src/`` of
the checkout the script sits in, never from an installed copy.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of ``BENCHMARK.json``, with ``--trace 1`` the per-layer
ones.  A fuller report goes to ``perfbench/results/``.

The measurement repeats passes over the workload's fixed operation list
while another pass fits in ``--seconds`` (at least ``MIN_PASSES``).  Each
timing is built from each operation's mean over its passes.  The host
slows by up to 1.85x for spells of seconds to minutes.  A spell that covers
the whole run moves every statistic alike, but within a run the mean
moves least: the median and the fastest pass of an operation jump between
the host's fast and slow states as their mix shifts (see README).  Set-up
runs once before the passes and again after each; ``setup_s`` is the
median of those set-ups.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 3  # traced set-ups, for the set-up layers' figures
MIN_PASSES = 2


def _import_package():
    """Put the checkout's ``src`` first on the path; fail unless the package
    found there is the one imported."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, HERE]
    try:
        import asgdec
    except ImportError as exc:
        raise SystemExit(f"error: cannot import asgdec from {src}: {exc}")
    if not os.path.abspath(asgdec.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: asgdec imported from {asgdec.__file__}, not {src}")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# One pass over the operations.


def _run_pass(ops):
    times, outs = [], []
    for op in ops:
        t0 = time.perf_counter()
        out = op.run()
        times.append(time.perf_counter() - t0)
        outs.append(out)
    return times, outs


class Tally:
    """Attempted and failed operations, and the checks that decide
    ``correct``: every failure must be a kept fault, and every repeat of an
    operation must give the same output as its first run."""

    def __init__(self, ops):
        self.ops = ops
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.known = Counter()
        self.wrong = []  # labels of failures that are not kept faults
        self.unsteady = []  # labels whose output changed between passes

    def add(self, outs):
        if self.first is None:
            self.first = outs
        for op, out, ref in zip(self.ops, outs, self.first):
            self.attempted += 1
            if not out.ok:
                self.failed += 1
                if out.known:
                    self.known[out.known] += 1
                else:
                    self.wrong.append(op.label)
            if out.ids != ref.ids:
                self.unsteady.append(op.label)

    @property
    def correct(self):
        return not self.wrong and not self.unsteady


SETUP_SPANS = (
    "grammar.parse_grammar",
    "grammar.projection",
    "tasks.generate_instances",
    "align.build_map",
)


def _timed_setup(setup_fn, seed, wrap_rho=None):
    t0 = time.perf_counter()
    setup = setup_fn(seed, wrap_rho=wrap_rho)
    return setup, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# End-to-end run (--trace 0).


def measure(setup_fn, seed, seconds):
    setup, first_s = _timed_setup(setup_fn, seed)
    setup_times = [first_s]
    ops = setup.ops
    tally = Tally(ops)
    samples = [[] for _ in ops]  # each operation's time in every pass
    passes = 0
    start = time.perf_counter()
    while passes < MIN_PASSES or _room_for(passes, start, seconds):
        times, outs = _run_pass(ops)
        tally.add(outs)
        for s, t in zip(samples, times):
            s.append(t)
        passes += 1
        setup_times.append(_timed_setup(setup_fn, seed)[1])
    wall = time.perf_counter() - start

    timed = [i for i, out in enumerate(tally.first) if out.timed]
    op_s = [statistics.fmean(samples[i]) for i in timed]
    total = sum(op_s)
    tokens = sum(tally.first[i].tokens for i in timed)
    per_s = len(op_s) / total
    p50 = statistics.median(op_s) * 1000
    p90 = statistics.quantiles(op_s, n=10)[8] * 1000
    metrics = {
        "tokens_per_s": tokens / total,
        "gen_ms_p50": p50,
        "gen_ms_p90": p90,
        "searches_per_s": per_s,
        "search_ms_p50": p50,
        "search_ms_p90": p90,
        "verdicts_per_s": per_s,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": _peak_rss_mb(),
    }
    report = {
        "passes": passes,
        "pass_s": [sum(s[k] for s in samples) for k in range(passes)],
        "wall_s": wall,
        "operations_per_pass": len(ops),
        "timed_operations": len(op_s),
        "setup_s_each": setup_times,
        "per_task": _per_task(tally.first, dict(zip(timed, op_s))),
        "outcomes_per_pass": dict(Counter(o.kind for o in tally.first)),
        **setup.info,
    }
    return tally, metrics, report


def _room_for(done, start, seconds):
    """True while one more of ``done`` equal rounds ends within the run."""
    elapsed = time.perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


def _per_task(outs, op_s):
    rows = {}
    for i, seconds in op_s.items():
        row = rows.setdefault(outs[i].task, {"ops": 0, "tokens": 0, "seconds": 0.0})
        row["ops"] += 1
        row["tokens"] += outs[i].tokens
        row["seconds"] += seconds
    for row in rows.values():
        row["tokens_per_s"] = row["tokens"] / row["seconds"]
        row["ms_per_op"] = 1000 * row["seconds"] / row["ops"]
    return rows


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Traced run (--trace 1): untraced and traced passes alternate, so the
# overhead is measured on the same operations.  ``Tally`` compares every
# pass's token ids with the first, untraced, pass.


def measure_traced(setup_fn, seed, seconds):
    from tracing import Tracer

    tracer = Tracer()
    setup_layer = []
    tracer.install()
    try:
        for _ in range(SETUP_REPEATS):
            tracer.reset()
            setup, _ = _timed_setup(setup_fn, seed, tracer.wrap_rho)
            setup_layer.append({name: tracer.self_s(name) for name in SETUP_SPANS})
    finally:
        tracer.uninstall()
    ops = setup.ops
    tally = Tally(ops)
    plain_walls, traced_walls, layers = [], [], []
    start = time.perf_counter()
    while len(layers) < MIN_PASSES or _room_for(len(layers), start, seconds):
        t0 = time.perf_counter()
        _, plain = _run_pass(ops)
        plain_walls.append(time.perf_counter() - t0)
        tally.add(plain)
        tracer.install()
        tracer.reset()
        try:
            t0 = time.perf_counter()
            _, traced = _run_pass(ops)
            traced_walls.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
        tally.add(traced)
        layers.append(_pass_layers(tracer, traced))

    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        # times take the mean pass; counts and ratios repeat exactly
        if name.endswith("self_s"):
            metrics[name] = statistics.fmean(values)
        else:
            metrics[name] = values[-1]
    for name in SETUP_SPANS:
        metrics[name + ".self_s"] = statistics.median(s[name] for s in setup_layer)
    metrics["align.expansions"] = setup.expansions
    metrics["trace.overhead"] = sum(traced_walls) / sum(plain_walls)
    report = {
        "pairs": len(layers),
        "plain_wall_s": plain_walls,
        "traced_wall_s": traced_walls,
    }
    return tally, metrics, report


SPANS = (
    "logic.evaluate_node",
    "earley.extend",
    "earley.valid_terminals",
    "earley.accepts",
    "align.valid_tokens",
    "align.apply_token",
    "policy.next_distribution",
    "tasks.rho",
)
SELF_ONLY = (
    "earley.init",
    "decoding.generate",
    "decoding.choose_token",
    "decoding.masked_logprobs",
    "mcts.search",
)


def _pass_layers(tracer, outs):
    out = {}
    for name in SPANS:
        out[name + ".calls"] = tracer.calls(name)
        out[name + ".self_s"] = tracer.self_s(name)
    for name in SELF_ONLY:
        out[name + ".self_s"] = tracer.self_s(name)
    hits = sum(o.memo_hits for o in outs)
    lookups = hits + sum(o.memo_evals for o in outs)
    out["earley.session.memo_hit_ratio"] = hits / lookups if lookups else 0.0
    out["earley.valid_terminals.admitted_ratio"] = (
        tracer.admitted / tracer.trials if tracer.trials else 0.0
    )
    out["decoding.mask_mass_removed"] = (
        tracer.mask_removed / tracer.mask_steps if tracer.mask_steps else 0.0
    )
    searches = [o.search for o in outs if o.search]
    out["mcts.rollouts"] = sum(s[0] for s in searches)
    out["mcts.simulations"] = sum(s[1] for s in searches)
    out["mcts.max_branching"] = max((s[2] for s in searches), default=0)
    return out


# ---------------------------------------------------------------------------


def run_one(args, spec):
    from workloads import WORKLOADS

    setup_fn = WORKLOADS[args.workload]
    if args.trace:
        tally, metrics, report = measure_traced(setup_fn, args.seed, args.seconds)
        listed = spec["per_layer"]
    else:
        tally, metrics, report = measure(setup_fn, args.seed, args.seconds)
        listed = spec["end_to_end"]
    names = [m["name"] for m in listed]
    if sorted(names) != sorted(metrics):
        raise SystemExit(
            f"error: metrics {sorted(set(metrics) ^ set(names))} differ "
            "between the run and BENCHMARK.json"
        )
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in listed
        },
    }
    report.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=platform.python_version(),
        cpus=os.cpu_count(),
        kept_faults=dict(tally.known),
        wrong=tally.wrong[:20],
        unsteady=tally.unsteady[:20],
        result=result,
    )
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    print(json.dumps(result))
    return 0


def run_all(args, names):
    """Every workload in its own process, one after another."""
    results = {}
    status = 0
    for name in names:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        results[name] = result
        print(
            f"{name}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']}"
        )
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return status


def main(argv=None):
    _import_package()
    from workloads import WORKLOADS

    spec = _spec()
    # BENCHMARK.json lists the workloads a change is gated on; the others
    # run by name (see README, "Workloads outside the gate")
    names = list(WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, names)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
