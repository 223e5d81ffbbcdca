"""The four benchmark workloads.

Each workload turns a seed into a fixed list of operations during set-up
and runs one operation at a time.  An operation starts from fresh engine
state (a new ``Session`` or ``SearchTree``), so repeating it repeats the
same work from the same cache state.  Every output is checked against
``oracles``, which share no code with the engine.

An operation returns an ``Outcome``.  ``ok`` is False when the output is
wrong or the engine refused valid input; ``known`` names the fault when the
failure is one of the two the benchmark keeps on purpose (see README).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from asgdec import align, decoding, earley, grammar, mcts, policy, tasks
from asgdec.tasks import jsontask

import oracles

# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    ok: bool
    tokens: int  # tokens generated, or terminals read by a verdict
    ids: tuple  # token ids (or verdict) compared between passes and runs
    kind: str  # decode outcome, verdict, or "force_decode"
    timed: bool = True  # counts toward the workload's timing metrics
    known: str = ""  # name of a kept fault when ok is False
    memo_hits: int = 0
    memo_evals: int = 0
    search: tuple = ()  # (rollouts, simulations, max_branching)
    task: str = ""


@dataclass
class Op:
    run: object  # callable -> Outcome
    label: str


@dataclass
class Setup:
    ops: list
    expansions: int = 0  # token-map size summed over the maps built
    info: dict = field(default_factory=dict)


def _counts(session):
    return session.eval_cache_hits, session.node_evals


def _terminal_map(g):
    return align.build_map(g.terminals, align.TerminalTokenizer(g.terminals))


def _expansions(token_map):
    return sum(len(v) for v in token_map.expansions.values())


# ---------------------------------------------------------------------------
# sample_sem: uniform-policy sampling at the sem level, one generation per
# operation, caps as in the acceptance suite's generation test.  copy and
# sudoku4 get twice the generations of the other tasks: they are the slowest
# tasks per token, and with equal shares the median generation time fell in
# the gap between two clusters of task times and moved by 38% between seeds.

SAMPLE_CAPS = {
    "anbncn": 40,
    "ambncmdn": 40,
    "copy": 16,
    "sudoku3": 32,
    "sudoku4": 64,
    "graph3color": 120,
    "blocksworld": 60,
}
SAMPLE_INSTANCES = 6
SAMPLE_SEEDS = 5  # generations per instance
SAMPLE_WEIGHT = {"copy": 2, "sudoku4": 2}


def _sample_op(task, inst, g, token_map, pol, cap, seed):
    cfg = decoding.DecodeConfig(
        mode="sample", constraint="sem", seed=seed, max_tokens=cap
    )

    def run():
        session = earley.Session()
        r = decoding.generate(g, token_map, pol, (), cfg, session=session)
        hits, evals = _counts(session)
        ok = r.outcome != decoding.COMPLETED or oracles.member(
            task, inst.params, r.text
        )
        return Outcome(
            ok, r.tokens_generated, r.token_ids, r.outcome,
            memo_hits=hits, memo_evals=evals, task=task,
        )

    return Op(run, f"{inst.instance_id}/seed{seed}")


def setup_sample_sem(seed, wrap_rho=None):
    rng = random.Random(seed)
    ops = []
    expansions = 0
    for task, cap in SAMPLE_CAPS.items():
        for inst in tasks.generate_instances(task, SAMPLE_INSTANCES, seed=seed):
            g = inst.grammar()
            token_map = _terminal_map(g)
            expansions += _expansions(token_map)
            pol = policy.UniformPolicy(token_map.vocab_size)
            for _ in range(SAMPLE_SEEDS * SAMPLE_WEIGHT.get(task, 1)):
                s = rng.randrange(2**31)
                ops.append(_sample_op(task, inst, g, token_map, pol, cap, s))
    return Setup(ops, expansions)


# ---------------------------------------------------------------------------
# json_subword: the schema grammar at the cfg level under a subword
# vocabulary learnt from the exemplar corpus, sampled with an n-gram policy
# fitted on that corpus; plus force-decodes of the corpus itself.

JSON_CORPUS = 200  # documents, drawn at corpus seed 0 whatever the run seed
JSON_MERGES = 120
JSON_FORCED = 50  # corpus documents force-decoded per pass
JSON_SAMPLES = 200
JSON_CAP = 64


def learn_pieces(corpus, merges, alphabet=()):
    """Byte-pair-style pieces: every character, then ``merges`` rounds of
    joining the most frequent adjacent pair (ties to the smallest pair).
    Merges run over whole documents, so pieces cross terminal boundaries
    the way a real vocabulary's do."""
    chars = sorted(set("".join(corpus)) | set("".join(alphabet)))
    pieces = list(chars)
    docs = [list(d) for d in corpus]
    for _ in range(merges):
        pairs = Counter()
        for d in docs:
            pairs.update(zip(d, d[1:]))
        if not pairs:
            break
        top = max(pairs.values())
        a, b = min(p for p, c in pairs.items() if c == top)
        pieces.append(a + b)
        for k, d in enumerate(docs):
            out, i = [], 0
            while i < len(d):
                if i + 1 < len(d) and d[i] == a and d[i + 1] == b:
                    out.append(a + b)
                    i += 2
                else:
                    out.append(d[i])
                    i += 1
            docs[k] = out
    return pieces


def _force_decode_op(g, token_map, tokenizer, cross, doc):
    """Walk the tokenizer's own encoding of ``doc`` through the mask.  A
    refused piece that spans terminals (one in ``cross``) is the kept fault:
    it is noted and spelt again one character at a time, and the walk goes
    on, so the rest of the document is still checked.  A refusal of any
    other piece, or of EOS at the end, is wrong."""
    ids = tuple(tokenizer.encode(doc))
    char_id = {c: tokenizer.encode(c)[0] for c in doc}

    def run():
        session = earley.Session()
        state = earley.init(g, session)
        cursor = align.AlignCursor()
        todo = list(reversed(ids))
        split = []  # refused cross-terminal pieces
        wrong = None  # a refused piece that is not the kept fault
        while todo and wrong is None:
            tok = todo.pop()
            if tok in align.valid_tokens(state, token_map, cursor):
                state, cursor, _ = align.apply_token(state, token_map, cursor, tok)
                continue
            piece = tokenizer.pieces[tok - 1]
            if piece in cross and len(piece) > 1:
                split.append(piece)
                todo.extend(char_id[c] for c in reversed(piece))
            else:
                wrong = piece
        if wrong is None and align.EOS_ID not in align.valid_tokens(
            state, token_map, cursor
        ):
            wrong = "EOS"
        hits, evals = _counts(session)
        return Outcome(
            wrong is None and not split, len(ids), (tuple(split), wrong),
            "force_decode", timed=False,
            known="cross_terminal_piece" if split and wrong is None else "",
            memo_hits=hits, memo_evals=evals, task="json",
        )

    return Op(run, doc)


def _json_sample_op(g, token_map, tokenizer, pol, seed):
    cfg = decoding.DecodeConfig(
        mode="sample", constraint="cfg", seed=seed, max_tokens=JSON_CAP
    )

    def run():
        session = earley.Session()
        r = decoding.generate(g, token_map, pol, (), cfg, session=session)
        hits, evals = _counts(session)
        ok = True
        if r.outcome == decoding.COMPLETED:
            text = tokenizer.decode(r.token_ids)
            ok = text == r.text and oracles.json_member(text)
        return Outcome(
            ok, r.tokens_generated, r.token_ids, r.outcome,
            memo_hits=hits, memo_evals=evals, task="json",
        )

    return Op(run, f"seed{seed}")


def setup_json_subword(seed, wrap_rho=None):
    inst = tasks.generate_instances("json", 1, seed=seed)[0]
    g = grammar.strip_annotations(inst.grammar())
    corpus = jsontask.exemplar_corpus(JSON_CORPUS, seed=0)
    pieces = learn_pieces(corpus, JSON_MERGES, g.terminals)
    tokenizer = align.SubwordTokenizer(pieces)
    token_map = align.build_map(g.terminals, tokenizer)
    exemplars = [tuple(tokenizer.encode(d)) + (align.EOS_ID,) for d in corpus]
    pol = policy.NgramPolicy(token_map.vocab_size, exemplars, order=3)
    rng = random.Random(seed)
    ops = [
        _json_sample_op(g, token_map, tokenizer, pol, rng.randrange(2**31))
        for _ in range(JSON_SAMPLES)
    ]
    cross = sorted(p for p in pieces if _spans_terminals(p, g.terminals))
    ops += [
        _force_decode_op(g, token_map, tokenizer, frozenset(cross), d)
        for d in corpus[:JSON_FORCED]
    ]
    info = {"pieces": len(pieces), "cross_terminal_pieces": cross}
    return Setup(ops, _expansions(token_map), info)


def _spans_terminals(piece, terminals):
    """True when no terminal contains the piece, so spelling it needs two."""
    return not any(piece in t for t in terminals)


# ---------------------------------------------------------------------------
# mcts_search: uniform-policy search over the acceptance suite's BENCH
# instances (instance seed 0), at its budgets and caps, one fresh tree per
# search.  As in BENCH, every instance gets the same number of searches,
# scaled down from its 20 to SEARCHES_PER_INSTANCE, with search seeds drawn
# from the run seed.  Blocksworld is the one cut: one search per instance,
# at search seed 0 (BENCH's first), on the first three of its five
# instances.  One blocksworld search takes from 10 ms to 3.2 s depending on
# the instance and the search seed, so a seeded draw would make the totals
# measure the draw, and all five instances at seed 0 take about 8 s, too
# long to repeat often enough within a run on a noisy 2-core host.

SEARCH_TABLE = [
    # task, instances, budget, max tokens
    ("sudoku3", 10, 10, 64),
    ("graph3color", 5, 35, 160),
    ("anbncn", 8, 50, 64),
    ("copy", 12, 50, 32),
    ("blocksworld", 3, 200, 160),
]
SEARCHES_PER_INSTANCE = 6


def _search_op(task, inst, g, token_map, reward, budget, max_tokens, seed):
    cfg = mcts.SearchConfig(budget=budget, max_tokens=max_tokens, seed=seed)

    def run():
        tree = mcts.SearchTree(g, token_map, ())
        pol = policy.UniformPolicy(token_map.vocab_size)
        result, stats = mcts.search(tree, pol, reward, cfg)
        hits, evals = _counts(tree.session)
        if result is None:
            return Outcome(
                True, 0, (), "none", memo_hits=hits, memo_evals=evals,
                search=(stats.rollouts, stats.simulations, stats.max_branching),
                task=task,
            )
        ok = result.outcome != decoding.COMPLETED or oracles.member(
            task, inst.params, result.text
        )
        return Outcome(
            ok, result.tokens_generated, result.token_ids, result.outcome,
            memo_hits=hits, memo_evals=evals,
            search=(stats.rollouts, stats.simulations, stats.max_branching),
            task=task,
        )

    return Op(run, f"{inst.instance_id}/seed{seed}")


def setup_mcts_search(seed, wrap_rho=None):
    rng = random.Random(seed)
    ops = []
    expansions = 0
    for task, count, budget, max_tokens in SEARCH_TABLE:
        per = 1 if task == "blocksworld" else SEARCHES_PER_INSTANCE
        for inst in tasks.generate_instances(task, count, seed=0):
            g = inst.grammar()
            token_map = _terminal_map(g)
            expansions += _expansions(token_map)
            rho = tasks.rho_for(inst)
            reward = mcts.Reward(rho=wrap_rho(rho) if wrap_rho else rho)
            for _ in range(per):
                s = 0 if task == "blocksworld" else rng.randrange(2**31)
                ops.append(
                    _search_op(task, inst, g, token_map, reward, budget, max_tokens, s)
                )
    return Setup(ops, expansions)


# ---------------------------------------------------------------------------
# verify_words: accepts verdicts at cfg, csg and sem, one fresh Session per
# verdict.  Per instance: the reference solution plus single-edit mutations
# that the oracle rejects (redrawn until it does), so each instance gives
# exactly one member.  Blocksworld uses instance seed 0 whatever the run
# seed: its csg projection rejects every valid plan, and the count of those
# failures must not depend on the seed.

VERIFY_TASKS = (
    "anbncn", "ambncmdn", "copy", "sudoku3", "sudoku4",
    "graph3color", "blocksworld", "json",
)
VERIFY_INSTANCES = 16
VERIFY_MUTATIONS = 3
LEVELS = ("cfg", "csg", "sem")


def mutate(word, alphabet, rng):
    """One substitution, insertion or deletion of a terminal."""
    w = list(word)
    i = rng.randrange(len(w))
    kind = rng.randrange(3)
    if kind == 0:
        w[i] = rng.choice([c for c in alphabet if c != w[i]])
    elif kind == 1:
        w.insert(i, rng.choice(alphabet))
    elif len(w) > 1:
        del w[i]
    else:
        w.append(rng.choice(alphabet))
    return tuple(w)


def _verdict_op(task, level, g, word, expected, upper, is_ref):
    """One verdict.  ``expected`` is the oracle's sem answer.  The levels
    nest, cfg >= csg >= sem: the sem verdict must equal the oracle, the cfg
    and csg verdicts must accept every member, and csg may accept only what
    cfg accepts (``upper`` holds the word's cfg verdict, run first).
    ``is_ref`` marks the instance's reference solution."""

    def run():
        session = earley.Session()
        verdict = earley.accepts(g, word, session)
        hits, evals = _counts(session)
        if level == "sem":
            ok = verdict == expected
        else:
            ok = verdict >= expected
            if level == "cfg":
                upper["cfg"] = verdict
            else:
                ok = ok and verdict <= upper["cfg"]
        known = ""
        if (
            not ok and task == "blocksworld" and level == "csg" and is_ref
            and expected and upper["cfg"] and not verdict
        ):
            # the csg projection drops the background, which holds the
            # initial state, so no action is ever applicable
            known = "blocksworld_csg_rejects_plans"
        return Outcome(
            ok, len(word), (verdict,), f"{level}:{verdict}",
            known=known, memo_hits=hits, memo_evals=evals, task=task,
        )

    return Op(run, f"{level}:{''.join(word)}")


def setup_verify_words(seed, wrap_rho=None):
    rng = random.Random(seed)
    ops = []
    for task in VERIFY_TASKS:
        inst_seed = 0 if task == "blocksworld" else seed
        for inst in tasks.generate_instances(task, VERIFY_INSTANCES, seed=inst_seed):
            full = inst.grammar()
            levels = {
                "cfg": grammar.strip_annotations(full),
                "csg": grammar.csg_projection(full),
                "sem": full,
            }
            alphabet = sorted(full.terminals)
            ref = tuple(tasks.reference_solution(inst))
            words = [(ref, oracles.member(task, inst.params, "".join(ref)), True)]
            while len(words) < 1 + VERIFY_MUTATIONS:
                w = mutate(ref, alphabet, rng)
                if not oracles.member(task, inst.params, "".join(w)):
                    words.append((w, False, False))
            for word, expected, is_ref in words:
                upper = {}
                for level in LEVELS:
                    ops.append(
                        _verdict_op(
                            task, level, levels[level], word, expected, upper, is_ref
                        )
                    )
    return Setup(ops)


WORKLOADS = {
    "sample_sem": setup_sample_sem,
    "json_subword": setup_json_subword,
    "mcts_search": setup_mcts_search,
    "verify_words": setup_verify_words,
}
