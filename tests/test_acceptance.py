"""End-to-end acceptance gate.

Each test here checks one externally meaningful guarantee of the engine,
with oracles that share no code with the implementation: closed-form
language definitions, brute-force model enumeration, frozen hand-computed
selection scores, and independent task checkers.  One test per guarantee,
so the -v report reads as a scorecard.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest

import asgdec.mcts as mcts_mod
from asgdec import (
    EOS_ID,
    CountingPolicy,
    DecodeConfig,
    NgramPolicy,
    Reward,
    SearchConfig,
    SearchTree,
    Session,
    TerminalTokenizer,
    UniformPolicy,
    accepts,
    build_map,
    extend,
    generate,
    init,
    parse_grammar,
    strip_annotations,
    tau,
    tau_inverse,
    valid_terminals,
)
from asgdec.decoding import COMPLETED
from asgdec.earley import END_MARKER
from asgdec.logic import (
    SAT,
    UNSAT,
    LogicFragment,
    evaluate_node,
    parse_rules,
)
from asgdec.mcts import SearchNode, search, select_child
from asgdec.tasks import (
    checker_for,
    generate_instances,
    reference_solution,
    rho_for,
    score_run,
)
from asgdec.tasks import jsontask, sgs

from conftest import (
    ambncmdn_member,
    ambncmdn_next,
    anbncn_member,
    anbncn_next,
    copy_member,
    copy_next,
)
from logic_reference import enumerate_models_bruteforce

# ---------------------------------------------------------------------------
# 1. membership agrees with the closed-form language definitions


def _check_strings(grammar, member, strings, session):
    for w in strings:
        assert accepts(grammar, w, session) == member(w), "".join(w)


def _mutations(word, alphabet, rng, per_word=6):
    """A few single-edit corruptions of a word (substitute, insert, delete)."""
    word = list(word)
    out = []
    for _ in range(per_word):
        kind = rng.randrange(3)
        w = list(word)
        i = rng.randrange(len(w))
        if kind == 0:
            w[i] = rng.choice([c for c in alphabet if c != w[i]])
        elif kind == 1:
            w.insert(i, rng.choice(alphabet))
        else:
            del w[i]
        if w:
            out.append(tuple(w))
    return out


def test_01_membership_matches_bounded_enumeration(
    anbncn_grammar, ambncmdn_grammar, copy_grammar
):
    t0 = time.time()
    rng = random.Random(0)

    # every string up to a feasible exhaustive bound
    s1, s2, s3 = Session(), Session(), Session()
    for n in range(1, 10):
        _check_strings(
            anbncn_grammar, anbncn_member, itertools.product("abc", repeat=n), s1
        )
    for n in range(1, 9):
        _check_strings(
            ambncmdn_grammar,
            ambncmdn_member,
            itertools.product("abcd", repeat=n),
            s2,
        )
    for n in range(1, 11):
        _check_strings(
            copy_grammar, copy_member, itertools.product("ab", repeat=n), s3
        )

    # beyond the exhaustive cutoff: every member word up to the full length
    # bound, plus single-edit corruptions of each
    for n in range(4, 7):  # lengths 12..18
        w = tuple("a" * n + "b" * n + "c" * n)
        _check_strings(
            anbncn_grammar,
            anbncn_member,
            [w] + _mutations(w, "abc", rng),
            s1,
        )
    for p in range(1, 8):
        for q in range(1, 8):
            if p == q or 2 * (p + q) > 16 or 2 * (p + q) <= 8:
                continue
            w = tuple("a" * p + "b" * q + "c" * p + "d" * q)
            _check_strings(
                ambncmdn_grammar,
                ambncmdn_member,
                [w] + _mutations(w, "abcd", rng),
                s2,
            )
    assert time.time() - t0 < 60.0


# ---------------------------------------------------------------------------
# 2. the valid-terminal set is exact on every viable prefix


def _walk(grammar, next_oracle, max_len):
    state = init(grammar)
    frontier = [((), state)]
    checked = 0
    while frontier:
        prefix, st = frontier.pop()
        expected = next_oracle(prefix)
        shown = {None if t is END_MARKER else t for t in valid_terminals(st)}
        assert shown == expected, f"prefix {''.join(prefix)!r}"
        checked += 1
        if len(prefix) < max_len:
            for t in sorted(expected - {None}):
                frontier.append((prefix + (t,), extend(st, t)))
    return checked


def test_02_next_terminal_sets_are_exact(
    anbncn_grammar, ambncmdn_grammar, copy_grammar
):
    # cross-check the closed-form next-symbol oracles against membership
    # before trusting them: a letter is listed iff some member extends the
    # prefix with it (verified on the short-word regime)
    for member, nxt, alphabet in (
        (anbncn_member, anbncn_next, "abc"),
        (ambncmdn_member, ambncmdn_next, "abcd"),
        (copy_member, copy_next, "ab"),
    ):
        for n in range(1, 7):
            for w in itertools.product(alphabet, repeat=n):
                if member(w):
                    assert None in nxt(w)
                    for i in range(len(w)):
                        assert w[i] in nxt(w[:i])

    assert _walk(anbncn_grammar, anbncn_next, 18) > 100
    assert _walk(ambncmdn_grammar, ambncmdn_next, 12) > 200
    assert _walk(copy_grammar, copy_next, 10) == 2**11 - 1


# ---------------------------------------------------------------------------
# 3. everything a constrained generation completes is in the language


GENERATION_CAPS = {
    "anbncn": 40,
    "ambncmdn": 40,
    "copy": 16,
    "sudoku3": 32,
    "sudoku4": 64,
    "graph3color": 120,
    "blocksworld": 60,
    "json": 48,
}


def test_03_constrained_generations_always_accepted():
    total_completed = 0
    for task, cap in GENERATION_CAPS.items():
        inst = generate_instances(task, 1, seed=0)[0]
        grammar = inst.grammar()
        tokenizer = TerminalTokenizer(grammar.terminals)
        token_map = build_map(grammar.terminals, tokenizer)
        policy = UniformPolicy(token_map.vocab_size)
        gen_session, accept_session = Session(), Session()
        for seed in range(1000):
            cfg = DecodeConfig(
                mode="sample", constraint="sem", seed=seed, max_tokens=cap
            )
            r = generate(
                grammar, token_map, policy, (), cfg, session=gen_session
            )
            if r.outcome == COMPLETED:
                total_completed += 1
                assert accepts(grammar, r.terminals, accept_session), (
                    task,
                    r.text,
                )
    assert total_completed > 1000  # the guarantee must not hold vacuously


# ---------------------------------------------------------------------------
# 4. node evaluation agrees with brute-force answer-set enumeration


def _random_ground_program(rng, n_atoms=12):
    # negation only reaches strictly lower-numbered atoms, so the program
    # is stratified by construction
    lines = []
    for i in range(n_atoms):
        kind = rng.randrange(4)
        if kind == 0:
            lines.append(f"p{i}.")
        elif kind == 1 and i >= 1:
            lines.append(f"p{i} :- p{rng.randrange(i)}.")
        elif kind == 2 and i >= 1:
            lines.append(f"p{i} :- not p{rng.randrange(i)}.")
        elif i >= 2:
            lines.append(
                f"p{i} :- p{rng.randrange(i)}, not p{rng.randrange(i)}."
            )
    for _ in range(rng.randrange(3)):
        lines.append(f":- p{rng.randrange(n_atoms)}.")
    return " ".join(lines)


def test_04_logic_verdicts_match_bruteforce_models():
    t0 = time.time()
    checked = 0
    for seed in range(500):
        # program sizes stratified over 4..12 atoms
        text = _random_ground_program(random.Random(seed), n_atoms=4 + seed % 9)
        if not text:
            continue
        fragment = LogicFragment(parse_rules(text, "t"), "t")
        res = evaluate_node(fragment, [], {})
        oracle = enumerate_models_bruteforce(fragment.rules)
        if res.status == UNSAT:
            assert oracle == set(), text
        else:
            assert res.status == SAT
            assert oracle == {res.model}, text
        checked += 1
    assert checked >= 490
    assert time.time() - t0 < 30.0


# ---------------------------------------------------------------------------
# 5. terminal-to-token mapping round-trips


def test_05_token_mapping_round_trips():
    for task in GENERATION_CAPS:
        inst = generate_instances(task, 1, seed=0)[0]
        grammar = inst.grammar()
        tokenizer = TerminalTokenizer(grammar.terminals)
        token_map = build_map(grammar.terminals, tokenizer)
        terms = sorted(grammar.terminals)
        rng = random.Random(hash(task) & 0xFFFF)
        for _ in range(1000):
            seq = tuple(
                rng.choice(terms) for _ in range(rng.randrange(0, 9))
            )
            assert tau_inverse(token_map, tokenizer, tau(token_map, seq)) == seq


# ---------------------------------------------------------------------------
# 6/7. uniform-policy tree search solves the benchmark suites


BENCH = [
    # (task, instance count, instance seed, budget, max tokens)
    ("sudoku3", 10, 0, 10, 64),
    ("graph3color", 5, 0, 35, 160),
    ("anbncn", 8, 0, 50, 64),
    ("copy", 12, 0, 50, 32),
    ("blocksworld", 5, 0, 200, 160),
]

N_SEEDS = 20


@pytest.fixture(scope="module")
def benchmark_traces():
    t0 = time.time()
    outcomes = []  # (task, instance_id, seed, solved, max_branching)
    for task, count, gen_seed, budget, max_tokens in BENCH:
        for inst in generate_instances(task, count, seed=gen_seed):
            grammar = inst.grammar()
            tokenizer = TerminalTokenizer(grammar.terminals)
            token_map = build_map(grammar.terminals, tokenizer)
            reward = Reward(rho=rho_for(inst))
            check = checker_for(inst)
            for seed in range(N_SEEDS):
                tree = SearchTree(grammar, token_map, ())
                policy = UniformPolicy(token_map.vocab_size)
                cfg = SearchConfig(
                    budget=budget, max_tokens=max_tokens, seed=seed
                )
                result, stats = search(tree, policy, reward, cfg)
                solved = (
                    result is not None
                    and result.outcome == COMPLETED
                    and check(result.terminals)
                )
                outcomes.append(
                    (task, inst.instance_id, seed, solved, stats.max_branching)
                )
    return outcomes, time.time() - t0


def test_06_uniform_policy_search_solves_benchmarks(benchmark_traces):
    outcomes, elapsed = benchmark_traces
    failures = [(t, i, s) for t, i, s, solved, _ in outcomes if not solved]
    assert not failures, failures[:10]
    assert len(outcomes) == sum(c * N_SEEDS for _, c, _, _, _ in BENCH)
    assert elapsed < 15 * 60


def test_07_terminal_branching_stays_small(benchmark_traces):
    outcomes, _ = benchmark_traces
    widest = max(b for *_, b in outcomes)
    assert 1 <= widest <= 15


# ---------------------------------------------------------------------------
# 8. validity levels are nested on mixed-validity batches


def _batch(terminal_words):
    return [
        {"terminals": tuple(w), "outcome": "completed", "tokens": len(w)}
        for w in terminal_words
    ]


def test_08_validity_rates_are_nested():
    batches = []

    g = parse_grammar(sgs.ANBNCN_GRAMMAR)
    batches.append(
        (g, _batch(["abc", "aabbcc", "ab", "aabbc", "abcabc", "aaa"]))
    )
    g = parse_grammar(sgs.AMBNCMDN_GRAMMAR)
    batches.append(
        (g, _batch(["abbcdd", "aabccd", "abcd", "abbcd", "aabbccdd", "a"]))
    )
    g = parse_grammar(sgs.COPY_GRAMMAR)
    batches.append((g, _batch(["abab", "aa", "aba", "abba", "b", "bbbb"])))

    inst = generate_instances("sudoku3", 1, seed=0)[0]
    good = "".join(reference_solution(inst))
    ones = "[[1,1,1],[1,1,1],[1,1,1]]"
    batches.append(
        (inst.grammar(), _batch([good, ones, good[:-1], "[[1,2],[2,1]]"]))
    )

    inst = generate_instances("graph3color", 1, seed=0)[0]
    good = "".join(reference_solution(inst))
    clash = good.replace("red", "blue", 1)
    batches.append((inst.grammar(), _batch([good, clash, good[:-1]])))

    g = parse_grammar(jsontask.JSON_GRAMMAR)
    ok = jsontask._word("Jo", "Du", 7)
    batches.append((g, _batch([ok, ok[:-1], '{"age":7}', ok + "}"])))

    strict = 0
    for grammar, results in batches:
        rep = score_run(grammar, results)
        assert rep.v_sem <= rep.v_csg <= rep.v_cfg, rep.row()
        if rep.v_sem < rep.v_cfg:
            strict += 1
    assert strict >= 2  # the fixtures genuinely mix validity levels


# ---------------------------------------------------------------------------
# 9. a warm tree is never re-expanded and states are never re-evaluated


def test_09_warm_tree_reuse_skips_known_work(anbncn_grammar, monkeypatch):
    tokenizer = TerminalTokenizer(anbncn_grammar.terminals)
    token_map = build_map(anbncn_grammar.terminals, tokenizer)
    session = Session()
    tree = SearchTree(anbncn_grammar, token_map, (), session)
    policy = CountingPolicy(UniformPolicy(token_map.vocab_size))
    reward = Reward(rho=sgs.anbncn_rho(6))
    cfg = SearchConfig(budget=10, max_tokens=24, seed=0)

    expanded = []
    orig = mcts_mod._expand

    def record(tree_, node, policy_, stats_):
        expanded.append(id(node))
        return orig(tree_, node, policy_, stats_)

    monkeypatch.setattr(mcts_mod, "_expand", record)

    result, _ = search(tree, policy, reward, cfg)
    first = set(expanded)
    assert len(expanded) == len(first)

    # replaying any word the search already walked costs zero fresh parser
    # node evaluations: the per-session memo answers everything
    evals = session.node_evals
    state = tree.root.prefix.state
    for t in result.terminals:
        state = extend(state, t)
    valid_terminals(state)
    assert session.node_evals == evals

    # re-search with the same seed: previously expanded nodes are reused
    # as-is; the policy is only consulted for genuinely new nodes
    expanded.clear()
    search(tree, policy, reward, cfg)
    again = set(expanded)
    assert not (again & first)
    assert len(expanded) == len(again)


# ---------------------------------------------------------------------------
# 10. schema-constrained n-gram decoding is always well-formed


def test_10_json_ngram_constrained_vs_free():
    grammar = parse_grammar(jsontask.JSON_GRAMMAR)
    g_cfg = strip_annotations(grammar)
    tokenizer = TerminalTokenizer(grammar.terminals)
    token_map = build_map(grammar.terminals, tokenizer)
    exemplars = [
        tuple(tokenizer.encode(doc)) + (EOS_ID,)
        for doc in jsontask.exemplar_corpus(200, seed=0)
    ]
    policy = NgramPolicy(token_map.vocab_size, exemplars, order=3)

    gen_session, accept_session = Session(), Session()
    constrained_valid = 0
    for seed in range(100):
        cfg = DecodeConfig(
            mode="sample", constraint="cfg", seed=seed, max_tokens=64
        )
        r = generate(g_cfg, token_map, policy, (), cfg, session=gen_session)
        if (
            r.outcome == COMPLETED
            and r.terminals
            and accepts(g_cfg, r.terminals, accept_session)
        ):
            constrained_valid += 1
    assert constrained_valid == 100

    free_valid = 0
    for seed in range(100):
        cfg = DecodeConfig(
            mode="sample", constraint="none", seed=seed, max_tokens=64
        )
        r = generate(g_cfg, token_map, policy, (), cfg)
        if (
            r.outcome == COMPLETED
            and r.terminals
            and accepts(g_cfg, r.terminals, accept_session)
        ):
            free_valid += 1
    assert free_valid < constrained_valid


# ---------------------------------------------------------------------------
# 11. child selection reproduces frozen hand-computed scores
#
# Each row freezes (priors, visits, values, beta), the per-action scores
# q(a) + beta * prior(a) * sqrt(sum_b N(b)) / (1 + N(a)) worked out
# independently of the implementation, and the winning action.

SELECTION_TABLE = [
    ({15: 0.202685, 17: 0.304372, 18: 0.098612, 36: 0.394331}, {15: 9, 18: 4, 36: 8}, {15: -12.941938, 18: -0.954733, 36: -11.280316}, 1.5, {15: -1.298670207901, 17: 2.092211594138, 18: -0.103114163671, 36: -1.108864223939}, 17),
    ({4: 0.517865, 6: 0.107429, 8: 0.277922, 27: 0.096784}, {4: 10, 8: 4, 27: 3}, {4: -8.582783, 8: 3.038352, 27: 0.678282}, 1.0, {4: -0.664168109563, 6: 0.442941114254, 8: 0.988768352337, 27: 0.325856663717}, 8),
    ({14: 0.320482, 25: 0.17567, 26: 0.211388, 34: 0.29246}, {25: 6, 26: 8, 34: 10}, {25: 0.330077, 26: -11.357285, 34: -11.876876}, 1.5, {14: 2.35505211524, 25: 0.239427917525, 26: -1.247063045751, 34: -0.992311844498}, 14),
    ({19: 0.300198, 21: 0.206435, 38: 0.493367}, {19: 10, 21: 11, 38: 2}, {19: 0.562517, 21: -15.430099, 38: 2.376698}, 0.25, {19: 0.088972132537, 21: -1.382110700217, 38: 1.385524417597}, 38),
    ({21: 0.537448, 39: 0.462552}, {39: 12}, {39: -12.495699}, 0.25, {21: 0.465443621213, 39: -1.010494266725}, 21),
    ({8: 0.209364, 17: 0.119338, 20: 0.267149, 36: 0.404149}, {17: 11, 20: 3, 36: 3}, {17: -0.054725, 20: 3.308105, 36: -0.150744}, 0.5, {8: 0.431614943101, 17: 0.015526799131, 20: 1.240387109764, 36: 0.158045626936}, 20),
    ({5: 0.190181, 17: 0.413428, 29: 0.12657, 32: 0.119967, 39: 0.149854}, {17: 5, 29: 5, 39: 1}, {17: 0.498843, 29: -5.356349, 39: 1.359129}, 0.5, {5: 0.315379509627, 17: 0.214034062819, 29: -1.036287700024, 32: 0.198942763112, 39: 1.483381372833}, 39),
    ({16: 0.124222, 34: 0.875778}, {34: 1}, {34: -0.710619}, 2.0, {16: 0.248444, 34: 0.165159}, 16),
    ({29: 0.547897, 30: 0.131401, 32: 0.320702}, {29: 12, 30: 10, 32: 11}, {29: -7.094127, 30: -6.120175, 32: -1.101087}, 1.0, {29: -0.349067354588, 30: -0.543395565789, 32: 0.053425575974}, 32),
    ({7: 0.148412, 17: 0.230989, 26: 0.301366, 31: 0.319233}, {26: 3, 31: 10}, {26: -1.09643, 31: -3.19839}, 1.0, {7: 0.535107075894, 17: 0.832842683568, 26: -0.093829025246, 31: -0.21520164088}, 17),
    ({13: 0.36118, 20: 0.63882}, {13: 4, 20: 10}, {13: -1.058836, 20: 0.840114}, 0.25, {13: -0.197138409252, 20: 0.138335162996}, 20),
    ({16: 0.51807, 25: 0.05507, 39: 0.42686}, {16: 8, 39: 3}, {16: -11.429406, 39: 1.776959}, 0.25, {16: -1.380946755413, 25: 0.045661631801, 39: 0.680803070292}, 39),
    ({1: 0.352079, 14: 0.301701, 23: 0.34622}, {14: 9, 23: 12}, {14: -6.276662, 23: 0.496556}, 0.5, {1: 0.806714334052, 14: -0.628278505402, 23: 0.102401949632}, 1),
    ({5: 0.150709, 9: 0.116043, 27: 0.359585, 39: 0.373663}, {5: 3, 27: 4, 39: 5}, {5: 3.006715, 27: 5.771497, 39: 6.914072}, 0.25, {5: 1.034867788978, 9: 0.100496185931, 27: 1.505156198964, 39: 1.436748008409}, 27),
    ({24: 0.134168, 25: 0.115489, 34: 0.750343}, {24: 2, 25: 5, 34: 11}, {24: -0.501999, 25: 3.788508, 34: -5.326549}, 1.0, {24: -0.061257294764, 25: 0.839364655052, 34: -0.218945415515}, 25),
    ({1: 0.450407, 8: 0.247258, 18: 0.302335}, {1: 6, 18: 1}, {1: 8.718472, 18: -0.530424}, 2.0, {1: 1.793554355456, 8: 1.308366355342, 18: 0.269479222631}, 1),
    ({1: 0.106675, 8: 0.303921, 19: 0.266212, 26: 0.323192}, {1: 2, 8: 4}, {1: 0.614186, 8: 3.258165}, 1.0, {1: 0.39419277277, 8: 0.963431524423, 19: 0.652083563406, 26: 0.79165548895}, 8),
    ({10: 0.761075, 36: 0.238925}, {10: 4, 36: 5}, {10: -4.063309, 36: 0.283349}, 0.5, {10: -0.78750475, 36: 0.11640105}, 36),
    ({3: 0.328241, 8: 0.024475, 23: 0.190913, 39: 0.456371}, {3: 11, 8: 7, 23: 7, 39: 1}, {3: 15.433773, 8: -5.232032, 23: -0.744117, 39: 0.189107}, 1.0, {3: 1.542545878074, 8: -0.731833330033, 23: 0.015381210478, 39: 1.352629317219}, 3),
    ({4: 0.524945, 29: 0.282849, 37: 0.192206}, {4: 6, 29: 1, 37: 1}, {4: 4.456902, 29: -1.409099, 37: -1.028272}, 1.0, {4: 0.954926811, 29: -1.009090108096, 37: -0.756451668031}, 4),
]


def test_11_selection_matches_frozen_scores():
    for priors, visits, values, beta, expected_scores, expected_pick in (
        SELECTION_TABLE
    ):
        # the frozen scores themselves must satisfy the selection formula
        total = sum(visits.values())
        for a, prior in priors.items():
            n = visits.get(a, 0)
            q = values.get(a, 0.0) / n if n else 0.0
            score = q + beta * prior * math.sqrt(total) / (1 + n)
            assert abs(score - expected_scores[a]) < 1e-9, (a, score)
        node = SearchNode(prefix=None)
        node.priors = dict(priors)
        node.visits = dict(visits)
        node.values = dict(values)
        node.expanded = True
        assert select_child(node, beta) == expected_pick
