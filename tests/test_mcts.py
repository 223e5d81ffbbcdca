"""Tree search: selection scores, caching, pruning, and small end-to-end runs."""

import math

import numpy as np
import pytest

import asgdec.mcts as mcts_mod
from asgdec import align
from asgdec import (
    EOS_ID,
    Reward,
    SearchConfig,
    SearchTree,
    Session,
    SubwordTokenizer,
    TerminalTokenizer,
    UniformPolicy,
    build_map,
    extend,
    parse_grammar,
    search,
)
from asgdec.decoding import COMPLETED, DEAD_END, Prefix
from asgdec.mcts import SearchNode, backpropagate, select_child
from asgdec.tasks.base import WordDistance

from conftest import CountingPolicy, anbncn_member, copy_member


def make_node(priors, visits=None, values=None):
    node = SearchNode(prefix=None)
    node.priors = dict(priors)
    node.visits = dict(visits or {})
    node.values = dict(values or {})
    return node


def pucb_by_hand(node, beta):
    total = sum(node.visits.values())
    scores = {}
    for a, prior in node.priors.items():
        n = node.visits.get(a, 0)
        q = node.values.get(a, 0.0) / n if n else 0.0
        scores[a] = q + beta * prior * math.sqrt(total) / (1 + n)
    return scores


def test_select_child_matches_hand_formula():
    node = make_node(
        priors={1: 0.6, 2: 0.3, 3: 0.1},
        visits={1: 4, 2: 1},
        values={1: 2.0, 2: 0.9},
    )
    scores = pucb_by_hand(node, beta=1.5)
    assert select_child(node, 1.5) == max(sorted(scores), key=scores.get)


def test_select_child_unvisited_q_is_zero():
    node = make_node(priors={1: 0.5, 2: 0.5}, visits={1: 3}, values={1: 3.0})
    # visited arm has q=1 but shrinking bonus; fresh arm gets full bonus
    scores = pucb_by_hand(node, beta=2.0)
    assert select_child(node, 2.0) == max(sorted(scores), key=scores.get)


def test_select_child_ties_break_to_lowest_id():
    node = make_node(priors={4: 0.5, 2: 0.5})
    assert select_child(node, 1.0) == 2


def test_select_child_skips_exhausted_subtrees():
    node = make_node(priors={1: 0.9, 2: 0.1})
    done = SearchNode(None)
    done.exhausted = True
    done.exact_value = 1.0
    node.children[1] = done
    assert select_child(node, 1.0) == 2
    other = SearchNode(None)
    other.exhausted = True
    other.exact_value = -1.0
    node.children[2] = other
    assert select_child(node, 1.0) is None


def test_backpropagate_accumulates_along_path():
    a = make_node(priors={1: 1.0})
    b = make_node(priors={2: 1.0})
    backpropagate([(a, 1), (b, 2)], 0.5)
    backpropagate([(a, 1)], -1.0)
    assert a.visits[1] == 2 and a.values[1] == pytest.approx(-0.5)
    assert b.visits[2] == 1 and b.values[2] == pytest.approx(0.5)


def test_reward_shape():
    r = Reward(rho=lambda w: len(w) - 2)
    assert r.of(("x", "x"), completed=True) == 1.0
    assert r.of(("x", "x"), completed=False) == 0.0
    assert r.of(("x",), completed=True) == -1.0
    assert r.of(("x", "x", "x"), completed=True) == -1.0


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(budget=0)
    with pytest.raises(ValueError):
        SearchConfig(max_tokens=0)


# ---------------------------------------------------------------------------
# end-to-end on tiny grammars


def build_tree(source, session=None):
    g = parse_grammar(source)
    tok = TerminalTokenizer(g.terminals)
    tmap = build_map(g.terminals, tok)
    return SearchTree(g, tmap, (), session), tmap


def test_forced_chains_are_collapsed():
    tree, tmap = build_tree('s -> "a" "b" "c" {}')
    policy = CountingPolicy(UniformPolicy(tmap.vocab_size))
    reward = Reward(rho=lambda w: 0 if w == ("a", "b", "c") else 1)
    result, stats = search(tree, policy, reward, SearchConfig(budget=4))
    assert result.terminals == ("a", "b", "c")
    assert result.outcome == COMPLETED and result.reward == 1.0
    # the single admissible line is one collapsed child of the root
    assert len(tree.root.children) <= 1


def test_finite_language_exhausts_and_returns_best():
    tree, tmap = build_tree('s -> "aa" {} | "b" {}')
    policy = CountingPolicy(UniformPolicy(tmap.vocab_size))
    # no word reaches distance 0, so the search can only exhaust the space
    dist = {("aa",): 1.0, ("b",): 0.5}
    reward = Reward(rho=lambda w: dist.get(w, 2.0))
    result, stats = search(tree, policy, reward, SearchConfig(budget=50))
    assert tree.root.exhausted
    assert result.terminals == ("b",)
    assert stats.simulations < 50 * 64


def test_early_stop_on_perfect_rollout():
    tree, tmap = build_tree('s -> s "a" {} | "a" {}')
    policy = CountingPolicy(UniformPolicy(tmap.vocab_size))
    reward = Reward(rho=lambda w: abs(len(w) - 3))
    result, stats = search(
        tree, policy, reward, SearchConfig(budget=200, max_tokens=16)
    )
    assert result.reward == 1.0 and len(result.terminals) == 3
    assert stats.rollouts < 200


def test_search_solves_equal_counts(anbncn_grammar):
    tok = TerminalTokenizer(anbncn_grammar.terminals)
    tmap = build_map(anbncn_grammar.terminals, tok)
    from asgdec.tasks.sgs import anbncn_check, anbncn_rho

    for seed in range(5):
        tree = SearchTree(anbncn_grammar, tmap, ())
        policy = CountingPolicy(UniformPolicy(tmap.vocab_size))
        reward = Reward(rho=anbncn_rho(4))
        cfg = SearchConfig(budget=50, max_tokens=20, seed=seed)
        result, _ = search(tree, policy, reward, cfg)
        assert result.outcome == COMPLETED
        assert anbncn_check(4, result.terminals)
        assert anbncn_member(result.terminals)


def test_search_solves_copy(copy_grammar):
    tok = TerminalTokenizer(copy_grammar.terminals)
    tmap = build_map(copy_grammar.terminals, tok)
    from asgdec.tasks.sgs import copy_check, copy_rho

    params = {"kind": "count_b", "target": 2}
    for seed in range(5):
        tree = SearchTree(copy_grammar, tmap, ())
        policy = CountingPolicy(UniformPolicy(tmap.vocab_size))
        reward = Reward(rho=copy_rho(params))
        cfg = SearchConfig(budget=50, max_tokens=24, seed=seed)
        result, _ = search(tree, policy, reward, cfg)
        assert result.outcome == COMPLETED
        assert copy_check(params, result.terminals)
        assert copy_member(result.terminals)


@pytest.mark.parametrize("grammar", ["anbncn_grammar", "copy_grammar"])
def test_search_stays_within_max_tokens(grammar, request):
    # EOS counts against the cap, as in decoding.generate
    g = request.getfixturevalue(grammar)
    tmap = build_map(g.terminals, TerminalTokenizer(g.terminals))
    for cap in range(1, 9):
        for seed in range(4):
            tree = SearchTree(g, tmap, ())
            policy = CountingPolicy(UniformPolicy(tmap.vocab_size))
            reward = Reward(rho=lambda w: abs(len(w) - 6))
            result, _ = search(tree, policy, reward, SearchConfig(budget=30, max_tokens=cap, seed=seed))
            assert result.tokens_generated <= cap and len(result.token_ids) <= cap


def test_result_ids_are_the_generated_tokens():
    # "ab" has two spellings; the ids and the token count are the ones
    # generated, not the canonical spelling of the terminals
    g = parse_grammar('s -> "ab" t {}\nt -> "ab" t {} | "b" {}')
    tok = SubwordTokenizer(["a", "b", "ab"])
    tmap = build_map(g.terminals, tok)
    reward = Reward(rho=lambda w: abs(len(w) - 4))
    for seed in range(20):
        tree = SearchTree(g, tmap, ())
        cfg = SearchConfig(budget=30, max_tokens=12, seed=seed)
        result, _ = search(tree, UniformPolicy(tmap.vocab_size), reward, cfg)
        assert len(result.token_ids) == result.tokens_generated
        assert tok.decode(result.token_ids) == result.text


def test_result_closed_at_an_eos_leaf_lists_eos(anbncn_grammar):
    tmap = build_map(anbncn_grammar.terminals, TerminalTokenizer(anbncn_grammar.terminals))
    tree = SearchTree(anbncn_grammar, tmap, ())
    reward = Reward(rho=lambda w: abs(len(w) - 6))
    cfg = SearchConfig(budget=30, max_tokens=7, seed=2)
    result, _ = search(tree, UniformPolicy(tmap.vocab_size), reward, cfg)
    assert result.token_ids == (1, 1, 2, 2, 3, 3, EOS_ID)
    assert result.tokens_generated == 7


# ---------------------------------------------------------------------------
# warm-tree reuse


def test_resume_never_reexpands_or_reevaluates(anbncn_grammar, monkeypatch):
    tok = TerminalTokenizer(anbncn_grammar.terminals)
    tmap = build_map(anbncn_grammar.terminals, tok)
    from asgdec.tasks.sgs import anbncn_rho

    session = Session()
    tree = SearchTree(anbncn_grammar, tmap, (), session)
    policy = CountingPolicy(UniformPolicy(tmap.vocab_size))
    reward = Reward(rho=anbncn_rho(5))

    expansions = []
    orig_expand = mcts_mod._expand

    def record_expand(tree_, node, policy_, stats_):
        expansions.append(id(node))
        return orig_expand(tree_, node, policy_, stats_)

    monkeypatch.setattr(mcts_mod, "_expand", record_expand)

    cfg = SearchConfig(budget=8, max_tokens=24, seed=0)
    r1, _ = search(tree, policy, reward, cfg)
    first = list(expansions)
    assert len(first) == len(set(first))  # no node expanded twice

    evals_before = session.node_evals
    # replaying an already-seen word through the shared parser state costs
    # zero fresh node evaluations
    state = tree.root.prefix.state
    for t in r1.terminals:
        state = extend(state, t)
    assert session.node_evals == evals_before

    expansions.clear()
    r2, _ = search(tree, policy, reward, SearchConfig(budget=16, max_tokens=24, seed=1))
    assert r2 is not None
    # the resumed search expands only nodes the first search never touched
    assert not (set(expansions) & set(first))
    assert len(expansions) == len(set(expansions))


def test_rollouts_cached_per_node():
    tree, tmap = build_tree('s -> s "a" {} | "a" {}')
    policy = CountingPolicy(UniformPolicy(tmap.vocab_size))
    reward = Reward(rho=lambda w: abs(len(w) - 30) / 30)  # unreachable target
    cfg = SearchConfig(budget=12, max_tokens=8, seed=0)
    search(tree, policy, reward, cfg)

    def walk(node):
        yield node
        for c in node.children.values():
            yield from walk(c)

    with_rollout = [n for n in walk(tree.root) if n.rollout is not None]
    assert with_rollout
    # re-running the search reuses every cached rollout object
    before = {id(n): n.rollout for n in with_rollout}
    search(tree, policy, reward, SearchConfig(budget=12, max_tokens=8, seed=3))
    for n in walk(tree.root):
        if id(n) in before:
            assert n.rollout is before[id(n)]


def test_search_reports_its_own_constraint_time_and_cache_hits(anbncn_grammar):
    tok = TerminalTokenizer(anbncn_grammar.terminals)
    tmap = build_map(anbncn_grammar.terminals, tok)
    from asgdec.tasks.sgs import anbncn_rho

    session = Session()
    tree = SearchTree(anbncn_grammar, tmap, (), session)
    policy = CountingPolicy(UniformPolicy(tmap.vocab_size))
    reward = Reward(rho=anbncn_rho(4))
    for seed in range(2):  # the second search reuses the warm tree and session
        hits_before = session.eval_cache_hits
        result, stats = search(
            tree, policy, reward, SearchConfig(budget=10, max_tokens=20, seed=seed)
        )
        assert result.constraint_seconds > 0
        assert result.constraint_seconds == stats.constraint_seconds
        assert stats.cache_hits == session.eval_cache_hits - hits_before


def test_search_counts_its_own_policy_calls(anbncn_grammar):
    # a bare policy has no call counter; the search counts its own calls
    tmap = build_map(anbncn_grammar.terminals, TerminalTokenizer(anbncn_grammar.terminals))
    from asgdec.tasks.sgs import anbncn_rho

    cfg = SearchConfig(budget=10, max_tokens=20, seed=0)
    bare = UniformPolicy(tmap.vocab_size)
    counting = CountingPolicy(UniformPolicy(tmap.vocab_size))
    _, bare_stats = search(SearchTree(anbncn_grammar, tmap, ()), bare, Reward(anbncn_rho(4)), cfg)
    _, stats = search(SearchTree(anbncn_grammar, tmap, ()), counting, Reward(anbncn_rho(4)), cfg)
    assert bare_stats.policy_calls == stats.policy_calls == counting.calls > 0


def test_rollouts_take_forced_steps_without_the_policy(anbncn_grammar):
    # after the a's, every b and c is forced; only steps with a choice
    # call the policy
    tmap = build_map(anbncn_grammar.terminals, TerminalTokenizer(anbncn_grammar.terminals))
    from asgdec.tasks.sgs import anbncn_rho

    counting = CountingPolicy(UniformPolicy(tmap.vocab_size))
    cfg = SearchConfig(budget=10, max_tokens=20, seed=0)
    _, stats = search(SearchTree(anbncn_grammar, tmap, ()), counting, Reward(anbncn_rho(4)), cfg)
    assert stats.forced_steps > 0
    assert stats.policy_calls == counting.calls


def test_results_found_at_a_leaf_carry_their_reward(anbncn_grammar):
    # a search whose best word closes at a leaf of the tree reports that
    # leaf's reward, as one found by a rollout does
    from asgdec.tasks import generate_instances, rho_for

    tmap = build_map(anbncn_grammar.terminals, TerminalTokenizer(anbncn_grammar.terminals))
    for inst in generate_instances("anbncn", 4):
        reward = Reward(rho_for(inst))
        for seed in range(5):
            tree = SearchTree(inst.grammar(), tmap, ())
            cfg = SearchConfig(budget=10, max_tokens=64, seed=seed)
            result, _ = search(tree, UniformPolicy(tmap.vocab_size), reward, cfg)
            completed = result.outcome == COMPLETED
            assert result.reward == reward.of(result.terminals, completed)


def test_a_new_child_is_masked_once(anbncn_grammar, monkeypatch):
    # the forced-move loop masks a new child's final prefix; its expansion
    # must reuse that mask rather than compute it again
    tmap = build_map(anbncn_grammar.terminals, TerminalTokenizer(anbncn_grammar.terminals))
    masked = []
    valid_tokens = align.valid_tokens

    def record(state, token_map, cursor):
        masked.append((state, cursor))
        return valid_tokens(state, token_map, cursor)

    monkeypatch.setattr(align, "valid_tokens", record)
    # without rollouts every mask is taken by _make_child or _expand, and no
    # two nodes share a parse state and cursor
    monkeypatch.setattr(mcts_mod, "_rollout", lambda *args: (0.0, None))
    tree = SearchTree(anbncn_grammar, tmap, ())
    _, stats = search(tree, UniformPolicy(tmap.vocab_size), Reward(rho=lambda w: 1.0),
                      SearchConfig(budget=1, max_tokens=12))
    assert stats.simulations > 8
    assert len(masked) == len(set(masked))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_child_with_an_empty_mask_closes_as_a_dead_end(seed):
    # "a" is valid while d is unrealised, but no d exports q, so after "a"
    # no terminal is valid: expansion finds the empty mask, the child's
    # rollout closes it as a dead-end leaf, and the rollout from the root
    # backtracks to "b"
    tree, tmap = build_tree('start -> "a" d { :- not q@2. } | "b" {}\nd -> "x" {} | "y" {}')
    result, stats = search(tree, UniformPolicy(tmap.vocab_size), Reward(rho=lambda w: 1),
                           SearchConfig(budget=4, seed=seed))
    child = tree.root.children[tmap.canonical["a"][0]]
    assert child.exhausted and child.priors == {}
    assert child.exact_value == -1 and child.rollout[1].outcome == DEAD_END
    assert stats.rollouts == 1  # the root's; the dead end counts none
    assert result.terminals == ("b",) and result.outcome == COMPLETED


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_rollout_that_dead_ends_with_no_frame_left(seed):
    tree, tmap = build_tree('start -> "a" d { :- not q@2. }\nd -> "x" {} | "y" {}')
    result, _ = search(tree, UniformPolicy(tmap.vocab_size), Reward(rho=lambda w: 1),
                       SearchConfig(budget=4, seed=seed))
    assert result.terminals == ("a",) and result.outcome == DEAD_END
    assert result.reward == -1


def test_distance_ties_score_a_token_by_the_terminal_it_completes():
    # after "c" only "ab" is valid; the token "a" continues it, so its
    # score is the word as it stands, although "a" alone is a terminal
    g = parse_grammar('s -> "c" "ab" {} | "a" {}')
    tok = SubwordTokenizer(["a", "b", "c"])
    tmap = build_map(g.terminals, tok)
    a, c = tok.encode("a")[0], tok.encode("c")[0]
    prefix = Prefix.start(g, tmap, Session()).push(c)
    assert prefix.mask() == {a: None}
    words = []
    distance = WordDistance(lambda w: words.append(w) or 0)
    # one token twice: a tie whose scores are compared
    mcts_mod._distance_ties([a, a], prefix.mask(), ("c",), distance, np.random.default_rng(0))
    assert set(words) == {("c",)}
