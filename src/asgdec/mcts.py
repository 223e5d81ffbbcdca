"""Token-level tree search over the constraint-masked generation space.

PUCB selection over Q(s,a) + beta * prior * sqrt(sum_b N(s,b)) / (1 + N(s,a)),
expansion restricted to the valid-token set, greedy constrained rollouts,
and mean-value backpropagation.  Expansions and rollouts are computed once
per node and reused, including across searches that share the tree.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import align, earley
from .align import EOS_ID, AlignCursor
from .decoding import COMPLETED, DEAD_END, MAX_LENGTH, DecodeResult, masked_logprobs
from .policy import PolicyContext


@dataclass
class Reward:
    """Distance-based reward: 1 on a complete zero-distance word, minus the
    distance otherwise (including truncated and dead-end sequences)."""

    rho: object  # callable: terminal tuple -> float

    def of(self, terminals, completed):
        d = abs(self.rho(tuple(terminals)))
        if completed and d == 0:
            return 1.0
        return -d


@dataclass(frozen=True)
class SearchConfig:
    budget: int = 50
    beta: float = 1.0
    max_tokens: int = 256  # EOS included, as in decoding.generate
    seed: int = 0

    def __post_init__(self):
        if self.budget < 1 or self.max_tokens < 1:
            raise ValueError("budget and max_tokens must be >= 1")


@dataclass
class SearchStats:
    """Counters of one ``search`` call."""

    rollouts: int = 0
    policy_calls: int = 0
    cache_hits: int = 0  # logic memo hits during this search
    max_branching: int = 0
    simulations: int = 0
    constraint_seconds: float = 0.0  # in the parser and the token mask


def _timed(stats, fn, *args):
    """fn(*args), with its wall time added to the search's constraint time."""
    t0 = time.perf_counter()
    try:
        return fn(*args)
    finally:
        stats.constraint_seconds += time.perf_counter() - t0


class SearchNode:
    __slots__ = (
        "state",
        "cursor",
        "terminals",
        "ids",
        "priors",
        "visits",
        "values",
        "children",
        "expanded",
        "terminal_reward",
        "rollout",
        "exhausted",
        "exact_value",
    )

    def __init__(self, state, cursor, terminals, ids):
        self.state = state
        self.cursor = cursor
        self.terminals = terminals  # emitted terminal tuple
        self.ids = ids  # generated token ids, EOS included
        self.priors = None  # token id -> prior prob
        self.visits = {}
        self.values = {}
        self.children = {}
        self.expanded = False
        self.terminal_reward = None  # set for EOS / dead-end nodes
        self.rollout = None  # cached (reward, DecodeResult)
        self.exhausted = False  # subtree fully evaluated; skip in selection
        self.exact_value = None  # best reward in an exhausted subtree

    def q(self, a):
        n = self.visits.get(a, 0)
        return self.values.get(a, 0.0) / n if n else 0.0


def select_child(node, beta):
    """PUCB argmax; ties broken by lowest token id.

    Actions leading into exhausted subtrees are skipped, since their value
    is already exact and revisiting them cannot improve the search.
    Returns None when every action is exhausted.
    """
    total = sum(node.visits.values())
    sqrt_total = math.sqrt(total)
    best, best_score = None, None
    for a in sorted(node.priors):
        child = node.children.get(a)
        if child is not None and child.exhausted:
            continue
        u = beta * node.priors[a] * sqrt_total / (1 + node.visits.get(a, 0))
        score = node.q(a) + u
        if best_score is None or score > best_score:
            best, best_score = a, score
    return best


def backpropagate(path, reward):
    """path: list of (node, action) pairs from root to the simulated node."""
    for node, action in path:
        node.visits[action] = node.visits.get(action, 0) + 1
        node.values[action] = node.values.get(action, 0.0) + reward


class SearchTree:
    """Reusable tree rooted at a fixed prompt + grammar."""

    def __init__(self, grammar, token_map, prompt_ids, session=None):
        self.grammar = grammar
        self.token_map = token_map
        self.prompt_ids = tuple(prompt_ids)
        self.session = session or earley.Session()
        # tokens that spell a whole terminal on their own -> that terminal
        self.singles = {enc[0]: t for t, enc in token_map.canonical.items() if len(enc) == 1}
        state = earley.init(grammar, self.session)
        self.root = SearchNode(state, AlignCursor(), (), ())


def search(tree, policy, reward, cfg):
    """Run PUCB MCTS; returns (best DecodeResult, SearchStats).  The
    result's ``constraint_seconds`` is this search's time in the parser and
    the token mask.

    Stops at the first reward-1 rollout (the reward's global maximum) or
    at budget exhaustion.  ``policy`` should expose a ``calls`` counter
    (CountingPolicy) for the policy-call statistic; otherwise that field
    stays zero.
    """
    stats = SearchStats()
    calls_before = getattr(policy, "calls", 0)
    hits_before = tree.session.eval_cache_hits
    best = None  # (reward, DecodeResult)
    rng = np.random.default_rng(cfg.seed)

    # the budget counts sampled full generations (rollouts); simulations
    # that only revisit terminal nodes are capped separately so a
    # saturated tree cannot spin forever
    while stats.rollouts < cfg.budget and stats.simulations < cfg.budget * 64:
        if tree.root.exhausted:
            break
        stats.simulations += 1
        value, result = _simulate(tree, policy, reward, cfg, stats, rng)
        if result is not None and (best is None or value > best[0]):
            best = (value, result)
        if best is not None and best[0] >= 1.0:
            break

    stats.policy_calls = getattr(policy, "calls", 0) - calls_before
    stats.cache_hits = tree.session.eval_cache_hits - hits_before
    if best is None:
        return None, stats
    return replace(best[1], constraint_seconds=stats.constraint_seconds), stats


def _simulate(tree, policy, reward, cfg, stats, rng):
    node = tree.root
    path = []
    while True:
        if node.terminal_reward is not None:
            backpropagate(path, node.terminal_reward)
            _, cached = node.rollout or (None, None)
            return node.terminal_reward, cached
        if not node.expanded:
            _expand(tree, node, policy, stats)
            value, result = _rollout(tree, node, policy, reward, cfg, stats, rng)
            backpropagate(path, value)
            return value, result
        a = select_child(node, cfg.beta)
        if a is None:
            # every action runs into an exhausted subtree; fold the exact
            # values upward so ancestors skip this node too
            node.exhausted = True
            node.exact_value = max(
                c.exact_value for c in node.children.values()
            )
            backpropagate(path, node.exact_value)
            return node.exact_value, None
        path.append((node, a))
        child = node.children.get(a)
        if child is None:
            child = _make_child(tree, node, a, reward, cfg, stats)
            node.children[a] = child
        node = child


def _expand(tree, node, policy, stats):
    valid = _timed(stats, align.valid_tokens, node.state, tree.token_map, node.cursor)
    stats.max_branching = max(
        stats.max_branching, len(_timed(stats, earley.valid_terminals, node.state))
    )
    if not valid:
        # dead end; _rollout scores it via the distance function
        node.expanded = True
        node.priors = {}
        return
    ctx = PolicyContext(tree.prompt_ids, node.ids)
    dist = policy.next_distribution(ctx)
    ids, lp = masked_logprobs(dist, valid)
    node.priors = {i: math.exp(x) for i, x in zip(ids, lp)}
    node.expanded = True


def _make_child(tree, node, action, reward, cfg, stats):
    ids = node.ids + (action,)
    if action == EOS_ID:
        child = SearchNode(node.state, node.cursor, node.terminals, ids)
        return _leaf(child, reward, COMPLETED)
    state, cursor, emitted = _timed(
        stats, align.apply_token, node.state, tree.token_map, node.cursor, action
    )
    terminals = node.terminals + (emitted,) if emitted else node.terminals
    # collapse forced moves: while exactly one token is admissible, take it,
    # so tree depth counts decision points rather than raw tokens
    while len(ids) < cfg.max_tokens:
        forced = _timed(stats, align.valid_tokens, state, tree.token_map, cursor)
        if len(forced) != 1:
            break
        tok = next(iter(forced))
        ids += (tok,)
        if tok == EOS_ID:
            child = SearchNode(state, cursor, terminals, ids)
            return _leaf(child, reward, COMPLETED)
        state, cursor, emitted = _timed(
            stats, align.apply_token, state, tree.token_map, cursor, tok
        )
        if emitted is not None:
            terminals = terminals + (emitted,)
    child = SearchNode(state, cursor, terminals, ids)
    if len(ids) >= cfg.max_tokens:
        _leaf(child, reward, MAX_LENGTH)
    return child


def _leaf(node, reward, outcome):
    """Close ``node`` as a leaf whose word ends there (at EOS, a dead end
    or the depth cap), so that its value is exact."""
    value = reward.of(node.terminals, outcome == COMPLETED)
    node.terminal_reward = node.exact_value = value
    text = "".join(node.terminals)
    result = DecodeResult(node.ids, text, node.terminals, outcome, len(node.ids))
    node.rollout = (value, result)
    node.expanded = node.exhausted = True
    node.priors = {}
    return node


def _argmax_pool(ids, weights):
    """Token ids tied (within float tolerance) for the highest weight."""
    top = max(weights) - 1e-12
    return [i for i, w in zip(ids, weights) if w >= top]


def _distance_ties(pool, cursor, terminals, rho, singles, rng):
    """Break policy ties by the task distance of the word each token leads
    to, so a flat policy descends the distance function instead of walking
    blindly.  Tokens whose effect on the word is not immediate (mid-terminal
    subwords) score as the unchanged word; remaining ties stay random."""
    if len(pool) == 1:
        return pool[0]
    here = None
    scored = []
    for tok in pool:
        if tok == EOS_ID:
            cost = abs(rho(tuple(terminals)))
        elif cursor.at_boundary and tok in singles:
            cost = abs(rho(tuple(terminals) + (singles[tok],)))
        else:
            if here is None:
                here = abs(rho(tuple(terminals)))
            cost = here
        scored.append((cost, tok))
    best = min(c for c, _ in scored)
    finalists = [t for c, t in scored if c <= best + 1e-9]
    if len(finalists) == 1:
        return finalists[0]
    return finalists[rng.integers(len(finalists))]


def _rollout(tree, node, policy, reward, cfg, stats, rng):
    """Greedy constrained continuation, computed once per node."""
    if node.rollout is not None:
        return node.rollout
    if not node.priors:  # dead end discovered at expansion
        return _leaf(node, reward, DEAD_END).rollout
    stats.rollouts += 1
    state, cursor, terminals = node.state, node.cursor, list(node.terminals)
    ids = list(node.ids)
    outcome = MAX_LENGTH
    prior_step = True
    best_stop = None  # (value, ids, terminals) at a completable point
    # choice points for bounded backtracking: instead of scoring a dead-end
    # continuation, back up to the last step with untried tokens and take a
    # different branch.  hop cap bounds the total work per rollout.
    frames = []
    pending = None
    hops = 0
    while len(ids) < cfg.max_tokens:
        hops += 1
        if hops > cfg.max_tokens * 8:
            break
        if pending is not None:
            valid, pending = pending, None
        elif prior_step:
            valid = set(node.priors)
        else:
            valid = _timed(stats, align.valid_tokens, state, tree.token_map, cursor)
            if not valid:
                if frames:
                    state, cursor, n_t, n_i, rest = frames.pop()
                    del terminals[n_t:]
                    del ids[n_i:]
                    pending = rest
                    continue
                outcome = DEAD_END
                break
        # optimal stopping: remember the best point where the word could
        # have been completed, and stop outright at a maximal-reward word
        if EOS_ID in valid:
            cand = reward.of(terminals, True)
            if best_stop is None or cand > best_stop[0]:
                best_stop = (cand, ids + [EOS_ID], tuple(terminals))
            if cand >= 1.0:
                ids.append(EOS_ID)
                outcome = COMPLETED
                break
        if prior_step:
            order = sorted(valid)
            pool = _argmax_pool(order, [node.priors[a] for a in order])
        else:
            # the argmax of the renormalised distribution is the argmax of
            # the raw log-probabilities over the valid ids
            ctx = PolicyContext(tree.prompt_ids, tuple(ids))
            logprobs = policy.next_distribution(ctx).logprobs
            order = sorted(valid)
            pool = _argmax_pool(order, [float(logprobs[a]) for a in order])
        tok = _distance_ties(pool, cursor, terminals, reward.rho, tree.singles, rng)
        rest = set(valid)
        rest.discard(tok)
        if rest:
            frames.append((state, cursor, len(terminals), len(ids), rest))
        prior_step = False
        ids.append(tok)
        if tok == EOS_ID:
            outcome = COMPLETED
            break
        state, cursor, emitted = _timed(
            stats, align.apply_token, state, tree.token_map, cursor, tok
        )
        if emitted is not None:
            terminals.append(emitted)
    value = reward.of(terminals, outcome == COMPLETED)
    if best_stop is not None and best_stop[0] > value:
        value, ids, stop_terminals = best_stop
        terminals = list(stop_terminals)
        outcome = COMPLETED
    result = DecodeResult(
        token_ids=tuple(ids),
        text="".join(terminals),
        terminals=tuple(terminals),
        outcome=outcome,
        tokens_generated=len(ids),
        reward=value,
    )
    node.rollout = (value, result)
    return node.rollout
