"""Token-level tree search over the constraint-masked generation space.

PUCB selection over Q(s,a) + beta * prior * sqrt(sum_b N(s,b)) / (1 + N(s,a)),
expansion restricted to the valid-token set, greedy constrained rollouts,
and mean-value backpropagation.  Every node holds a ``decoding.Prefix``,
the constrained step that sampling takes too: expansion, forced moves and
rollouts mask and advance through it, so a node's mask is computed once.
Expansions and rollouts are computed once per node and reused, including
across searches that share the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import earley
from .align import EOS_ID
from .decoding import COMPLETED, DEAD_END, MAX_LENGTH, Prefix, masked_logprobs
from .policy import PolicyContext
from .tasks.base import Distance, WordDistance


@dataclass
class Reward:
    """Distance-based reward: 1 on a complete zero-distance word, minus the
    distance otherwise (including truncated and dead-end sequences).

    ``rho`` is a ``tasks.base.Distance``, whose fold a rollout carries
    step by step, or any callable of the terminal tuple, folded with the
    word as its state."""

    rho: object

    def __post_init__(self):
        rho = self.rho
        self.distance = rho if isinstance(rho, Distance) else WordDistance(rho)

    def value(self, state, completed):
        """The reward of a word whose distance fold stands at ``state``."""
        d = abs(self.distance.value(state))
        if completed and d == 0:
            return 1.0
        return -d

    def of(self, terminals, completed):
        return self.value(self.distance.over(terminals), completed)


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
    policy_calls: int = 0  # next_distribution calls made by this search
    forced_steps: int = 0  # rollout steps taken without the policy: one id was valid
    cache_hits: int = 0  # logic memo hits during this search
    max_branching: int = 0
    simulations: int = 0
    constraint_seconds: float = 0.0  # in the parser and the token mask


class SearchNode:
    """A decision point, expanded once ``priors`` is set.  A leaf (EOS, a
    dead end or the depth cap) is exhausted with its word in ``rollout``."""

    __slots__ = (
        "prefix",
        "priors",
        "visits",
        "values",
        "children",
        "rollout",
        "exhausted",
        "exact_value",
    )

    def __init__(self, prefix):
        self.prefix = prefix  # the decoding.Prefix this node stands at
        self.priors = None  # token id -> prior prob; None until expanded
        self.visits = {}
        self.values = {}
        self.children = {}
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
        self.prompt_ids = tuple(prompt_ids)
        self.session = session or earley.Session()
        # tokens that spell a whole terminal on their own -> that terminal
        self.singles = {enc[0]: t for t, enc in token_map.canonical.items() if len(enc) == 1}
        self.root = SearchNode(Prefix.start(grammar, token_map, self.session))


def search(tree, policy, reward, cfg):
    """Run PUCB MCTS; returns (best DecodeResult, SearchStats).  The
    result's ``constraint_seconds`` is this search's time in the parser and
    the token mask.

    Stops at the first reward-1 rollout (the reward's global maximum) or
    at budget exhaustion.  The stats count this search's own work: its
    policy calls, and its memo hits and constraint time as deltas of the
    tree's Session counters.
    """
    stats = SearchStats()
    session = tree.session
    hits_before, spent = session.eval_cache_hits, session.constraint_seconds
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

    stats.cache_hits = session.eval_cache_hits - hits_before
    stats.constraint_seconds = session.constraint_seconds - spent
    if best is None:
        return None, stats
    return replace(best[1], constraint_seconds=stats.constraint_seconds), stats


def _simulate(tree, policy, reward, cfg, stats, rng):
    node = tree.root
    path = []
    while True:
        if node.exhausted:  # a leaf: selection skips other exhausted nodes
            backpropagate(path, node.exact_value)
            return node.rollout
        if node.priors is None:
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
            child = _make_child(node, a, reward, cfg)
            node.children[a] = child
        node = child


def _expand(tree, node, policy, stats):
    valid = node.prefix.mask()  # which leaves the state's terminal set cached
    branching = len(earley.valid_terminals(node.prefix.state))
    stats.max_branching = max(stats.max_branching, branching)
    if not valid:
        node.priors = {}  # a dead end; _rollout scores it by the distance
        return
    stats.policy_calls += 1
    dist = policy.next_distribution(PolicyContext(tree.prompt_ids, node.prefix.ids))
    ids, lp = masked_logprobs(dist, valid)
    node.priors = {i: math.exp(x) for i, x in zip(ids, lp)}


def _make_child(node, action, reward, cfg):
    prefix = node.prefix.push(action)
    # collapse forced moves: while exactly one token is admissible, take it,
    # so tree depth counts decision points rather than raw tokens
    while prefix.ids[-1] != EOS_ID and len(prefix.ids) < cfg.max_tokens:
        forced = prefix.mask()
        if len(forced) != 1:
            break
        prefix = prefix.push(next(iter(forced)))
    child = SearchNode(prefix)
    if prefix.ids[-1] == EOS_ID:
        return _leaf(child, reward, COMPLETED)
    if len(prefix.ids) >= cfg.max_tokens:
        _leaf(child, reward, MAX_LENGTH)
    return child


def _leaf(node, reward, outcome):
    """Close ``node`` as a leaf whose word ends there (at EOS, a dead end
    or the depth cap), so that its value is exact."""
    value = reward.of(node.prefix.terminals, outcome == COMPLETED)
    node.exact_value = value
    node.rollout = (value, node.prefix.result(outcome, reward=value))
    node.exhausted = True
    node.priors = {}
    return node


def _distance_ties(pool, prefix, fold, distance, singles, rng):
    """Break policy ties by the task distance of the word each token leads
    to, so a flat policy descends the distance function instead of walking
    blindly.  ``fold`` is the distance's state at ``prefix``.  Tokens whose
    effect on the word is not immediate (EOS, mid-terminal subwords) score
    as the unchanged word; remaining ties stay random."""
    if len(pool) == 1:
        return pool[0]
    here = None
    scored = []
    for tok in pool:
        if tok != EOS_ID and prefix.cursor.at_boundary and tok in singles:
            cost = abs(distance.value(distance.step(fold, singles[tok])))
        else:
            if here is None:
                here = abs(distance.value(fold))
            cost = here
        scored.append((cost, tok))
    best = min(c for c, _ in scored)
    finalists = [t for c, t in scored if c <= best + 1e-9]
    if len(finalists) == 1:
        return finalists[0]
    return finalists[rng.integers(len(finalists))]


def _rollout(tree, node, policy, reward, cfg, stats, rng):
    """Greedy constrained continuation, computed once per node.  A step
    whose mask holds one id takes it without the policy; the distance's
    fold advances with every terminal the walk emits."""
    if node.rollout is not None:
        return node.rollout
    if not node.priors:  # dead end discovered at expansion
        return _leaf(node, reward, DEAD_END).rollout
    stats.rollouts += 1
    distance = reward.distance
    prefix = node.prefix
    fold = distance.over(prefix.terminals)
    outcome = MAX_LENGTH
    prior_step = True
    best_stop = None  # (value, prefix) at a completable point
    # choice points for bounded backtracking: instead of scoring a dead-end
    # continuation, resume at the last step with untried tokens, from those
    # alone.  The hop cap bounds the total work per rollout.
    frames = []  # (prefix, fold, untried ids)
    pending = None
    hops = 0
    while len(prefix.ids) < cfg.max_tokens and hops < cfg.max_tokens * 8:
        hops += 1
        valid, pending = pending or prefix.mask(), None
        if not valid:
            if frames:
                prefix, fold, pending = frames.pop()
                continue
            outcome = DEAD_END
            break
        # optimal stopping: remember the best point where the word could
        # have been completed, and stop outright at a maximal-reward word
        if EOS_ID in valid:
            cand = reward.value(fold, True)
            if best_stop is None or cand > best_stop[0]:
                best_stop = (cand, prefix)
            if cand >= 1.0:
                break  # best_stop outscores any word without EOS
        if len(valid) == 1:
            stats.forced_steps += 1
            (tok,) = valid
        else:
            if prior_step:
                weights = node.priors
            else:
                # the argmax of the renormalised distribution is the argmax
                # of the raw log-probabilities over the valid ids
                stats.policy_calls += 1
                ctx = PolicyContext(tree.prompt_ids, prefix.ids)
                weights = policy.next_distribution(ctx).logprobs
            # the ids tied (within float tolerance) for the highest weight
            order = sorted(valid)
            scores = [float(weights[a]) for a in order]
            top = max(scores) - 1e-12
            pool = [a for a, w in zip(order, scores) if w >= top]
            tok = _distance_ties(pool, prefix, fold, distance, tree.singles, rng)
            frames.append((prefix, fold, valid - {tok}))
        prior_step = False
        before = len(prefix.terminals)
        prefix = prefix.push(tok)
        if len(prefix.terminals) > before:
            fold = distance.step(fold, prefix.terminals[-1])
        if tok == EOS_ID:
            outcome = COMPLETED
            break
    value = reward.value(fold, outcome == COMPLETED)
    if best_stop is not None and best_stop[0] > value:
        value, prefix = best_stop[0], best_stop[1].push(EOS_ID)
        outcome = COMPLETED
    node.rollout = (value, prefix.result(outcome, reward=value))
    return node.rollout
