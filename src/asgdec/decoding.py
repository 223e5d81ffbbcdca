"""Sampling strategies over the constraint-masked next-token distribution.

The decoder restricts the policy's distribution to the currently valid
token set and renormalizes; greedy mode takes the argmax (ties to the
lowest token id), sample mode draws with temperature / top-k / top-p
applied after masking, and best_of_n ranks the completed samples by
reward.

The masked distribution is a handful of ids, so it is computed over plain
lists.  A draw reads one double from the generator and finds it in the
normalised cdf, ``cumsum(p) / cdf[-1]``, as ``Generator.choice(ids, p=p)``
does, so a seed draws the tokens that call would.  The math module's exp
may round a last bit unlike numpy's; that decides a top-p cut only where a
prefix's mass ties top_p exactly.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Optional

import numpy as np

from . import align, earley
from .align import EOS_ID, AlignCursor
from .grammar import LEVELS, project
from .policy import PolicyContext

MODES = ("greedy", "sample")

COMPLETED = "completed"
DEAD_END = "dead_end"
MAX_LENGTH = "max_length"


@dataclass(frozen=True)
class DecodeConfig:
    mode: str = "greedy"
    constraint: str = "sem"
    n: int = 1
    max_tokens: int = 256
    temperature: float = 1.0
    top_k: Optional[int] = None
    top_p: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.constraint not in LEVELS:
            raise ValueError(f"unknown constraint level {self.constraint!r}")
        if self.n < 1 or self.max_tokens < 1:
            raise ValueError("n and max_tokens must be >= 1")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k must be >= 1")


@dataclass(frozen=True)
class DecodeResult:
    token_ids: tuple
    text: str
    terminals: Optional[tuple]
    outcome: str
    tokens_generated: int
    reward: Optional[float] = None
    flagged: bool = False
    constraint_seconds: float = 0.0
    sample_index: int = 0


def masked_logprobs(dist, valid_ids, temperature=1.0):
    """Restrict to valid ids and renormalize; returns (ids, logp), two
    lists in ascending id order."""
    ids = sorted(valid_ids)
    t = max(temperature, 1e-9)
    return ids, _renormalized([x / t for x in dist.logprobs[ids].tolist()])


def _renormalized(lp):
    m = max(lp)
    c = m + math.log(sum([math.exp(x - m) for x in lp]))
    return [x - c for x in lp]


def _filter_topk_topp(ids, lp, top_k, top_p):
    ranked = sorted(zip(lp, ids), key=lambda e: (-e[0], e[1]))  # by prob desc, id asc for ties
    if top_k is not None and top_k < len(ranked):
        ranked = ranked[:top_k]
    if top_p < 1.0:
        cum = list(accumulate([math.exp(x) for x, _ in ranked]))
        ranked = ranked[:bisect_left(cum, top_p) + 1]
    return [i for _, i in ranked], _renormalized([x for x, _ in ranked])


def choose_token(dist, valid_ids, cfg, rng):
    """One draw from the masked distribution."""
    ids, lp = masked_logprobs(dist, valid_ids, 1.0 if cfg.mode == "greedy" else cfg.temperature)
    if cfg.mode == "greedy":
        return ids[lp.index(max(lp))]
    ids, lp = _filter_topk_topp(ids, lp, cfg.top_k, cfg.top_p)
    cdf = list(accumulate([math.exp(x) for x in lp]))
    return ids[bisect_right([c / cdf[-1] for c in cdf], rng.random())]


class Prefix:
    """One constrained step's position: the parse state, the alignment
    cursor, the emitted terminals and the generated ids (EOS included).
    Its time in the parser and the mask adds to ``Session.constraint_seconds``."""

    __slots__ = ("state", "cursor", "terminals", "ids", "token_map", "_mask")

    def __init__(self, state, cursor, terminals, ids, token_map):
        self.state = state
        self.cursor = cursor
        self.terminals = terminals
        self.ids = ids
        self.token_map = token_map
        self._mask = None

    @classmethod
    def start(cls, grammar, token_map, session):
        """The empty prefix of ``grammar``, parsed in ``session``."""
        t0 = time.perf_counter()
        state = earley.init(grammar, session)
        state.parser.session.constraint_seconds += time.perf_counter() - t0
        return cls(state, AlignCursor(), (), (), token_map)

    def mask(self):
        """``align.valid_tokens`` at this prefix, computed once; do not change it."""
        if self._mask is None:
            t0 = time.perf_counter()
            self._mask = align.valid_tokens(self.state, self.token_map, self.cursor)
            self.state.parser.session.constraint_seconds += time.perf_counter() - t0
        return self._mask

    def push(self, tok):
        """The prefix one token longer; EOS leaves the parse where it is."""
        ids = self.ids + (tok,)
        if tok == EOS_ID:
            return Prefix(self.state, self.cursor, self.terminals, ids, self.token_map)
        t0 = time.perf_counter()
        state, cursor, emitted = align.apply_token(
            self.state, self.token_map, self.cursor, tok, self._mask)
        state.parser.session.constraint_seconds += time.perf_counter() - t0
        terminals = self.terminals if emitted is None else self.terminals + (emitted,)
        return Prefix(state, cursor, terminals, ids, self.token_map)

    def result(self, outcome, **fields):
        """The DecodeResult of a word that ends here with ``outcome``."""
        text = "".join(self.terminals)
        return DecodeResult(self.ids, text, self.terminals, outcome, len(self.ids), **fields)


def generate(grammar, token_map, policy, prompt_ids, cfg, session=None, rng=None):
    """One full generation run, decoding ``project(grammar, cfg.constraint)``.

    A step whose mask admits one id takes it without asking the policy, so
    the policy is called only at steps with a choice.  Constraint level
    ``none`` masks nothing, and its ``text`` is the
    tokenizer's decoding of the ids, with ``terminals`` None where that
    text does not segment into terminals.  ``constraint_seconds`` is this
    run's time in the parser and the token mask.
    """
    rng = rng or np.random.default_rng(cfg.seed)
    prompt = tuple(prompt_ids)
    outcome = MAX_LENGTH

    if cfg.constraint == "none":
        ctx = PolicyContext(prompt)
        for _ in range(cfg.max_tokens):
            dist = policy.next_distribution(ctx)
            tok = choose_token(dist, range(policy.vocab_size), cfg, rng)
            ctx = ctx.append(tok)
            if tok == EOS_ID:
                outcome = COMPLETED
                break
        tokens = ctx.generated
        text = "".join([token_map.texts[t] for t in tokens])
        terminals, bad = align.segment(token_map.terminals(), text)
        if bad is not None:
            terminals = None
        return DecodeResult(tokens, text, terminals, outcome, len(tokens))

    session = session or earley.Session()
    spent = session.constraint_seconds
    prefix = Prefix.start(project(grammar, cfg.constraint), token_map, session)
    for _ in range(cfg.max_tokens):
        valid = prefix.mask()
        if not valid:
            outcome = DEAD_END
            break
        if len(valid) == 1:
            # jump forward: the one admissible id needs no policy call; a
            # sampled step still reads the double its draw would have read
            (tok,) = valid
            if cfg.mode == "sample":
                rng.random()
        else:
            dist = policy.next_distribution(PolicyContext(prompt, prefix.ids))
            tok = choose_token(dist, valid, cfg, rng)
        prefix = prefix.push(tok)
        if tok == EOS_ID:
            outcome = COMPLETED
            break
    return prefix.result(outcome, constraint_seconds=session.constraint_seconds - spent)


def best_of_n(grammar, token_map, policy, prompt_ids, cfg, reward_fn):
    """Sample cfg.n generations and return the reward-best completed one
    (first index wins ties), carrying the constraint time of all n samples.

    The completed samples are the survivors: EOS is admitted only where
    the parse is complete, so each is in the language at cfg.constraint
    (level ``none`` rejects nothing).  With none completed the best-effort
    result is returned flagged.
    """
    sample_cfg = replace(cfg, mode="sample")
    results = []
    for i in range(cfg.n):
        rng = np.random.default_rng((cfg.seed, i))
        r = generate(grammar, token_map, policy, prompt_ids, sample_cfg, rng=rng)
        r = replace(r, reward=reward_fn(r), sample_index=i)
        results.append(r)
    survivors = [r for r in results if r.outcome == COMPLETED]
    pool = survivors or results
    best = max(pool, key=lambda r: (r.reward, -r.sample_index))
    best = replace(
        best,
        flagged=not survivors,
        constraint_seconds=sum(r.constraint_seconds for r in results),
    )
    return best, results
