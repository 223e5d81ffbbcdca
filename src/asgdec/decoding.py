"""Sampling strategies over the constraint-masked next-token distribution.

The decoder restricts the policy's distribution to the currently valid
token set and renormalizes; greedy mode takes the argmax (ties to the
lowest token id), sample mode draws with temperature / top-k / top-p
applied after masking, and best_of_n ranks constraint-surviving samples by
reward.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import align, earley
from .align import EOS_ID, AlignCursor
from .policy import PolicyContext

CONSTRAINT_LEVELS = ("none", "cfg", "csg", "sem")
MODES = ("greedy", "sample", "best_of_n")

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
        if self.constraint not in CONSTRAINT_LEVELS:
            raise ValueError(f"unknown constraint level {self.constraint!r}")
        if self.n < 1 or self.max_tokens < 1:
            raise ValueError("n and max_tokens must be >= 1")


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
    """Restrict to valid ids and renormalize; returns (ids array, logp)."""
    ids = np.fromiter(sorted(valid_ids), dtype=np.int64)
    lp = dist.logprobs[ids] / max(temperature, 1e-9)
    m = np.max(lp)
    lp = lp - (m + np.log(np.sum(np.exp(lp - m))))
    return ids, lp


def _filter_topk_topp(ids, lp, top_k, top_p):
    order = np.lexsort((ids, -lp))  # by prob desc, id asc for ties
    ids, lp = ids[order], lp[order]
    if top_k is not None and top_k < len(ids):
        ids, lp = ids[:top_k], lp[:top_k]
    if top_p < 1.0:
        cum = np.cumsum(np.exp(lp))
        keep = int(np.searchsorted(cum, top_p) + 1)
        ids, lp = ids[:keep], lp[:keep]
    m = np.max(lp)
    lp = lp - (m + np.log(np.sum(np.exp(lp - m))))
    return ids, lp


def choose_token(dist, valid_ids, cfg, rng):
    """One draw from the masked distribution."""
    ids, lp = masked_logprobs(dist, valid_ids, 1.0 if cfg.mode == "greedy" else cfg.temperature)
    if cfg.mode == "greedy":
        return int(ids[np.argmax(lp)])
    ids, lp = _filter_topk_topp(ids, lp, cfg.top_k, cfg.top_p)
    return int(rng.choice(ids, p=np.exp(lp)))


def generate(grammar, token_map, policy, prompt_ids, cfg, session=None, rng=None):
    """One full generation run.

    ``grammar`` must already be the projection matching cfg.constraint
    (callers use strip_annotations / csg_projection); constraint level
    ``none`` ignores the grammar entirely.
    """
    rng = rng or np.random.default_rng(cfg.seed)
    ctx = PolicyContext(prompt=tuple(prompt_ids))
    tokens = []
    t_constraint = 0.0
    outcome = MAX_LENGTH

    if cfg.constraint == "none":
        for _ in range(cfg.max_tokens):
            dist = policy.next_distribution(ctx)
            valid = range(policy.vocab_size)
            tok = choose_token(dist, valid, cfg, rng)
            tokens.append(tok)
            ctx = ctx.append(tok)
            if tok == EOS_ID:
                outcome = COMPLETED
                break
        text = _safe_decode(token_map, tokens)
        terminals, bad = align.segment(token_map.terminals(), text)
        if bad is not None:
            terminals = None
        return DecodeResult(
            tuple(tokens), text, terminals, outcome, len(tokens),
            constraint_seconds=t_constraint,
        )

    t0 = time.perf_counter()
    state = earley.init(grammar, session)
    t_constraint += time.perf_counter() - t0
    cursor = AlignCursor()
    terminals = []
    for _ in range(cfg.max_tokens):
        t0 = time.perf_counter()
        valid = align.valid_tokens(state, token_map, cursor)
        t_constraint += time.perf_counter() - t0
        if not valid:
            outcome = DEAD_END
            break
        dist = policy.next_distribution(ctx)
        tok = choose_token(dist, valid, cfg, rng)
        tokens.append(tok)
        ctx = ctx.append(tok)
        if tok == EOS_ID:
            outcome = COMPLETED
            break
        t0 = time.perf_counter()
        state, cursor, emitted = align.apply_token(state, token_map, cursor, tok)
        t_constraint += time.perf_counter() - t0
        if emitted is not None:
            terminals.append(emitted)
    text = "".join(terminals)
    return DecodeResult(
        tuple(tokens), text, tuple(terminals), outcome, len(tokens),
        constraint_seconds=t_constraint,
    )


def _safe_decode(token_map, tokens):
    # unconstrained output decodes only when each token spells a terminal
    spelled = {
        e[0]: t for t, exps in token_map.expansions.items() for e in exps if len(e) == 1
    }
    try:
        return "".join(spelled[t] for t in tokens if t != EOS_ID)
    except KeyError:
        return ""


def best_of_n(grammar, token_map, policy, prompt_ids, cfg, reward_fn, accept_fn):
    """Sample cfg.n generations, reject constraint violators, return the
    reward-best survivor (first index wins ties).

    ``accept_fn(result) -> bool`` applies the active constraint; with all
    samples rejected the best-effort result is returned flagged.
    """
    sample_cfg = replace(cfg, mode="sample")
    results = []
    for i in range(cfg.n):
        rng = np.random.default_rng((cfg.seed, i))
        r = generate(grammar, token_map, policy, prompt_ids, sample_cfg, rng=rng)
        r = replace(r, reward=reward_fn(r), sample_index=i)
        results.append(r)
    survivors = [r for r in results if r.outcome == COMPLETED and accept_fn(r)]
    pool = survivors or results
    best = max(pool, key=lambda r: (r.reward, -r.sample_index))
    if not survivors:
        best = replace(best, flagged=True)
    return best, results
