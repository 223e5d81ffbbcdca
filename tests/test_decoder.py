"""Masked decoding: argmax, sampling filters, full runs, best-of-n."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asgdec import (
    DecodeConfig,
    NgramPolicy,
    TerminalTokenizer,
    UniformPolicy,
    accepts,
    build_map,
    generate,
    best_of_n,
)
from asgdec.decoding import (
    COMPLETED,
    DEAD_END,
    MAX_LENGTH,
    _filter_topk_topp,
    choose_token,
    masked_logprobs,
)
from asgdec.policy import Distribution

from conftest import anbncn_member


def dist(probs):
    return Distribution(np.log(np.asarray(probs, dtype=np.float64)))


def test_masked_logprobs_renormalizes():
    d = dist([0.5, 0.25, 0.25])
    ids, lp = masked_logprobs(d, {1, 2})
    assert list(ids) == [1, 2]
    assert np.allclose(np.exp(lp), [0.5, 0.5])


def test_greedy_ties_break_to_lowest_id():
    d = dist([0.25, 0.25, 0.25, 0.25])
    cfg = DecodeConfig(mode="greedy")
    assert choose_token(d, {2, 3}, cfg, None) == 2


def test_greedy_picks_masked_argmax():
    d = dist([0.1, 0.6, 0.3])
    cfg = DecodeConfig(mode="greedy")
    assert choose_token(d, {0, 2}, cfg, None) == 2


def test_top_k_filter():
    d = dist([0.1, 0.6, 0.3])
    ids, lp = masked_logprobs(d, {0, 1, 2})
    ids, lp = _filter_topk_topp(ids, lp, top_k=2, top_p=1.0)
    assert set(ids) == {1, 2}
    assert np.isclose(np.exp(lp).sum(), 1.0)


def test_top_p_filter():
    # smallest prefix whose cumulative mass reaches p survives
    d = dist([0.05, 0.65, 0.3])
    ids, lp = masked_logprobs(d, {0, 1, 2})
    only, _ = _filter_topk_topp(ids, lp, top_k=None, top_p=0.6)
    assert list(only) == [1]
    pair, plp = _filter_topk_topp(ids, lp, top_k=None, top_p=0.7)
    assert set(pair) == {1, 2}
    assert np.isclose(np.exp(plp).sum(), 1.0)


def test_sampling_respects_mask():
    d = dist([0.25, 0.25, 0.25, 0.25])
    cfg = DecodeConfig(mode="sample", seed=1)
    rng = np.random.default_rng(1)
    draws = {choose_token(d, {1, 3}, cfg, rng) for _ in range(50)}
    assert draws <= {1, 3} and len(draws) == 2


# ---------------------------------------------------------------------------
# the list draw against the numpy draw it replaced: same token, and the
# generator left in the same state


def _numpy_masked_logprobs(dist, valid_ids, temperature=1.0):
    ids = np.fromiter(sorted(valid_ids), dtype=np.int64)
    lp = dist.logprobs[ids] / max(temperature, 1e-9)
    m = lp.max()
    return ids, lp - (m + np.log(np.exp(lp - m).sum()))


def _numpy_filter_topk_topp(ids, lp, top_k, top_p):
    order = np.lexsort((ids, -lp))
    ids, lp = ids[order], lp[order]
    if top_k is not None and top_k < len(ids):
        ids, lp = ids[:top_k], lp[:top_k]
    if top_p < 1.0:
        keep = int(np.searchsorted(np.exp(lp).cumsum(), top_p) + 1)
        ids, lp = ids[:keep], lp[:keep]
    m = lp.max()
    return ids, lp - (m + np.log(np.exp(lp - m).sum()))


def _numpy_choose_token(dist, valid_ids, cfg, rng):
    ids, lp = _numpy_masked_logprobs(
        dist, valid_ids, 1.0 if cfg.mode == "greedy" else cfg.temperature
    )
    if cfg.mode == "greedy":
        return int(ids[lp.argmax()])
    ids, lp = _numpy_filter_topk_topp(ids, lp, cfg.top_k, cfg.top_p)
    return int(rng.choice(ids, p=np.exp(lp)))


def _cut_ties_top_p(dist, valid_ids, cfg):
    """Whether a prefix mass of the top-p cut lies within rounding of top_p.
    numpy's exp and the math module's round it to either side of such a
    tie, and the two cuts are equally right."""
    if cfg.mode == "greedy" or cfg.top_p >= 1.0:
        return False
    _, lp = _numpy_masked_logprobs(dist, valid_ids, cfg.temperature)
    cum = np.exp(np.sort(lp)[::-1][: cfg.top_k]).cumsum()
    return bool(np.any(np.abs(cum - cfg.top_p) <= 1e-12))


VOCAB = 48


@st.composite
def distributions(draw):
    shape = draw(st.sampled_from(["uniform", "peaked", "tied", "spread"]))
    if shape == "uniform":
        weights = [1.0] * VOCAB
    elif shape == "tied":
        weights = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=VOCAB, max_size=VOCAB))
    else:
        weights = draw(st.lists(st.floats(0.001, 1.0), min_size=VOCAB, max_size=VOCAB))
        if shape == "peaked":
            weights[draw(st.integers(0, VOCAB - 1))] = draw(st.floats(50.0, 1000.0))
    w = np.asarray(weights)
    return Distribution(np.log(w / w.sum()))


@settings(max_examples=400, deadline=None)
@given(
    d=distributions(),
    valid=st.sets(st.integers(0, VOCAB - 1), min_size=1, max_size=40),
    mode=st.sampled_from(["greedy", "sample"]),
    temperature=st.sampled_from([1.0, 0.3, 0.7, 1.5]) | st.floats(0.05, 4.0),
    top_k=st.none() | st.just(50) | st.integers(1, 45),
    top_p=st.just(1.0) | st.sampled_from([0.5, 0.9, 0.95]) | st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_list_draw_is_the_numpy_draw(d, valid, mode, temperature, top_k, top_p, seed):
    cfg = DecodeConfig(mode=mode, temperature=temperature, top_k=top_k, top_p=top_p)
    assume(not _cut_ties_top_p(d, valid, cfg))
    mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert choose_token(d, valid, cfg, mine) == _numpy_choose_token(d, valid, cfg, ref)
    assert mine.bit_generator.state == ref.bit_generator.state


def test_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(mode="beam")
    with pytest.raises(ValueError):
        DecodeConfig(constraint="soft")
    with pytest.raises(ValueError):
        DecodeConfig(n=0)


# ---------------------------------------------------------------------------
# full runs on the equal-count language


@pytest.fixture(scope="module")
def setup(anbncn_grammar):
    g = anbncn_grammar
    tok = TerminalTokenizer(g.terminals)
    tmap = build_map(g.terminals, tok)
    return g, tok, tmap


def test_constrained_sampling_always_in_language(setup):
    g, tok, tmap = setup
    policy = UniformPolicy(tmap.vocab_size)
    ok = 0
    for seed in range(40):
        cfg = DecodeConfig(mode="sample", constraint="sem", seed=seed, max_tokens=30)
        r = generate(g, tmap, policy, (), cfg)
        if r.outcome == COMPLETED:
            ok += 1
            assert anbncn_member(r.terminals), r.text
            assert accepts(g, r.terminals)
        else:
            assert r.outcome == MAX_LENGTH
    assert ok > 0


def test_greedy_is_deterministic(setup):
    g, tok, tmap = setup
    policy = NgramPolicy(
        tmap.vocab_size,
        exemplars=[tuple(tok.encode("aabbcc")) + (0,)],
        order=3,
    )
    cfg = DecodeConfig(mode="greedy", constraint="sem", max_tokens=30)
    r1 = generate(g, tmap, policy, (), cfg)
    r2 = generate(g, tmap, policy, (), cfg)
    assert r1.token_ids == r2.token_ids
    assert r1.outcome == COMPLETED and anbncn_member(r1.terminals)


def test_unconstrained_can_leave_language(setup):
    g, tok, tmap = setup
    policy = UniformPolicy(tmap.vocab_size)
    bad = 0
    for seed in range(30):
        cfg = DecodeConfig(mode="sample", constraint="none", seed=seed, max_tokens=12)
        r = generate(g, tmap, policy, (), cfg)
        if r.outcome != COMPLETED or not (
            r.terminals and anbncn_member(r.terminals)
        ):
            bad += 1
    assert bad > 0


def test_dead_end_reported():
    from asgdec import parse_grammar

    g = parse_grammar('s -> "a" { p. :- p. }')
    tok = TerminalTokenizer(g.terminals)
    tmap = build_map(g.terminals, tok)
    r = generate(g, tmap, UniformPolicy(tmap.vocab_size), (), DecodeConfig())
    assert r.outcome == DEAD_END


def test_constraint_time_is_tracked(setup):
    g, tok, tmap = setup
    cfg = DecodeConfig(mode="sample", constraint="sem", seed=3, max_tokens=30)
    r = generate(g, tmap, UniformPolicy(tmap.vocab_size), (), cfg)
    assert r.constraint_seconds > 0


def test_best_of_n_picks_highest_reward_survivor(setup):
    g, tok, tmap = setup
    policy = UniformPolicy(tmap.vocab_size)
    cfg = DecodeConfig(mode="best_of_n", constraint="sem", n=8, seed=5, max_tokens=30)

    def reward(r):
        return len(r.terminals or ())

    best, results = best_of_n(
        g, tmap, policy, (), cfg, reward, lambda r: accepts(g, r.terminals)
    )
    assert len(results) == 8
    survivors = [
        r for r in results if r.outcome == COMPLETED and accepts(g, r.terminals)
    ]
    if survivors:
        assert not best.flagged
        assert best.reward == max(r.reward for r in survivors)
    else:
        assert best.flagged


def test_best_of_n_flags_when_nothing_survives():
    from asgdec import parse_grammar

    g = parse_grammar('s -> "a" { p. :- p. }')
    tok = TerminalTokenizer(g.terminals)
    tmap = build_map(g.terminals, tok)
    cfg = DecodeConfig(mode="best_of_n", constraint="sem", n=3, max_tokens=5)
    best, results = best_of_n(
        g, tmap, UniformPolicy(tmap.vocab_size), (), cfg,
        lambda r: 0.0, lambda r: False,
    )
    assert best.flagged and len(results) == 3
