"""Masked decoding: argmax, sampling filters, full runs, best-of-n."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asgdec import (
    EOS_ID,
    DecodeConfig,
    Session,
    NgramPolicy,
    SubwordTokenizer,
    TerminalTokenizer,
    UniformPolicy,
    accepts,
    build_map,
    generate,
    best_of_n,
    csg_projection,
    strip_annotations,
)
from asgdec.decoding import (
    COMPLETED,
    DEAD_END,
    MAX_LENGTH,
    _filter_topk_topp,
    Prefix,
    choose_token,
    masked_logprobs,
)
from asgdec.grammar import project
from asgdec.policy import Distribution, PolicyContext
from asgdec.tasks import generate_instances

from conftest import CountingPolicy, anbncn_member


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
        DecodeConfig(mode="best_of_n")  # best_of_n is a function, not a mode
    with pytest.raises(ValueError):
        DecodeConfig(constraint="soft")
    with pytest.raises(ValueError):
        DecodeConfig(n=0)


def test_config_rejects_nonpositive_top_k():
    with pytest.raises(ValueError):
        DecodeConfig(top_k=0)
    with pytest.raises(ValueError):
        DecodeConfig(top_k=-1)
    assert DecodeConfig(top_k=1).top_k == 1


@pytest.mark.parametrize("task, level", [("anbncn", "cfg"), ("blocksworld", "csg")])
def test_full_grammar_decodes_at_the_configured_level(task, level):
    # generate and best_of_n project the grammar they are given, so the
    # full grammar and the level's projection give the same tokens
    g = generate_instances(task, 1, seed=0)[0].grammar()
    g_level = (strip_annotations if level == "cfg" else csg_projection)(g)
    tmap = build_map(g.terminals, TerminalTokenizer(g.terminals))
    policy = UniformPolicy(tmap.vocab_size)
    for seed in range(4):
        cfg = DecodeConfig(mode="sample", constraint=level, n=3, seed=seed, max_tokens=24)
        assert (
            generate(g, tmap, policy, (), cfg).token_ids
            == generate(g_level, tmap, policy, (), cfg).token_ids
        )
        full = best_of_n(g, tmap, policy, (), cfg, lambda r: len(r.token_ids))[1]
        projected = best_of_n(g_level, tmap, policy, (), cfg, lambda r: len(r.token_ids))[1]
        assert [r.token_ids for r in full] == [r.token_ids for r in projected]


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


def test_unconstrained_subword_text_is_the_tokenizers_decoding(anbncn_grammar):
    # pieces that span terminals ("ab", "bca") or spell none ("x"): the
    # text is the decoded ids, and terminals is None exactly when the
    # text is not a word over the terminals
    g = anbncn_grammar
    tok = SubwordTokenizer(["a", "b", "c", "ab", "bca", "x"])
    tmap = build_map(g.terminals, tok)
    policy = UniformPolicy(tmap.vocab_size)
    segmented = unsegmented = 0
    for seed in range(20):
        cfg = DecodeConfig(mode="sample", constraint="none", seed=seed, max_tokens=8)
        r = generate(g, tmap, policy, (), cfg)
        assert r.text == tok.decode(r.token_ids)
        if re.fullmatch("[abc]*", r.text):
            assert r.terminals == tuple(r.text)
            segmented += 1
        else:
            assert r.terminals is None
            unsegmented += 1
    assert segmented and unsegmented


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


@pytest.mark.parametrize("level", ["cfg", "sem"])
@pytest.mark.parametrize("task", ["anbncn", "sudoku3"])
def test_best_of_n_picks_highest_reward_survivor(anbncn_grammar, task, level):
    g = anbncn_grammar
    if task != "anbncn":
        g = generate_instances(task, 1, seed=0)[0].grammar()
    if level == "cfg":
        g = strip_annotations(g)
    tmap = build_map(g.terminals, TerminalTokenizer(g.terminals))
    cfg = DecodeConfig(mode="sample", constraint=level, n=8, seed=5, max_tokens=32)
    best, results = best_of_n(
        g, tmap, UniformPolicy(tmap.vocab_size), (), cfg, lambda r: len(r.terminals)
    )
    assert len(results) == 8
    survivors = [r for r in results if r.outcome == COMPLETED]
    # EOS is admitted only where the parse is complete, so every completed
    # sample is in the language without a re-parse
    assert survivors and all(accepts(g, r.terminals) for r in survivors)
    assert not best.flagged and best.outcome == COMPLETED
    assert best.reward == max(r.reward for r in survivors)


def test_best_of_n_flags_when_nothing_survives():
    from asgdec import parse_grammar

    g = parse_grammar('s -> "a" { p. :- p. }')
    tok = TerminalTokenizer(g.terminals)
    tmap = build_map(g.terminals, tok)
    cfg = DecodeConfig(mode="sample", constraint="sem", n=3, max_tokens=5)
    best, results = best_of_n(
        g, tmap, UniformPolicy(tmap.vocab_size), (), cfg, lambda r: 0.0
    )
    assert best.flagged and len(results) == 3


# ---------------------------------------------------------------------------
# jump-forward: a step whose mask admits one id asks no policy


class LengthPolicy:
    """A fixed random distribution for each number of generated tokens."""

    def __init__(self, vocab_size, salt):
        self.vocab_size = vocab_size
        self.salt = salt

    def next_distribution(self, ctx):
        logits = np.random.default_rng((self.salt, len(ctx.generated))).normal(size=self.vocab_size)
        return Distribution(logits - np.log(np.exp(logits).sum()))


def _jump_cases():
    """(grammar, token map) pairs whose masks often admit one id."""
    from asgdec import parse_grammar

    cases = []
    for task in ("blocksworld", "sudoku3"):
        g = generate_instances(task, 1, seed=0)[0].grammar()
        cases.append((g, build_map(g.terminals, TerminalTokenizer(g.terminals))))
    g = parse_grammar('s -> "ab" s "c" {} | "ab" "c" {}')
    cases.append((g, build_map(g.terminals, SubwordTokenizer(["a", "b", "c", "ab"]))))
    return cases


JUMP_CONFIGS = [
    dict(mode="greedy"),
    dict(mode="sample"),
    dict(mode="sample", top_k=2),
    dict(mode="sample", top_p=0.7, temperature=0.8),
]


def reference_generate(grammar, token_map, policy, cfg):
    """(ids, outcome) of the constrained loop of ``generate`` with a
    ``choose_token`` call on every step, forced or not."""
    rng = np.random.default_rng(cfg.seed)
    prefix = Prefix.start(project(grammar, cfg.constraint), token_map, Session())
    for _ in range(cfg.max_tokens):
        valid = prefix.mask()
        if not valid:
            return prefix.ids, DEAD_END
        dist = policy.next_distribution(PolicyContext((), prefix.ids))
        tok = choose_token(dist, valid, cfg, rng)
        prefix = prefix.push(tok)
        if tok == EOS_ID:
            return prefix.ids, COMPLETED
    return prefix.ids, MAX_LENGTH


@pytest.mark.parametrize("options", JUMP_CONFIGS)
def test_generate_draws_what_a_draw_at_every_step_draws(options):
    for g, tmap in _jump_cases():
        for seed in range(5):
            policy = LengthPolicy(tmap.vocab_size, seed)
            cfg = DecodeConfig(constraint="sem", seed=seed, max_tokens=40, **options)
            r = generate(g, tmap, policy, (), cfg)
            assert (r.token_ids, r.outcome) == reference_generate(g, tmap, policy, cfg)


@pytest.mark.parametrize("options", JUMP_CONFIGS[:2])
def test_generate_asks_the_policy_only_at_steps_with_a_choice(options):
    forced = 0
    for g, tmap in _jump_cases():
        for seed in range(3):
            policy = CountingPolicy(LengthPolicy(tmap.vocab_size, seed))
            cfg = DecodeConfig(constraint="sem", seed=seed, max_tokens=40, **options)
            r = generate(g, tmap, policy, (), cfg)
            prefix = Prefix.start(project(g, "sem"), tmap, Session())
            choices = 0
            for tok in r.token_ids:
                choices += len(prefix.mask()) >= 2
                forced += len(prefix.mask()) == 1
                prefix = prefix.push(tok)
            assert policy.calls == choices
    assert forced > 0
