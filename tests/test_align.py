"""Terminal / token alignment: maps, cursors, and the two transports."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asgdec import (
    EOS_ID,
    AlignCursor,
    SubwordTokenizer,
    TerminalTokenizer,
    apply_token,
    build_map,
    init,
    parse_grammar,
    tau,
    tau_inverse,
    valid_terminals,
    valid_tokens,
)
from asgdec.earley import END_MARKER, extend
from asgdec.errors import UncoverableTerminal


def test_terminal_tokenizer_round_trip():
    tok = TerminalTokenizer(["a", "b", "abc"])
    assert tok.decode(tok.encode("abca")) == "abca"
    assert tok.encode("abca")[0] == tok._by_text["abc"]  # longest match


def test_subword_tokenizer_longest_match():
    tok = SubwordTokenizer(["a", "b", "ab"])
    assert tok.decode(tok.encode("aab")) == "aab"
    assert len(tok.encode("ab")) == 1


def test_build_map_enumerates_all_segmentations():
    tok = SubwordTokenizer(["a", "b", "ab", "ab"])
    m = build_map(["ab"], tok)
    # a+b, and each of the two duplicate "ab" pieces
    assert len(m.expansions["ab"]) == 3
    assert m.canonical["ab"] == tuple(tok.encode("ab"))


def test_build_map_rejects_unspellable_terminal():
    tok = SubwordTokenizer(["a"])
    with pytest.raises(UncoverableTerminal):
        build_map(["ab"], tok)


def test_tau_concatenates_canonical_encodings():
    tok = SubwordTokenizer(["a", "b", "ab"])
    m = build_map(["a", "b", "ab"], tok)
    assert tau(m, ("ab", "a")) == tuple(tok.encode("ab")) + tuple(
        tok.encode("a")
    )


def test_tau_inverse_greedy_longest_match():
    tok = SubwordTokenizer(["a", "b"])
    m = build_map(["a", "ab"], tok)
    # "ab" must resolve to the longer terminal, not ("a",) + junk
    assert tau_inverse(m, tok, tok.encode("ab")) == ("ab",)


def test_tau_inverse_ignores_eos_and_rejects_junk():
    tok = SubwordTokenizer(["a", "b", "c"])
    m = build_map(["a", "b"], tok)
    assert tau_inverse(m, tok, list(tok.encode("ab")) + [EOS_ID]) == ("a", "b")
    with pytest.raises(UncoverableTerminal):
        tau_inverse(m, tok, tok.encode("c"))


@given(st.lists(st.sampled_from(["a", "b", "ab", "ba"]), max_size=8))
@settings(max_examples=200, deadline=None)
def test_tau_round_trip_on_prefix_free_terminals(seq):
    # restrict to terminals where no concatenation re-segments: neither
    # "ab" nor "ba" is a prefix of the other
    tok = SubwordTokenizer(["a", "b"])
    m = build_map(["ab", "ba"], tok)
    seq = tuple(t for t in seq if t in ("ab", "ba"))
    assert tau_inverse(m, tok, tau(m, seq)) == seq


# ---------------------------------------------------------------------------
# token-level masking against a live parse state


GRAMMAR = parse_grammar(
    """
    s -> s "ab" {} | s "aa" {} | "ab" {}
    """
)


def test_valid_tokens_lifts_terminal_mask():
    tok = SubwordTokenizer(["a", "b"])
    m = build_map(GRAMMAR.terminals, tok)
    state = init(GRAMMAR)
    cur = AlignCursor()
    ids = valid_tokens(state, m, cur)
    # only "ab" can start the word, so only the a-piece is admissible
    assert ids == {tok.encode("a")[0]}
    state2, cur2, emitted = apply_token(state, m, cur, tok.encode("a")[0])
    assert emitted is None and not cur2.at_boundary
    ids2 = valid_tokens(state2, m, cur2)
    assert ids2 == {tok.encode("b")[0]}


def test_apply_token_emits_terminal_and_advances_parse():
    tok = SubwordTokenizer(["a", "b"])
    m = build_map(GRAMMAR.terminals, tok)
    state = init(GRAMMAR)
    cur = AlignCursor()
    for tid in tok.encode("ab"):
        state, cur, emitted = apply_token(state, m, cur, tid)
    assert emitted == "ab" and cur.at_boundary
    assert EOS_ID in valid_tokens(state, m, cur)


def test_apply_token_completion_wins_over_continuation():
    g = parse_grammar('s -> "a" "b" {} | "ab" {}')
    tok = SubwordTokenizer(["a", "b"])
    m = build_map(g.terminals, tok)
    state = init(g)
    state, cur, emitted = apply_token(state, m, AlignCursor(), tok.encode("a")[0])
    # "a" is a complete terminal here even though "ab" also continues
    assert emitted == "a"


def test_apply_token_rejects_inadmissible_token():
    tok = SubwordTokenizer(["a", "b"])
    m = build_map(GRAMMAR.terminals, tok)
    state = init(GRAMMAR)
    with pytest.raises(UncoverableTerminal):
        apply_token(state, m, AlignCursor(), tok.encode("b")[0])


def test_eos_only_at_terminal_boundary():
    tok = SubwordTokenizer(["a", "b"])
    m = build_map(GRAMMAR.terminals, tok)
    state = init(GRAMMAR)
    state, cur, _ = apply_token(state, m, AlignCursor(), tok.encode("a")[0])
    # mid-terminal: parser may consider the word complete only at boundaries
    assert EOS_ID not in valid_tokens(state, m, cur)


def test_token_walk_matches_terminal_walk():
    """Spelling a word token by token reaches the same parse state as
    feeding the terminals directly."""
    tok = SubwordTokenizer(["a", "b"])
    m = build_map(GRAMMAR.terminals, tok)
    word = ("ab", "aa", "ab")
    direct = init(GRAMMAR)
    for t in word:
        direct = extend(direct, t)
    state, cur, emitted = init(GRAMMAR), AlignCursor(), []
    for tid in tau(m, word):
        state, cur, term = apply_token(state, m, cur, tid)
        if term is not None:
            emitted.append(term)
    assert tuple(emitted) == word
    assert state.index == direct.index
    assert valid_terminals(state) == valid_terminals(direct)
