"""Incremental recognizer: membership, exact next-terminal sets, caching.

Membership and next-terminal behaviour are checked against the closed-form
oracles in conftest by walking every viable prefix up to a length bound.
"""

import itertools

import pytest

from asgdec import (
    END_MARKER,
    Session,
    accepts,
    csg_projection,
    extend,
    init,
    is_complete,
    parse_grammar,
    valid_terminals,
)
from asgdec.errors import BackgroundUnsat, ForestOverflow, InvalidExtension
from asgdec.tasks import generate_instances

from conftest import (
    ambncmdn_member,
    ambncmdn_next,
    anbncn_member,
    anbncn_next,
    copy_member,
    copy_next,
)


def enumerate_accepted(grammar, alphabet, max_len):
    session = Session()
    got = set()
    for n in range(1, max_len + 1):
        for w in itertools.product(alphabet, repeat=n):
            if accepts(grammar, w, session):
                got.add("".join(w))
    return got


def walk_prefixes(grammar, next_oracle, max_len):
    """BFS over oracle-viable prefixes; compare valid_terminals everywhere."""
    state = init(grammar)
    frontier = [((), state)]
    checked = 0
    while frontier:
        prefix, st = frontier.pop()
        expected = next_oracle(prefix)
        shown = {
            (None if t is END_MARKER else t) for t in valid_terminals(st)
        }
        assert shown == expected, f"prefix {''.join(prefix)!r}"
        checked += 1
        if len(prefix) >= max_len:
            continue
        for t in expected - {None}:
            frontier.append((prefix + (t,), extend(st, t)))
    return checked


def test_anbncn_membership_small(anbncn_grammar):
    got = enumerate_accepted(anbncn_grammar, "abc", 7)
    want = {
        "".join(w)
        for n in range(1, 8)
        for w in itertools.product("abc", repeat=n)
        if anbncn_member(w)
    }
    assert got == want == {"abc", "aabbcc"}


def test_ambncmdn_membership_small(ambncmdn_grammar):
    got = enumerate_accepted(ambncmdn_grammar, "abcd", 7)
    want = {
        "".join(w)
        for n in range(1, 8)
        for w in itertools.product("abcd", repeat=n)
        if ambncmdn_member(w)
    }
    assert got == want
    assert "abcd" not in got and "abbcdd" in got


def test_copy_membership_small(copy_grammar):
    got = enumerate_accepted(copy_grammar, "ab", 6)
    want = {
        "".join(w)
        for n in range(1, 7)
        for w in itertools.product("ab", repeat=n)
        if copy_member(w)
    }
    assert got == want
    assert "abab" in got and "abba" not in got


def test_anbncn_next_terminals_exact(anbncn_grammar):
    assert walk_prefixes(anbncn_grammar, anbncn_next, 12) > 30


def test_ambncmdn_next_terminals_exact(ambncmdn_grammar):
    assert walk_prefixes(ambncmdn_grammar, ambncmdn_next, 10) > 100


def test_copy_next_terminals_exact(copy_grammar):
    assert walk_prefixes(copy_grammar, copy_next, 8) == 2**9 - 1


def test_invalid_extension_raises_and_is_cached(anbncn_grammar):
    state = init(anbncn_grammar)
    with pytest.raises(InvalidExtension):
        extend(state, "b")
    with pytest.raises(InvalidExtension):
        extend(state, "b")


def test_successor_states_are_shared(anbncn_grammar):
    state = init(anbncn_grammar)
    assert extend(state, "a") is extend(state, "a")


def test_end_marker_only_on_complete_prefixes(copy_grammar):
    state = init(copy_grammar)
    state = extend(state, "a")
    assert END_MARKER not in valid_terminals(state)
    assert not is_complete(state)
    state = extend(state, "a")
    assert END_MARKER in valid_terminals(state)
    assert is_complete(state)


def test_accepts_rejects_foreign_terminal(anbncn_grammar):
    assert not accepts(anbncn_grammar, ("a", "z"))


def test_session_memo_reused_across_words(anbncn_grammar):
    session = Session()
    assert accepts(anbncn_grammar, tuple("aabbcc"), session)
    evals = session.node_evals
    assert accepts(anbncn_grammar, tuple("aabbcc"), session)
    # second pass answers every node evaluation from the memo
    assert session.node_evals == evals
    assert session.eval_cache_hits > 0


def test_session_memo_separates_backgrounds():
    # the sem grammar and its csg projection share annotation fragments but
    # not backgrounds; a board breaking a given must stay rejected at sem
    # on a Session that has already accepted it at csg
    inst = generate_instances("sudoku3", 1, seed=0)[0]
    g = inst.grammar()
    word = tuple("[[1,2,3],[3,1,2],[2,3,1]]")
    assert not accepts(g, word, Session())
    session = Session()
    assert accepts(csg_projection(g), word, session)
    assert not accepts(g, word, session)


def test_background_unsat_rejected():
    g = parse_grammar('s -> "a" {}\n#background { p. :- p. }')
    with pytest.raises(BackgroundUnsat):
        init(g)
    assert not accepts(g, ("a",))


def test_background_feeds_annotations():
    g = parse_grammar(
        's -> "a" { :- cap(N), big(M), M > N. big(2). }\n'
        "#background { cap(1). }"
    )
    assert not accepts(g, ("a",))
    g2 = parse_grammar(
        's -> "a" { :- cap(N), big(M), M > N. big(2). }\n'
        "#background { cap(5). }"
    )
    assert accepts(g2, ("a",))


def test_forest_cap_guards_blowup():
    # ambiguous grammar with exponentially many live derivations
    g = parse_grammar('s -> s s {} | "a" {}')
    state = init(g, forest_cap=64)
    with pytest.raises((ForestOverflow, InvalidExtension)):
        for _ in range(40):
            state = extend(state, "a")


def test_violation_log_records_pruned_nodes(anbncn_grammar):
    session = Session()
    session.violation_log = []
    state = init(anbncn_grammar, session)
    state = extend(state, "a")
    with pytest.raises(InvalidExtension):
        extend(state, "c")
    assert session.violation_log
