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
from asgdec.tasks import generate_instances, reference_solution

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


def test_session_memo_keys_on_the_positions_literals_read():
    from asgdec.logic import DEFERRED, EMPTY_FRAGMENT, SAT, LogicFragment, parse_rules

    frag = LogicFragment(parse_rules("q(X) :- p(X)@1."), "f")
    m, empty, bg = frozenset({("p", (1,))}), frozenset(), {}
    session = Session()
    first = session.evaluate(frag, (m,), 3, bg)
    # advancing over positions 2 and 3, which no literal reads, is a hit
    assert session.evaluate(frag, (m, empty), 3, bg) is first
    assert session.evaluate(frag, (m, empty, empty), 3, bg) is first
    assert (session.node_evals, session.eval_cache_hits) == (1, 2)
    assert first.status == SAT and first.model == {("q", (1,))}
    # an unrealised read position is part of the key
    assert session.evaluate(frag, (), 3, bg).status == DEFERRED
    assert session.node_evals == 2
    # a fragment without rules is never evaluated
    assert session.evaluate(EMPTY_FRAGMENT, (empty,), 1, bg).status == SAT
    assert (session.node_evals, session.eval_cache_hits) == (2, 2)


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


def test_background_built_once_per_grammar(monkeypatch):
    from asgdec import earley, grammar

    g = generate_instances("sudoku4", 1, seed=0)[0].grammar()
    evaluated = []
    real = earley.evaluate_node

    def counting(fragment, *args):
        evaluated.append(fragment)
        return real(fragment, *args)

    for module in (earley, grammar):
        monkeypatch.setattr(module, "evaluate_node", counting)
    init(g, Session())
    init(g, Session())
    assert g.background.rules
    assert sum(f is g.background for f in evaluated) == 1


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


def test_ill_typed_comparison_leaves_the_terminal_set():
    # X < 1 is undefined on the symbols, so no binding violates "b"'s
    # constraint; with p(0) one does
    g = parse_grammar('s -> "a" {} | "b" { :- p(X), X < 1. }\n#background { p(a). p(2). p(b). }')
    assert valid_terminals(init(g)) == {"a", "b"}
    g = parse_grammar('s -> "a" {} | "b" { :- p(X), X < 1. }\n#background { p(a). p(0). p(b). }')
    assert valid_terminals(init(g)) == {"a"}


def test_forest_cap_guards_blowup():
    # ambiguous grammar with exponentially many live derivations
    g = parse_grammar('s -> s s {} | "a" {}')
    state = init(g, forest_cap=64)
    with pytest.raises((ForestOverflow, InvalidExtension)):
        for _ in range(40):
            state = extend(state, "a")


def test_forest_overflow_is_raised_not_taken_as_invalid():
    # a cap that fires raises: it never drops a terminal from the mask or
    # rejects a member
    g = parse_grammar('s -> s s {} | "a" {}')
    word = ("a",) * 6
    assert accepts(g, word)
    with pytest.raises(ForestOverflow):
        accepts(g, word, forest_cap=8)
    state = init(g, forest_cap=8)
    with pytest.raises(ForestOverflow):
        for t in word:
            assert t in valid_terminals(state)
            state = extend(state, t)


def test_a_blocksworld_seq_exports_only_what_its_parents_read():
    inst = generate_instances("blocksworld", 1, seed=0)[0]
    g = inst.grammar()
    session = Session()
    state = init(g, session)
    for t in reference_solution(inst):
        state = extend(state, t)
    assert is_complete(state)
    seq = {p.prod_id for p in g.by_head("seq")}
    exports = [m for (kept, _), m in session.exports.items() if kept == state.parser.kept[min(seq)]]
    assert {state.parser.kept[i] for i in seq} == {frozenset({"holds", "met"})}
    assert exports and {pred for m in exports for pred, _ in m} == {"holds", "met"}


def test_violation_log_records_pruned_nodes(anbncn_grammar):
    session = Session()
    session.violation_log = []
    state = init(anbncn_grammar, session)
    state = extend(state, "a")
    with pytest.raises(InvalidExtension):
        extend(state, "c")
    assert session.violation_log
