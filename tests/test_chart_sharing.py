"""Shared live charts: equal to a parser that shares nothing, kept apart
between a grammar and its projection, and free of reference cycles; and
projected exports: equal to a parser that exports every predicate.

The first reference replaces a Session's node table with a dict that never
stores, so every state closes its own item sets and finds its own masks
and verdicts by trial extension.  The second replaces a parser's table of
the predicates each production exports with one that keeps them all."""

import gc
import tracemalloc
import weakref

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from asgdec import (
    END_MARKER,
    Session,
    SearchConfig,
    SearchTree,
    UniformPolicy,
    build_map,
    csg_projection,
    earley,
    extend,
    generate,
    init,
    is_complete,
    parse_grammar,
    valid_terminals,
)
from asgdec.align import TerminalTokenizer
from asgdec.decoding import DecodeConfig
from asgdec.errors import AsgError, ForestOverflow, InvalidExtension
from asgdec.mcts import Reward, search
from asgdec.tasks import generate_instances, rho_for

NONTERMINALS = ("s", "x", "y")
TERMINALS = ("a", "b")
MAX_PREFIX = 5
# annotations over the body positions k and j: exports, propagation
# through @k, constraints that prune, and negation of a child's atom
ANNOTATIONS = (
    "",
    "t.",
    "t :- t@{k}.",
    ":- t@{k}.",
    "u :- t@{k}. :- u, t@{j}.",
    "t :- not t@{k}.",
)


class _NeverStores(dict):
    def __setitem__(self, key, value):
        pass


def _reference_init(grammar, session, cap):
    state = init(grammar, session, cap)
    state.parser.charts = _NeverStores()
    return state


class _KeepsEverything:
    def __getitem__(self, prod_id):
        return self

    def __contains__(self, pred):
        return True


def _unprojected_init(grammar, session, cap):
    parser = session._parser(grammar, cap)
    parser.kept = _KeepsEverything()
    return init(grammar, session, cap)


@st.composite
def alternatives(draw):
    body = draw(
        st.lists(st.sampled_from(NONTERMINALS + tuple(f'"{t}"' for t in TERMINALS)),
                 max_size=3)
    )
    choices = ANNOTATIONS if body else ANNOTATIONS[:2]
    rules = draw(st.sampled_from(choices)).format(
        k=draw(st.integers(1, max(1, len(body)))),
        j=draw(st.integers(1, max(1, len(body)))),
    )
    return " ".join(body) + " { " + rules + " }"


@st.composite
def grammar_sources(draw):
    lines = []
    for head in NONTERMINALS:
        alts = draw(st.lists(alternatives(), min_size=1, max_size=3))
        lines.append(f"{head} -> " + " | ".join(alts))
    return "\n".join(lines) + "\n"


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (InvalidExtension, ForestOverflow) as exc:
        return type(exc).__name__, None


def _live_items(state):
    """The state's live items with absolute origins."""
    chart = state._chart
    index = state.index
    canon = [*chart.finals]
    for group in (chart.scans, chart.waits):
        for items in group.values():
            canon.extend(items)
    return {(p, d, 0 if c < 0 else index - c, m) for p, d, c, m in canon}


def _observe(state):
    return (
        _live_items(state),
        _outcome(valid_terminals, state),
        is_complete(state),
    )


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    source=grammar_sources(),
    order=st.permutations(TERMINALS),
    cap=st.sampled_from([4, 8, 64]),
)
@example(  # left-recursive, nullable and ambiguous under a small cap
    source='s -> s s { t :- t@2. } | s "a" { :- t@1. } | "a" { t. } | x {}\n'
    'x -> { } | "b" x { t. }\ny -> "a" {}\n',
    order=TERMINALS,
    cap=8,
)
def test_shared_charts_match_a_parser_that_shares_nothing(source, order, cap):
    # walk every prefix up to MAX_PREFIX breadth first, keeping every
    # state, so that prefixes meet the nodes of earlier ones
    try:
        g = parse_grammar(source)
    except AsgError:
        return
    got = _outcome(init, g, Session(), cap)
    want = _outcome(_reference_init, g, Session(), cap)
    assert got[0] == want[0]
    if got[0] != "ok":
        return
    frontier = [(got[1], want[1])]
    assert _observe(got[1]) == _observe(want[1])
    for _ in range(MAX_PREFIX):
        reached = []
        for mine, ref in frontier:
            for t in order:
                got, want = _outcome(extend, mine, t), _outcome(extend, ref, t)
                assert got[0] == want[0], (mine.index, t)
                if got[0] == "ok":
                    assert _observe(got[1]) == _observe(want[1]), (mine.index, t)
                    reached.append((got[1], want[1]))
        frontier = reached


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(source=grammar_sources(), cap=st.sampled_from([4, 8, 64]))
@example(  # x exports u, which no parent reads, and t, which one does
    source='s -> x x { :- t@1, t@2. } | s "a" {}\n'
    'x -> "a" { t. u. } | "a" { u. } | "b" y { t :- t@2. }\ny -> { t. } | "b" {}\n',
    cap=8,
)
def test_projected_exports_keep_every_mask_and_verdict(source, cap):
    # walk every prefix up to MAX_PREFIX that the reference admits without
    # overflowing; projection only merges items, so the projected parser
    # never overflows where the reference does not
    try:
        g = parse_grammar(source)
    except AsgError:
        return
    want = _outcome(_unprojected_init, g, Session(), cap)
    got = _outcome(init, g, Session(), cap)
    if want[0] != "ok":
        return
    assert got[0] == "ok"
    frontier = [(got[1], want[1])]
    for depth in range(MAX_PREFIX + 1):
        reached = []
        for mine, ref in frontier:
            mask = _outcome(valid_terminals, ref)
            if mask[0] != "ok":
                continue
            assert _outcome(valid_terminals, mine) == mask, mine.index
            assert is_complete(mine) == is_complete(ref), mine.index
            if depth < MAX_PREFIX:
                for t in sorted(mask[1] - {END_MARKER}):
                    reached.append((extend(mine, t), extend(ref, t)))
        frontier = reached


def test_a_grammar_and_its_projection_keep_their_verdicts_apart():
    # sudoku3: the board breaks the given at cell 4, so sem rejects it and
    # csg (no background) accepts it, on one Session in either order
    inst = generate_instances("sudoku3", 1, seed=0)[0]
    sem = inst.grammar()
    csg = csg_projection(sem)
    word = tuple("[[1,2,3],[3,1,2],[2,3,1]]")

    def walk(g, session):
        state = init(g, session)
        masks = [valid_terminals(state)]
        for t in word:
            if t not in masks[-1]:
                return masks, False
            state = extend(state, t)
            masks.append(valid_terminals(state))
        return masks, is_complete(state)

    alone = {id(g): walk(g, Session()) for g in (sem, csg)}
    assert not alone[id(sem)][1] and alone[id(csg)][1]
    for order in ((sem, csg), (csg, sem)):
        session = Session()
        for g in order:
            assert walk(g, session) == alone[id(g)]


# ---------------------------------------------------------------------------
# no reference cycles: with the cyclic collector off, dropping what holds
# the states frees every state and every node


def _record_created(monkeypatch):
    made = []
    for cls in (earley.ParseState, earley._Chart):
        original = cls.__init__

        def record(self, *args, _original=original):
            _original(self, *args)
            made.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", record)
    return made


@pytest.fixture()
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_a_finished_search_frees_its_states_and_nodes(monkeypatch, no_cyclic_gc):
    inst = generate_instances("blocksworld", 3, seed=0)[2]
    g = inst.grammar()
    token_map = build_map(g.terminals, TerminalTokenizer(g.terminals))
    made = _record_created(monkeypatch)
    tree = SearchTree(g, token_map, ())
    result, _ = search(
        tree, UniformPolicy(token_map.vocab_size), Reward(rho=rho_for(inst)),
        SearchConfig(budget=200, max_tokens=160, seed=0),
    )
    assert result is not None
    assert any(type(r()) is earley._Chart and r().key for r in made)
    del tree
    assert [r() for r in made if r() is not None] == []


def test_a_finished_generation_frees_its_states_and_nodes(monkeypatch, no_cyclic_gc):
    inst = generate_instances("copy", 1, seed=0)[0]
    g = inst.grammar()
    token_map = build_map(g.terminals, TerminalTokenizer(g.terminals))
    made = _record_created(monkeypatch)
    cfg = DecodeConfig(mode="sample", constraint="sem", seed=1, max_tokens=16)
    result = generate(g, token_map, UniformPolicy(token_map.vocab_size), (), cfg)
    assert result.tokens_generated > 0 and made
    assert [r() for r in made if r() is not None] == []


# ---------------------------------------------------------------------------
# constant-size states: a state holds a fixed number of nodes, however long
# its prefix, so a chain of states kept alive grows linearly


def _traced_walk(grammar, length):
    """Memory traced while a kept root state is extended ``length`` times."""
    tracemalloc.start()
    try:
        root = state = init(grammar)
        for _ in range(length):
            state = extend(state, "a")
        assert root._succ  # the root keeps the whole chain alive
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_a_kept_chain_of_states_grows_linearly():
    g = parse_grammar('s -> s "a" { } | "a" { }\n')
    short, long = _traced_walk(g, 500), _traced_walk(g, 2000)
    assert long < 6 * short, (short, long)
