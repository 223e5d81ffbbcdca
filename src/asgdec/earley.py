"""Incremental recognizer over annotated grammars.

Maintains the set of satisfiable partial parse trees for an emitted
terminal prefix.  The chart is Earley-style, but every item carries the
exported logic models of its realised children; node annotations are
evaluated (partially, with deferral for unrealised children) every time an
item advances, and items whose evaluation fails are pruned immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BackgroundUnsat, ForestOverflow, InvalidExtension
from .grammar import NONTERMINAL, TERMINAL
from .logic import SAT, UNSAT, SatResult, evaluate_node, index_model

DEFAULT_FOREST_CAP = 4096

EMPTY_MODEL = frozenset()
_EMPTY_SAT = SatResult(SAT)


class EndMarker:
    """Sentinel returned by valid_terminals when a full parse exists."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "<EOS>"


END_MARKER = EndMarker()


@dataclass(frozen=True, slots=True)
class Item:
    """One dotted production with the models of its realised children.

    ``models`` has one entry per symbol left of the dot: the empty model
    for terminals, the completed subtree's exported atoms for
    nonterminals.
    """

    prod_id: int
    dot: int
    origin: int
    models: tuple


class Session:
    """Per-decode shared caches and instrumentation counters.

    One Session may serve several grammars, e.g. a grammar and its
    projections, which share annotation fragments but not backgrounds, so
    the memo key names both the fragment and the background index.  Keys
    hold ``id``s; every keyed object is kept alive in ``_pinned`` so that
    no id is reused while the memo lives.
    """

    def __init__(self):
        self.eval_memo = {}
        self.node_evals = 0
        self.eval_cache_hits = 0
        self.violation_log = None  # list of (prod_id, violated ids) when set
        self._backgrounds = {}  # id(background fragment) -> indexed model
        self._pinned = {}  # id -> object named by an id in a memo key

    def background_index(self, fragment):
        """Indexed model of a background fragment, built once per Session
        so that memo keys naming it hold across decodes."""
        index = self._backgrounds.get(id(fragment))
        if index is None:
            result = evaluate_node(fragment, [], {})
            if result.status == UNSAT:
                raise BackgroundUnsat(
                    f"background constraint {result.violated} is violated"
                )
            index = self._backgrounds[id(fragment)] = index_model(result.model)
            self._pinned[id(fragment)] = fragment
        return index

    def evaluate(self, fragment, models, arity, background):
        """``evaluate_node`` memoised on what it reads: the fragment, the
        background and the child models at the positions some ``@k``
        literal names (None while unrealised).  A fragment without rules
        is always SAT with the empty model."""
        if not fragment.rules:
            return _EMPTY_SAT
        n = len(models)
        read = tuple([models[k - 1] if k <= n else None for k in fragment.child_reads])
        key = (id(fragment), id(background), read)
        hit = self.eval_memo.get(key)
        if hit is not None:
            self.eval_cache_hits += 1
            return hit
        padded = list(models) + [None] * (arity - len(models))
        self.node_evals += 1
        result = evaluate_node(fragment, padded, background)
        self.eval_memo[key] = result
        self._pinned[id(fragment)] = fragment
        self._pinned[id(background)] = background
        return result


class ParseState:
    """Immutable snapshot of the recognizer after a terminal prefix.

    States share chart structure: extending copies only the new item set.
    """

    __slots__ = (
        "grammar",
        "prefix",
        "chart",
        "background_index",
        "session",
        "forest_cap",
        "_succ",
        "_valid",
        "_complete",
    )

    def __init__(self, grammar, prefix, chart, background_index, session, forest_cap):
        self.grammar = grammar
        self.prefix = prefix
        self.chart = chart
        self.background_index = background_index
        self.session = session
        self.forest_cap = forest_cap
        self._succ = {}
        self._valid = None
        self._complete = None

    def __eq__(self, other):
        return (
            isinstance(other, ParseState)
            and self.grammar is other.grammar
            and self.prefix == other.prefix
            and self.chart == other.chart
        )

    def __hash__(self):
        return hash((id(self.grammar), self.prefix))


def init(grammar, session=None, forest_cap=DEFAULT_FOREST_CAP):
    session = session or Session()
    background_index = session.background_index(grammar.background)
    items = set()
    _predict_start(grammar, items, session, background_index)
    _close_set(grammar, (), items, 0, session, background_index, forest_cap)
    state = ParseState(
        grammar, (), (frozenset(items),), background_index, session, forest_cap
    )
    return state


def _predict_start(grammar, items, session, background_index):
    for p in grammar.by_head(grammar.start):
        items.add(Item(p.prod_id, 0, 0, ()))


def _advance(grammar, item, model, session, background_index):
    """Advance the dot over one realised child; None if unsatisfiable."""
    prod = grammar.productions[item.prod_id]
    models = item.models + (model,)
    result = session.evaluate(
        prod.annotation, models, len(prod.body), background_index
    )
    if result.status == UNSAT:
        if session.violation_log is not None:
            session.violation_log.append((item.prod_id, result.violated))
        return None, None
    new = Item(item.prod_id, item.dot + 1, item.origin, models)
    export = result.model if new.dot == len(prod.body) else None
    return new, export


def _close_set(grammar, chart, items, index, session, background_index, cap):
    """Run prediction and completion to fixpoint over item set ``index``.

    ``chart`` holds the earlier (frozen) item sets; ``items`` is mutated.
    Completed subtrees spanning zero input are handled by replaying their
    exports against items added later in the same pass.
    """
    completed_here = {}  # nonterminal -> set of export models, origin == index
    exports = {}  # completed item -> export model
    work = list(items)

    def add(item, export):
        if item in items:
            if export is not None and item not in exports:
                exports[item] = export
                work.append(item)
            return
        if len(items) >= cap:
            raise ForestOverflow(
                f"more than {cap} live derivations at position {index}"
            )
        items.add(item)
        if export is not None:
            exports[item] = export
        work.append(item)

    while work:
        item = work.pop()
        prod = grammar.productions[item.prod_id]
        if item.dot < len(prod.body):
            sym = prod.body[item.dot]
            if sym.kind != NONTERMINAL:
                continue
            for p in grammar.by_head(sym.name):
                add(Item(p.prod_id, 0, index, ()), None)
            for model in completed_here.get(sym.name, ()):
                new, export = _advance(grammar, item, model, session, background_index)
                if new is not None:
                    add(new, export)
            continue
        # completed item
        export = exports.get(item)
        if export is None:
            result = session.evaluate(
                prod.annotation, item.models, len(prod.body), background_index
            )
            if result.status == UNSAT:
                if session.violation_log is not None:
                    session.violation_log.append((item.prod_id, result.violated))
                items.discard(item)
                continue
            export = result.model
            exports[item] = export
        head = prod.head
        if item.origin == index:
            known = completed_here.setdefault(head, set())
            if export in known:
                continue
            known.add(export)
            parents = list(items)
        else:
            parents = chart[item.origin]
        for parent in parents:
            pprod = grammar.productions[parent.prod_id]
            if (
                parent.dot < len(pprod.body)
                and pprod.body[parent.dot].kind == NONTERMINAL
                and pprod.body[parent.dot].name == head
            ):
                new, pexport = _advance(
                    grammar, parent, export, session, background_index
                )
                if new is not None:
                    add(new, pexport)


def extend(state, terminal):
    """New state for prefix + terminal; raises InvalidExtension on failure."""
    cached = state._succ.get(terminal)
    if cached is not None:
        if cached is _DEAD:
            raise InvalidExtension(terminal, len(state.prefix))
        return cached
    grammar = state.grammar
    session = state.session
    index = len(state.prefix) + 1
    items = set()
    for item in state.chart[-1]:
        prod = grammar.productions[item.prod_id]
        if item.dot < len(prod.body):
            sym = prod.body[item.dot]
            if sym.kind == TERMINAL and sym.name == terminal:
                new, export = _advance(
                    grammar, item, EMPTY_MODEL, session, state.background_index
                )
                if new is not None:
                    items.add(new)
    if items:
        _close_set(
            grammar,
            state.chart,
            items,
            index,
            session,
            state.background_index,
            state.forest_cap,
        )
    if not _alive(grammar, items):
        state._succ[terminal] = _DEAD
        raise InvalidExtension(terminal, len(state.prefix))
    new_state = ParseState(
        grammar,
        state.prefix + (terminal,),
        state.chart + (frozenset(items),),
        state.background_index,
        session,
        state.forest_cap,
    )
    state._succ[terminal] = new_state
    return new_state


class _Dead:
    __slots__ = ()


_DEAD = _Dead()


def _alive(grammar, items):
    """A set is alive if some derivation is still open or a full parse of
    the whole prefix exists.  Completed non-start items whose every parent
    combination failed do not keep the set alive."""
    for item in items:
        prod = grammar.productions[item.prod_id]
        if 0 < item.dot < len(prod.body):
            return True
        if (
            item.dot == len(prod.body)
            and item.origin == 0
            and prod.head == grammar.start
        ):
            return True
    return False


def is_complete(state):
    """True iff the prefix itself is a word of the language."""
    if state._complete is None:
        state._complete = _has_full_parse(state)
    return state._complete


def _has_full_parse(state):
    grammar = state.grammar
    for item in state.chart[-1]:
        prod = grammar.productions[item.prod_id]
        if (
            item.dot == len(prod.body)
            and item.origin == 0
            and prod.head == grammar.start
        ):
            result = state.session.evaluate(
                prod.annotation,
                item.models,
                len(prod.body),
                state.background_index,
            )
            if result.status == SAT:
                return True
    return False


def valid_terminals(state):
    """All terminals with a surviving extension, plus the end marker when
    the current prefix is already a complete word."""
    if state._valid is not None:
        return state._valid
    grammar = state.grammar
    candidates = set()
    for item in state.chart[-1]:
        prod = grammar.productions[item.prod_id]
        if item.dot < len(prod.body) and prod.body[item.dot].kind == TERMINAL:
            candidates.add(prod.body[item.dot].name)
    out = set()
    for t in candidates:
        try:
            extend(state, t)
        except (InvalidExtension, ForestOverflow):
            continue
        out.add(t)
    if is_complete(state):
        out.add(END_MARKER)
    state._valid = frozenset(out)
    return state._valid


def accepts(grammar, word, session=None, forest_cap=DEFAULT_FOREST_CAP):
    """Membership test: every extension survives and the result is complete."""
    try:
        state = init(grammar, session, forest_cap)
    except BackgroundUnsat:
        return False
    for t in word:
        if t not in grammar.terminals:
            return False
        try:
            state = extend(state, t)
        except (InvalidExtension, ForestOverflow):
            return False
    return is_complete(state)
