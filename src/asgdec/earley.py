"""Incremental recognizer over annotated grammars.

Maintains the set of satisfiable partial parse trees for an emitted
terminal prefix.  The chart is Earley-style, but every item carries the
exported logic models of its realised children; node annotations are
evaluated (partially, with deferral for unrealised children) every time an
item advances, and items whose evaluation fails are pruned immediately.
An item is a plain tuple (production id, dot, origin, models): ``models``
has one entry per symbol left of the dot, the empty model for terminals
and the completed subtree's exported atoms for nonterminals.

Exports.  A parent reads a child's atoms only through ``@k`` literals, so
a complete item exports only the predicates some production reads at a
position holding its head (``Grammar.kept``; blocksworld's ``seq`` keeps
``holds`` and ``met``).  No verdict or mask changes, and more items and
memo keys become equal.  Each distinct (kept predicates, model) is
projected once per Session into a ``Model``, which keeps the indexes its
first reader builds.  Overflows propagate out of ``valid_terminals``
and ``accepts``: a cap never narrows a mask or rejects a word.

Live charts.  Once an item set is closed, only part of it is ever read
again: its open items (scanned by the next terminal, or advanced when a
child completes) and its full parses (complete start items from position
0).  That part, with every origin other than 0 written as a distance back
from the set's own position, together with the live chart at each earlier
origin an open item waits on, decides every later item set, mask and
verdict.  The closure of an item set builds that part as a ``_Chart`` node
as it goes, with a back-link, by distance, to the node of each such
origin; a full parse joins it only once its annotation holds, so the
verdict is whether the node has one.  A closure reaches the node of any
origin through back-links, so a state has a constant size: it keeps its
node, the root, and a link to the node before, shared with the states
before it.  When a state is first masked, its node is interned, one per
Session, grammar and forest cap, in a weak-valued table keyed on its items
and back-links.  The node keeps the terminal mask, and weak links to the
nodes that follow it, so a state whose live chart was already seen reads
its mask without trial extensions and builds its successors by shifting
origins instead of closing a new item set.  States hold their nodes, nodes
hold only earlier nodes and link to later ones weakly, so there are no
reference cycles and a dropped state frees its chain at once.  A state
that is only extended, as in ``accepts``, never pays for the lookup.
"""

from __future__ import annotations

import weakref
from itertools import chain

from .errors import BackgroundUnsat, ForestOverflow, InvalidExtension
from .logic import SAT, UNSAT, Model, SatResult, evaluate_node

DEFAULT_FOREST_CAP = 4096

EMPTY_MODEL = Model()
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


class Session:
    """Per-decode shared caches and instrumentation counters.

    One Session may serve several grammars, e.g. a grammar and its
    projections, which share annotation fragments but not backgrounds, so
    the memo key names both the fragment and the background index, which
    each grammar builds once (``Grammar.background_index``).  Keys
    hold ``id``s; every keyed object is kept alive in ``_pinned`` so that
    no id is reused while the memo lives.  Live-chart nodes are interned
    per grammar and forest cap in the ``_Parser`` of each, which lives as
    long as some state of that parse does.  The counters are running totals;
    ``constraint_seconds`` is ``decoding.Prefix``'s time in parser and mask.
    """

    def __init__(self):
        self.eval_memo = {}
        self.exports = {}  # (kept predicates, model) -> the exported Model
        self.node_evals = 0
        self.eval_cache_hits = 0
        self.constraint_seconds = 0.0
        self.violation_log = None  # list of (prod_id, violated ids) when set
        self._pinned = {}  # id -> object named by an id in a memo key
        self._parsers = weakref.WeakValueDictionary()  # (id(grammar), cap) -> _Parser

    def evaluate(self, fragment, models, background):
        """``evaluate_node`` memoised on what it reads: the fragment, the
        background and the child models at the positions some ``@k``
        literal names (None while unrealised).  ``models`` holds the
        realised children, left to right.  A fragment without rules is
        always SAT with the empty model."""
        if not fragment.rules:
            return _EMPTY_SAT
        n = len(models)
        read = tuple([models[k - 1] if k <= n else None for k in fragment.child_reads])
        key = (id(fragment), id(background), read)
        hit = self.eval_memo.get(key)
        if hit is not None:
            self.eval_cache_hits += 1
            return hit
        self.node_evals += 1
        result = evaluate_node(fragment, models, background)
        self.eval_memo[key] = result
        self._pinned[id(fragment)] = fragment
        self._pinned[id(background)] = background
        return result

    def _parser(self, grammar, forest_cap):
        parser = self._parsers.get((id(grammar), forest_cap))
        if parser is None:
            parser = _Parser(grammar, self, forest_cap)
            self._parsers[(id(grammar), forest_cap)] = parser
        return parser


class _Parser:
    """What every state of one (grammar, Session, forest cap) shares,
    including the table of its live-chart nodes."""

    __slots__ = (
        "grammar", "session", "forest_cap", "background_index", "steps", "heads",
        "annotations", "kept", "charts", "__weakref__",
    )

    def __init__(self, grammar, session, forest_cap):
        self.grammar = grammar
        self.session = session
        self.forest_cap = forest_cap
        self.background_index = grammar.background_index
        self.steps = grammar.steps
        self.heads = tuple(p.head for p in grammar.productions)
        self.annotations = tuple(p.annotation for p in grammar.productions)
        self.kept = grammar.kept
        # (canonical live items, sorted back-links) -> _Chart
        self.charts = weakref.WeakValueDictionary()

    def advance(self, prod_id, dot, origin, models, model):
        """Advance the dot over one realised child: (item, export model of
        a now complete item or None), or (None, None) if unsatisfiable.  An
        item before its last child, under an annotation without constraints,
        is not evaluated: it cannot fail, and it exports nothing."""
        models = models + (model,)
        arity, fragment = len(self.steps[prod_id]), self.annotations[prod_id]
        if dot + 1 < arity and not fragment.constrained:
            return (prod_id, dot + 1, origin, models), None
        result = self.session.evaluate(fragment, models, self.background_index)
        if result.status == UNSAT:
            self._log(prod_id, result)
            return None, None
        export = self._export(prod_id, result.model) if dot + 1 == arity else None
        return (prod_id, dot + 1, origin, models), export

    def predict(self, prod_id, index):
        """(item, export) predicting a production at ``index``; an empty
        body is complete at once, and None when its annotation fails."""
        if self.steps[prod_id]:
            return (prod_id, 0, index, ()), None
        result = self.session.evaluate(self.annotations[prod_id], (), self.background_index)
        if result.status == UNSAT:
            self._log(prod_id, result)
            return None
        return (prod_id, 0, index, ()), self._export(prod_id, result.model)

    def _export(self, prod_id, model):
        """``model`` projected onto what parents read, once per Session."""
        kept, exports = self.kept[prod_id], self.session.exports
        export = exports.get((kept, model))
        if export is None:
            export = exports[kept, model] = Model([a for a in model if a[0] in kept])
        return export

    def _log(self, prod_id, result):
        if self.session.violation_log is not None:
            self.session.violation_log.append((prod_id, result.violated))


class _Chart:
    """Node of one live chart (see the module docstring).

    ``scans`` and ``waits`` index the open items, with canonical origins,
    by the terminal or nonterminal after their dot; ``finals`` holds the
    full parses.  ``back`` maps the distance back to each origin of an open
    item, other than 0 and its own position, to the node there.  ``key``
    is None while the node is private to the states that built it, and
    once it is shared, (the live items, the sorted pairs of ``back``).
    ``succ`` maps a terminal to a weak reference to the next node, or to
    ``_DEAD``.
    """

    __slots__ = ("scans", "waits", "finals", "back", "key", "succ", "valid", "__weakref__")

    def __init__(self):
        self.scans = {}
        self.waits = {}
        self.finals = []
        self.back = {}
        self.key = None
        self.succ = {}
        self.valid = None


class ParseState:
    """Immutable snapshot of the recognizer after ``index`` terminals.

    ``_chart`` is the prefix's live-chart node, private until the state is
    first masked; ``_root`` is that of position 0.  ``_prev`` is (the node
    before, the last terminal, the state before's ``_prev``), or None: a
    list shared along the path, which keeps the path's nodes alive so that
    a live chart met again further on is found interned.
    """

    __slots__ = ("parser", "index", "_root", "_prev", "_chart", "_succ", "__weakref__")

    def __init__(self, parser, index, root, prev, chart):
        self.parser = parser
        self.index = index
        self._root = root
        self._prev = prev
        self._chart = chart
        self._succ = {}  # terminal -> next state or _DEAD


def init(grammar, session=None, forest_cap=DEFAULT_FOREST_CAP):
    session = session or Session()
    parser = session._parser(grammar, forest_cap)
    seeds = []
    for p in grammar.by_head(grammar.start):
        seed = parser.predict(p.prod_id, 0)
        if seed is not None:
            seeds.append(seed)
    chart, _ = _close_set(parser, None, {}, 0, seeds)
    return ParseState(parser, 0, chart, None, chart)


def _close_set(parser, root, at, index, seeds):
    """Run prediction and completion to fixpoint over item set ``index``,
    and return (its live chart, whether it is alive).

    ``seeds`` holds (item, export) pairs, the export being the model of a
    complete item and None for an open one.  ``at`` maps positions to
    their nodes: it gains this set's node, and the origin of each item a
    completion advances, read from the back-links of the node it waits in.
    ``root``, the node of position 0, is in ``at`` only while its own set
    closes.  An item joins the set only once its annotation holds, so the
    set only grows and the forest cap fires exactly when the closure
    exceeds it, in whatever order it is built.  The set is alive if some
    derivation past its first symbol is still open, or a full parse of the
    whole prefix exists; completed non-start items whose every parent
    combination failed do not keep it alive.
    """
    steps, heads, cap = parser.steps, parser.heads, parser.forest_cap
    by_head, start = parser.grammar.by_head, parser.grammar.start
    chart = at[index] = _Chart()
    scans, waits, finals, back = chart.scans, chart.waits, chart.finals, chart.back
    alive = False
    items = set()
    work = []
    completed = {}  # (nonterminal, origin) -> export models seen
    predicted = set()

    def add(item, export):
        if item in items:
            return
        if len(items) >= cap:
            raise ForestOverflow(
                f"more than {cap} live derivations at position {index}"
            )
        items.add(item)
        work.append((item, export))

    for item, export in seeds:
        add(item, export)
    while work:
        item, export = work.pop()
        prod_id, dot, origin, models = item
        step = steps[prod_id]
        if dot < len(step):
            alive = alive or dot > 0
            terminal, name = step[dot]
            c = index - origin if origin else -1
            if c > 0:
                back[c] = at[origin]
            live = (prod_id, dot, c, models)
            (scans if terminal else waits).setdefault(name, []).append(live)
            if terminal:
                continue
            if name not in predicted:
                predicted.add(name)
                for p in by_head(name):
                    seed = parser.predict(p.prod_id, index)
                    if seed is not None:
                        add(*seed)
            for model in completed.get((name, index), ()):
                new, new_export = parser.advance(prod_id, dot, origin, models, model)
                if new is not None:
                    add(new, new_export)
            continue
        # completed item: it is read again only as a full parse; advance
        # every parent waiting on its head at its origin, once per distinct
        # export
        head = heads[prod_id]
        if not origin and head == start:
            finals.append((prod_id, dot, -1, models))
            alive = True
        seen = completed.setdefault((head, origin), set())
        if export in seen:
            continue
        seen.add(export)
        node = at.get(origin, root)
        for p, d, c, m in node.waits.get(head, ()):
            if c > 0:
                at[origin - c] = node.back[c]
            new, new_export = parser.advance(p, d, 0 if c < 0 else origin - c, m, export)
            if new is not None:
                add(new, new_export)
    return chart, alive


def _shared_chart(state):
    """The state's live-chart node as interned in its parser's table, and
    linked from its parent's node."""
    chart = state._chart
    if chart.key is not None:
        return chart
    items = frozenset(chain(chart.finals, *chart.scans.values(), *chart.waits.values()))
    key = (items, tuple(sorted(chart.back.items())))
    shared = state.parser.charts.get(key)
    if shared is None:
        chart.key = key
        shared = state.parser.charts[key] = chart
    state._chart = shared
    if state._prev is not None:
        prev, terminal, _ = state._prev
        prev.succ[terminal] = weakref.ref(shared)
    return shared


def extend(state, terminal):
    """New state for prefix + terminal; raises InvalidExtension on failure."""
    index = state.index
    succ = state._succ
    cached = succ.get(terminal)
    if cached is not None:
        if cached is _DEAD:
            raise InvalidExtension(terminal, index)
        return cached
    chart = state._chart
    link = chart.succ.get(terminal)
    if link is _DEAD:
        succ[terminal] = _DEAD
        raise InvalidExtension(terminal, index)
    parser = state.parser
    node = link() if link is not None else None
    if node is None:
        seeds, at = [], {index - c: n for c, n in chart.back.items()}
        at[index] = chart
        for p, d, c, m in chart.scans.get(terminal, ()):
            new, export = parser.advance(p, d, 0 if c < 0 else index - c, m, EMPTY_MODEL)
            if new is not None:
                seeds.append((new, export))
        node, alive = _close_set(parser, state._root, at, index + 1, seeds)
        if not alive:
            chart.succ[terminal] = succ[terminal] = _DEAD
            raise InvalidExtension(terminal, index)
    new_state = ParseState(parser, index + 1, state._root, (chart, terminal, state._prev), node)
    succ[terminal] = new_state
    return new_state


class _Dead:
    __slots__ = ()


_DEAD = _Dead()


def is_complete(state):
    """True iff the prefix itself is a word of the language; a full parse
    joins the live chart only once its annotation holds."""
    return bool(state._chart.finals)


def valid_terminals(state):
    """All terminals with a surviving extension, plus the end marker when
    the prefix is a complete word; ForestOverflow propagates."""
    chart = _shared_chart(state)
    if chart.valid is not None:
        return chart.valid
    out = set()
    for t in chart.scans:
        try:
            extend(state, t)
        except InvalidExtension:
            continue
        out.add(t)
    if is_complete(state):
        out.add(END_MARKER)
    chart.valid = frozenset(out)
    return chart.valid


def accepts(grammar, word, session=None, forest_cap=DEFAULT_FOREST_CAP):
    """Every extension survives and the result is complete; caps raise."""
    try:
        state = init(grammar, session, forest_cap)
    except BackgroundUnsat:
        return False
    for t in word:
        if t not in grammar.terminals:
            return False
        try:
            state = extend(state, t)
        except InvalidExtension:
            return False
    return is_complete(state)
