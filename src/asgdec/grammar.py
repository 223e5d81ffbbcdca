"""Annotated-grammar representation and its textual format.

A grammar file lists productions ``head -> sym sym { rules } | ...``,
terminals as double-quoted literals, and an optional ``#background { ... }``
block.  Each alternative may carry a logic annotation in braces; ``@k`` in a
rule body refers to the k-th right-hand-side symbol (1-indexed, terminals
included).  ``%`` starts a comment running to end of line.  The file is
read by the logic module's one tokenizer and cursor, which parses each
annotation block in place.  A grammar indexes its background once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

from .errors import AsgReferenceError, AsgSyntaxError, BackgroundUnsat
from .logic import (
    EMPTY_FRAGMENT,
    UNSAT,
    LogicFragment,
    Model,
    _RuleParser,
    evaluate_node,
    format_rule,
    tokenize,
)

TERMINAL = "terminal"
NONTERMINAL = "nonterminal"
LEVELS = ("none", "cfg", "csg", "sem")


@dataclass(frozen=True, slots=True)
class Symbol:
    kind: str
    name: str  # literal text for terminals, identifier for nonterminals

    def __repr__(self):
        if self.kind == TERMINAL:
            return '"' + self.name.replace("\\", "\\\\").replace('"', '\\"') + '"'
        return self.name


@dataclass(frozen=True)
class Production:
    head: str
    body: tuple
    annotation: LogicFragment
    prod_id: int = -1


@dataclass(frozen=True)
class Grammar:
    productions: tuple
    start: str
    background: LogicFragment
    terminals: frozenset = field(default_factory=frozenset)
    nonterminals: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        heads = {}  # in order of first appearance
        for p in self.productions:
            heads.setdefault(p.head, []).append(p)
        object.__setattr__(self, "_by_head", {h: tuple(ps) for h, ps in heads.items()})
        object.__setattr__(self, "_projections", {})  # level -> its grammar

    def by_head(self, name):
        return self._by_head.get(name, ())

    @cached_property
    def steps(self):
        """Per production, (is terminal, name) of each body symbol."""
        return tuple(
            tuple((s.kind == TERMINAL, s.name) for s in p.body)
            for p in self.productions
        )

    @cached_property
    def kept(self):
        """Per production, the predicates some production reads through
        ``@k`` at a position holding its head."""
        read = {}
        for p in self.productions:
            for lit in (lit for r in p.annotation.rules for lit in r.body if lit.child):
                if p.body[lit.child - 1].kind == NONTERMINAL:
                    read.setdefault(p.body[lit.child - 1].name, set()).add(lit.pred)
        return tuple(frozenset(read.get(p.head, ())) for p in self.productions)

    @cached_property
    def background_index(self):
        """The background's ``Model``, built once per grammar.  An
        inconsistent background raises ``BackgroundUnsat`` every time,
        since a raising ``cached_property`` stores nothing."""
        result = evaluate_node(self.background, [], {})
        if result.status == UNSAT:
            raise BackgroundUnsat(f"background constraint {result.violated} is violated")
        return Model(result.model)


# ---------------------------------------------------------------------------
# Parser.

_NAMES = ("ident", "var")


def parse_grammar(source):
    cursor = _RuleParser(tokenize(source))
    productions = []
    background = None
    while not cursor.at_end():
        if cursor.at("#background"):
            line, col = cursor.next()[2:]
            if background is not None:
                raise AsgSyntaxError("duplicate #background block", line, col)
            background = cursor.block("background")
            continue
        tok = cursor.next()
        if tok[0] not in _NAMES:
            cursor.fail("expected production head", tok)
        head = tok[1]
        if not cursor.at("->"):
            cursor.fail(f"expected '->' after {head!r}", cursor.peek())
        cursor.next()
        while True:  # one alternative per iteration
            body = []
            while True:
                kind, val, line, col = cursor.peek()
                if kind == "str":
                    if not val:
                        raise AsgSyntaxError("empty terminal literal", line, col)
                    body.append(Symbol(TERMINAL, val))
                elif kind in _NAMES and not cursor.at("->", k=1):
                    body.append(Symbol(NONTERMINAL, val))
                else:
                    break  # block / bar / next production / background / eof
                cursor.next()
            name = f"p{len(productions)}"
            annotation = cursor.block(name) if cursor.at("{") else EMPTY_FRAGMENT
            productions.append(Production(head, tuple(body), annotation, len(productions)))
            if not cursor.at("|"):
                break
            cursor.next()

    if not productions:
        raise AsgSyntaxError("grammar has no productions", 1, 1)
    return _finalize(productions, productions[0].head, background or EMPTY_FRAGMENT)


def _finalize(productions, start, background):
    heads = {p.head for p in productions}
    terminals = set()
    for p in productions:
        for k, sym in enumerate(p.body, start=1):
            if sym.kind == TERMINAL:
                terminals.add(sym.name)
            elif sym.name not in heads:
                raise AsgReferenceError(
                    f"nonterminal {sym.name!r} in production {p.head!r} "
                    f"(symbol {k}) has no production"
                )
        if p.annotation.max_child > len(p.body):
            raise AsgReferenceError(
                f"annotation of {p.head!r} references child "
                f"@{p.annotation.max_child} but the body has {len(p.body)} symbols"
            )
    if background.max_child:
        raise AsgReferenceError("background rules may not reference children")
    return Grammar(
        productions=tuple(productions),
        start=start,
        background=background,
        terminals=frozenset(terminals),
        nonterminals=frozenset(heads),
    )


def load_grammar(path):
    with open(path, encoding="utf-8") as fh:
        return parse_grammar(fh.read())


# ---------------------------------------------------------------------------
# Projections.


def strip_annotations(g):
    prods = tuple(
        replace(p, annotation=EMPTY_FRAGMENT) for p in g.productions
    )
    return replace(g, productions=prods, background=EMPTY_FRAGMENT)


def csg_projection(g):
    return replace(g, background=EMPTY_FRAGMENT)


def project(g, level):
    """The grammar ``g`` decodes with at ``level``: ``g`` itself at sem,
    the background dropped at csg, every annotation dropped at cfg, and at
    none every nonempty word over ``g.terminals``.  Each projection is
    built once and kept on ``g``, so a shared Session keeps one parser."""
    if level == "sem":
        return g
    p = g._projections.get(level)
    if p is None:
        if level == "cfg":
            p = strip_annotations(g)
        elif level == "csg":
            p = csg_projection(g)
        elif level == "none":  # start -> seq;  seq -> seq t | t
            seq = Symbol(NONTERMINAL, "seq")
            ts = [Symbol(TERMINAL, t) for t in sorted(g.terminals)]
            bodies = [(seq,)] + [(seq, t) for t in ts] + [(t,) for t in ts]
            prods = [
                Production("seq" if k else "start", body, EMPTY_FRAGMENT, k)
                for k, body in enumerate(bodies)
            ]
            p = _finalize(prods, "start", EMPTY_FRAGMENT)
        else:
            raise ValueError(f"unknown constraint level {level!r}")
        g._projections[level] = p
    return p


# ---------------------------------------------------------------------------
# Pretty printer; format_grammar then parse_grammar round-trips.


def format_grammar(g):
    lines = []
    for head, prods in g._by_head.items():
        alts = []
        for p in prods:
            syms = " ".join(repr(s) for s in p.body)
            rules = " ".join(format_rule(r) for r in p.annotation.rules)
            block = "{ " + rules + " }" if rules else "{}"
            alts.append((syms + " " if syms else "") + block)
        lines.append(f"{head} -> " + " | ".join(alts))
    if g.background.rules:
        lines.append("#background {")
        for r in g.background.rules:
            lines.append("  " + format_rule(r))
        lines.append("}")
    return "\n".join(lines) + "\n"


def grammars_equal(a, b):
    """Structural equality ignoring rule-id bookkeeping."""

    def prod_key(p):
        return (
            p.head,
            p.body,
            tuple((r.head, r.body) for r in p.annotation.rules),
        )

    return (
        a.start == b.start
        and tuple(map(prod_key, a.productions)) == tuple(map(prod_key, b.productions))
        and tuple((r.head, r.body) for r in a.background.rules)
        == tuple((r.head, r.body) for r in b.background.rules)
    )
