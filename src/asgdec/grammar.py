"""Annotated-grammar representation and its textual format.

A grammar file lists productions ``head -> sym sym { rules } | ...``,
terminals as double-quoted literals, and an optional ``#background { ... }``
block.  Each alternative may carry a logic annotation in braces; ``@k`` in a
rule body refers to the k-th right-hand-side symbol (1-indexed, terminals
included).  ``%`` starts a comment running to end of line.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

from .errors import AsgReferenceError, AsgSyntaxError, StratificationError
from .logic import EMPTY_FRAGMENT, LogicFragment, check_stratified, parse_rules

TERMINAL = "terminal"
NONTERMINAL = "nonterminal"


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

    def by_head(self, name):
        return self._by_head.get(name, ())

    @cached_property
    def steps(self):
        """Per production, (is terminal, name) of each body symbol."""
        return tuple(
            tuple((s.kind == TERMINAL, s.name) for s in p.body)
            for p in self.productions
        )


# ---------------------------------------------------------------------------
# Source scanner: top-level structure only; brace blocks are captured raw
# and handed to the logic-rule parser with their source position.


class _Scanner:
    def __init__(self, source):
        self.src = source
        self.i = 0
        self.line = 1
        self.col = 1

    def _advance(self, k=1):
        for _ in range(k):
            if self.src[self.i] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.i += 1

    def tokens(self):
        out = []
        src = self.src
        while self.i < len(src):
            c = src[self.i]
            if c in " \t\r\n":
                self._advance()
                continue
            if c == "%":
                while self.i < len(src) and src[self.i] != "\n":
                    self._advance()
                continue
            line, col = self.line, self.col
            if src.startswith("->", self.i):
                out.append(("arrow", "->", line, col))
                self._advance(2)
                continue
            if c == "|":
                out.append(("bar", "|", line, col))
                self._advance()
                continue
            if src.startswith("#background", self.i):
                out.append(("background", "#background", line, col))
                self._advance(len("#background"))
                continue
            if c == '"':
                self._advance()
                buf = []
                while self.i < len(src) and src[self.i] != '"':
                    if src[self.i] == "\\" and self.i + 1 < len(src):
                        self._advance()
                        buf.append(src[self.i])
                    else:
                        buf.append(src[self.i])
                    self._advance()
                if self.i >= len(src):
                    raise AsgSyntaxError("unterminated terminal literal", line, col)
                self._advance()
                text = "".join(buf)
                if not text:
                    raise AsgSyntaxError("empty terminal literal", line, col)
                out.append(("literal", text, line, col))
                continue
            if c == "{":
                self._advance()
                start = self.i
                bline, bcol = self.line, self.col
                depth = 1
                while self.i < len(src):
                    ch = src[self.i]
                    if ch == '"':
                        self._advance()
                        while self.i < len(src) and src[self.i] != '"':
                            self._advance(2 if src[self.i] == "\\" else 1)
                        if self.i >= len(src):
                            raise AsgSyntaxError("unterminated string", bline, bcol)
                        self._advance()
                        continue
                    if ch == "%":
                        while self.i < len(src) and src[self.i] != "\n":
                            self._advance()
                        continue
                    if ch == "{":
                        depth += 1
                    elif ch == "}":
                        depth -= 1
                        if depth == 0:
                            break
                    self._advance()
                if depth != 0:
                    raise AsgSyntaxError("unterminated '{' block", line, col)
                body = src[start : self.i]
                self._advance()  # closing brace
                out.append(("block", (body, bline, bcol), line, col))
                continue
            if c.isalpha() or c == "_":
                j = self.i
                while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                    j += 1
                out.append(("ident", src[self.i : j], line, col))
                self._advance(j - self.i)
                continue
            raise AsgSyntaxError(f"unexpected character {c!r}", line, col)
        return out


def parse_grammar(source):
    toks = _Scanner(source).tokens()
    pos = 0

    def peek(k=0):
        return toks[pos + k] if pos + k < len(toks) else ("eof", None, -1, -1)

    productions = []
    background = EMPTY_FRAGMENT
    seen_background = False

    while pos < len(toks):
        kind, val, line, col = peek()
        if kind == "background":
            if seen_background:
                raise AsgSyntaxError("duplicate #background block", line, col)
            pos += 1
            bkind, bval, bl, bc = peek()
            if bkind != "block":
                raise AsgSyntaxError("expected '{' after #background", bl, bc)
            pos += 1
            text, tline, tcol = bval
            background = LogicFragment(
                parse_rules(text, "background", tline, tcol), "background"
            )
            seen_background = True
            continue
        if kind != "ident":
            raise AsgSyntaxError(f"expected production head, found {val!r}", line, col)
        head = val
        pos += 1
        akind, aval, al, ac = peek()
        if akind != "arrow":
            raise AsgSyntaxError(f"expected '->' after {head!r}", al, ac)
        pos += 1

        while True:  # one alternative per iteration
            body = []
            annotation = EMPTY_FRAGMENT
            while True:
                kind, val, line, col = peek()
                if kind == "ident" and peek(1)[0] == "arrow":
                    break  # next production starts
                if kind == "ident":
                    body.append(Symbol(NONTERMINAL, val))
                    pos += 1
                elif kind == "literal":
                    body.append(Symbol(TERMINAL, val))
                    pos += 1
                elif kind == "block":
                    text, tline, tcol = val
                    name = f"p{len(productions)}"
                    annotation = LogicFragment(
                        parse_rules(text, name, tline, tcol), name
                    )
                    pos += 1
                    break
                else:
                    break  # bar / background / eof
            productions.append(
                Production(head, tuple(body), annotation, len(productions))
            )
            if peek()[0] == "bar":
                pos += 1
                continue
            break

    if not productions:
        raise AsgSyntaxError("grammar has no productions", 1, 1)
    return _finalize(productions, productions[0].head, background)


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
    report = check_stratified([p.annotation for p in productions] + [background])
    if not report.ok:
        raise StratificationError(
            f"grammar rules are not stratified: {report.describe()}", report.cycles
        )
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


# ---------------------------------------------------------------------------
# Pretty printer; format_grammar then parse_grammar round-trips.


def format_grammar(g):
    from .logic import format_rule

    lines = []
    by_head = {}
    order = []
    for p in g.productions:
        if p.head not in by_head:
            by_head[p.head] = []
            order.append(p.head)
        by_head[p.head].append(p)
    for head in order:
        alts = []
        for p in by_head[head]:
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
