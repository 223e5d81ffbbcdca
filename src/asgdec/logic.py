"""Stratified logic fragment used by grammar annotations and backgrounds.

The fragment covers facts, normal rules, hard constraints, negation as
failure (stratified), integer arithmetic (+, -, *), comparison builtins,
tuple terms and quoted-string constants.  Child parse-tree nodes are
addressed with ``@k`` suffixes on body literals; during partial-tree
evaluation rules that (transitively, through negation) depend on a child
that has not been realised yet are deferred rather than enforced.  The
module also holds the one tokenizer of grammar and rule text and the
cursor that parses rules, which the grammar parser drives too.

A rule body is an unordered conjunction.  A sum over a non-integer or
outside 64 bits, and an ordering comparison (<, <=, >, >=) over a
non-integer, are undefined; a binding that meets an undefined value is
dropped, whether the literal is negated or not (``=`` and ``!=`` compare
any terms).  A sum inside a positive literal is matched once some order of
the positives has bound its variables; a rule with no such order never
fires.  So evaluation never raises on a value, and no verdict depends on
the order in which bindings are met.

Each rule's join plan is compiled once into a generated Python loop nest;
the comment above ``_JoinSource`` gives the rules that keep it sound.
"""

from __future__ import annotations

import itertools
import re
import weakref
from dataclasses import dataclass, field
from typing import Optional

from .errors import (
    AsgSyntaxError,
    GroundingOverflow,
    StratificationError,
)

DEFAULT_ATOM_CAP = 100_000

# ---------------------------------------------------------------------------
# Terms.  Ground terms are plain python ints, strs (symbolic constants),
# QStr (quoted string constants) and Tup (tuples).  Var/Arith only appear in
# rule ASTs, never in ground atoms.


@dataclass(frozen=True, slots=True)
class Var:
    name: str

    def __repr__(self):
        return self.name


@dataclass(frozen=True, slots=True)
class QStr:
    """Quoted string constant, distinct from a symbolic constant."""

    text: str

    def __repr__(self):
        return '"' + self.text.replace("\\", "\\\\").replace('"', '\\"') + '"'


@dataclass(frozen=True, slots=True)
class Tup:
    items: tuple

    def __repr__(self):
        return "(" + ",".join(repr(i) for i in self.items) + ")"


@dataclass(frozen=True, slots=True)
class Arith:
    op: str  # + - *
    left: object
    right: object

    def __repr__(self):
        return f"({self.left!r}{self.op}{self.right!r})"


COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True, slots=True)
class Literal:
    pred: str
    args: tuple
    neg: bool = False
    child: Optional[int] = None  # the @k tag, 1-based
    builtin: Optional[str] = None  # comparison operator, args has length 2

    def __repr__(self):
        return format_literal(self)


@dataclass(frozen=True, slots=True)
class Rule:
    head: Optional[Literal]  # None for hard constraints
    body: tuple
    rule_id: str = ""

    def __repr__(self):
        return format_rule(self)


def format_term(t):
    if isinstance(t, Tup):
        return "(" + ",".join(format_term(i) for i in t.items) + ")"
    if isinstance(t, Arith):
        return f"{format_term(t.left)}{t.op}{format_term(t.right)}"
    return repr(t) if isinstance(t, (QStr, Var)) else str(t)


def format_literal(lit):
    if lit.builtin:
        return f"{format_term(lit.args[0])} {lit.builtin} {format_term(lit.args[1])}"
    s = lit.pred
    if lit.args:
        s += "(" + ",".join(format_term(a) for a in lit.args) + ")"
    if lit.child is not None:
        s += f"@{lit.child}"
    if lit.neg:
        s = "not " + s
    return s


def format_rule(rule):
    body = ", ".join(format_literal(b) for b in rule.body)
    if rule.head is None:
        return f":- {body}."
    if not rule.body:
        return f"{format_literal(rule.head)}."
    return f"{format_literal(rule.head)} :- {body}."


# ---------------------------------------------------------------------------
# One tokenizer and one token cursor for grammar files and rule text alike.

_TOKEN = re.compile(
    r"""(?P<skip>[ \t\r\n]+|%[^\n]*)
    |(?P<str>"(?:[^"\\]|\\.)*")
    |(?P<int>[0-9]+)
    |(?P<name>[^\W\d]\w*)
    |(?P<op>:-|!=|<=|>=|->|\#background|[().,@+\-*<>=|{}])
    |(?P<bad>.)""",
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def tokenize(text):
    """(kind, value, line, col) tokens of grammar or rule text, ending in
    an ``eof`` token; kind is ident/var/int/str/op.  Integers are ASCII
    digits; an identifier starts with a letter or ``_`` and is a variable
    when that is upper case or ``_``."""
    toks = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, value = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "op":
            toks.append(("op", value, line, col))
        elif kind == "name" and (value[0].isalpha() or value[0] == "_"):
            kind = "var" if value[0].isupper() or value[0] == "_" else "ident"
            toks.append((kind, value, line, col))
        elif kind == "str":
            toks.append(("str", _ESCAPE.sub(r"\1", value[1:-1]), line, col))
        elif kind == "int":
            toks.append(("int", int(value), line, col))
        elif kind != "skip":
            if value == '"':
                raise AsgSyntaxError("unterminated string", line, col)
            raise AsgSyntaxError(f"unexpected character {value[0]!r}", line, col)
        if "\n" in value:
            line += value.count("\n")
            line_start = m.start() + value.rindex("\n") + 1
    toks.append(("eof", None, line, len(text) - line_start + 1))
    return toks


class _RuleParser:
    """Cursor over a token list.  Punctuation matches on kind and value,
    so a quoted string is never taken for it.  ``block`` parses one
    ``{ ... }`` block of rules in place."""

    def __init__(self, toks):
        self.toks = toks
        self.pos = 0
        self.brace = None  # the '{' token of the block being parsed

    def peek(self, k=0):
        """The k-th token from the cursor; k > 0 only before the final eof."""
        return self.toks[self.pos + k]

    def at(self, *values, k=0):
        """Whether the k-th token from the cursor is punctuation in values."""
        tok = self.toks[self.pos + k]
        return tok[0] == "op" and tok[1] in values

    def at_end(self):
        return self.toks[self.pos][0] == "eof"

    def next(self):
        tok = self.toks[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        elif self.brace is not None:
            raise AsgSyntaxError("unterminated '{' block", *self.brace[2:])
        return tok

    def expect(self, value):
        tok = self.next()
        if tok[:2] != ("op", value):
            self.fail(f"expected {value!r}", tok)
        return tok

    def integer(self, message):
        tok = self.next()
        if tok[0] != "int":
            self.fail(message, tok)
        return tok[1]

    @staticmethod
    def fail(message, tok):
        kind, value, line, col = tok
        found = "end of input" if kind == "eof" else repr(f'"{value}"' if kind == "str" else value)
        raise AsgSyntaxError(f"{message}, found {found}", line, col)

    # -- terms ------------------------------------------------------------
    def parse_term(self):
        left = self.parse_simple_term()
        while self.at("+", "-", "*"):
            op = self.next()[1]
            left = Arith(op, left, self.parse_simple_term())
        return left

    def parse_simple_term(self):
        tok = self.next()
        kind, val = tok[:2]
        if kind in ("int", "ident"):
            return val
        if kind == "str":
            return QStr(val)
        if kind == "var":
            return Var(val)
        if tok[:2] == ("op", "-"):
            return -self.integer("expected integer after unary minus")
        if tok[:2] != ("op", "("):
            self.fail("unexpected token in term", tok)
        items = self.parse_terms()
        return items[0] if len(items) == 1 else Tup(tuple(items))

    def parse_terms(self):
        """Comma-separated terms up to a closing ')', the '(' consumed."""
        items = [self.parse_term()]
        while self.at(","):
            self.next()
            items.append(self.parse_term())
        self.expect(")")
        return items

    # -- literals ---------------------------------------------------------
    def parse_literal(self):
        """An atom ``pred[(terms)][@k]``, or a comparison between terms,
        after an optional ``not``."""
        neg = self.peek()[:2] == ("ident", "not")
        if neg:
            self.next()
        kind, pred = self.peek()[:2]
        if kind != "ident" or self.at(*COMPARISONS, k=1):
            left = self.parse_term()
            if not self.at(*COMPARISONS):
                self.fail("expected comparison operator", self.peek())
            op = self.next()[1]
            return Literal(op, (left, self.parse_term()), neg=neg, builtin=op)
        self.next()
        args, child = (), None
        if self.at("("):
            self.next()
            args = tuple(self.parse_terms())
        if self.at("@"):
            self.next()
            child = self.integer("expected integer after '@'")
        return Literal(pred, args, neg=neg, child=child)

    def parse_rule(self, rule_id):
        head = None
        if not self.at(":-"):
            head = self.parse_literal()
            if head.builtin or head.neg or head.child is not None:
                raise AsgSyntaxError(
                    "rule head must be a positive plain atom", *self.peek()[2:]
                )
        body = []
        if self.at(":-"):
            self.next()
            body.append(self.parse_literal())
            while self.at(","):
                self.next()
                body.append(self.parse_literal())
        self.expect(".")
        return Rule(head, tuple(body), rule_id)

    def rules(self, name):
        """Rules up to a closing '}' or the end of input, with ids name:k."""
        out = []
        while not (self.at("}") or self.at_end()):
            out.append(self.parse_rule(f"{name}:{len(out)}"))
        return out

    def block(self, name):
        """The fragment of the ``{ rules }`` block at the cursor."""
        self.brace = self.expect("{")
        rules = self.rules(name)
        self.expect("}")
        self.brace = None
        return LogicFragment(rules, name)


def parse_rules(text, fragment_name="frag"):
    cursor = _RuleParser(tokenize(text))
    rules = cursor.rules(fragment_name)
    if not cursor.at_end():
        cursor.fail("unexpected token", cursor.peek())
    return rules


# ---------------------------------------------------------------------------
# Fragment: a list of rules, compiled into join plans at first evaluation.


def _term_vars(t, out=None):
    out = set() if out is None else out
    if isinstance(t, Var):
        out.add(t.name)
    elif isinstance(t, Tup):
        for i in t.items:
            _term_vars(i, out)
    elif isinstance(t, Arith):
        _term_vars(t.left, out)
        _term_vars(t.right, out)
    return out


def _term_has_arith(t):
    return isinstance(t, Arith) or isinstance(t, Tup) and any(map(_term_has_arith, t.items))


def literal_vars(lit):
    return set().union(*map(_term_vars, lit.args))


def _binding_vars(lit):
    """Variables a positive body literal can bind: those outside arithmetic."""
    return set().union(*[_term_vars(a) for a in lit.args if not _term_has_arith(a)])


@dataclass
class LogicFragment:
    rules: tuple
    name: str = "frag"
    # computed in __post_init__
    local_preds: frozenset = field(default_factory=frozenset)
    strata: dict = field(default_factory=dict)
    rule_defer_deps: dict = field(default_factory=dict)
    max_child: int = 0
    child_reads: tuple = ()  # the positions k of the @k literals, ascending
    constrained: bool = False  # some rule is a hard constraint

    def __post_init__(self):
        self.rules = tuple(self.rules)
        self.local_preds = frozenset(
            r.head.pred for r in self.rules if r.head is not None
        )
        self.child_reads = tuple(
            sorted({lit.child for r in self.rules for lit in r.body if lit.child})
        )
        self.max_child = max(self.child_reads, default=0)
        self.constrained = any(r.head is None for r in self.rules)
        self._validate_safety()
        self._components, self.strata = self._stratify()
        # pred -> child positions it depends on, transitively
        child_deps, by_head = {}, {}
        for r in self.rules:
            if r.head is not None:
                by_head.setdefault(r.head.pred, []).extend(r.body)
        for comp in self._components:
            deps = set()
            for lit in itertools.chain.from_iterable(by_head[p] for p in comp):
                if lit.child is not None:
                    deps.add(lit.child)
                elif lit.pred in child_deps:
                    deps |= child_deps[lit.pred]
            child_deps.update(dict.fromkeys(comp, deps))
        self.rule_defer_deps = {}
        for r in self.rules:
            deps = set()
            for lit in r.body:
                if lit.child is not None:
                    deps.add(lit.child)
                elif lit.neg and not lit.builtin:
                    deps |= child_deps.get(lit.pred, set())
            self.rule_defer_deps[r.rule_id] = frozenset(deps)
        self._plan = None  # compiled at first evaluation

    # -- static checks ----------------------------------------------------
    def _validate_safety(self):
        for r in self.rules:
            bound = set()
            for lit in r.body:
                if not lit.neg and not lit.builtin:
                    bound |= _binding_vars(lit)
            need = set()
            if r.head is not None:
                need |= literal_vars(r.head)
            for lit in r.body:
                if lit.neg or lit.builtin:
                    need |= literal_vars(lit)
                else:
                    # variables inside arithmetic must be bound elsewhere
                    for a in lit.args:
                        if _term_has_arith(a):
                            _term_vars(a, need)
            unsafe = need - bound
            if unsafe:
                raise AsgSyntaxError(
                    f"unsafe rule {format_rule(r)!r}: "
                    f"variable(s) {sorted(unsafe)} not bound by a positive body literal"
                )

    def dependency_edges(self):
        """(head_pred, body_pred_key, negative) edges; @k atoms become
        position-tagged predicate names so tree recursion is well founded."""
        edges = []
        for r in self.rules:
            hp = r.head.pred if r.head is not None else f"#constraint:{r.rule_id}"
            for lit in r.body:
                if lit.builtin:
                    continue
                key = lit.pred if lit.child is None else f"{lit.pred}@{lit.child}"
                edges.append((hp, key, lit.neg))
        return edges

    def _stratify(self):
        """The local predicates' strongly connected components, each after
        the components it reads, and each local predicate's stratum: the
        most negative edges on a dependency path below it."""
        report = check_stratified([self])
        if not report.ok:
            raise StratificationError(
                f"fragment {self.name} is not stratified: {report.describe()}",
                report.cycles,
            )
        components = [c for c in report.components if c & self.local_preds]
        deps, strata = {}, {}
        for hp, q, neg in self.dependency_edges():
            deps.setdefault(hp, []).append((q, neg))
        for comp in components:
            s = max((strata[q] + neg for p in comp for q, neg in deps.get(p, ()) if q in strata),
                    default=0)
            strata.update(dict.fromkeys(comp, s))
        return components, strata

    def _runnable(self, unrealized):
        """(groups, constraints, deferred rule ids) when the child positions
        ``unrealized`` are not realised.  Groups come in dependency order as
        (recursive, [join]); constraints as (rule id, join)."""
        plan = self._plan
        if plan is None:
            plan = self._plan = _PLANS.get(self.rules) or _compile_fragment(self)
        runnable = plan.runnable.get(unrealized)
        if runnable is None:
            live = lambda r: not (self.rule_defer_deps[r.rule_id] & unrealized)
            runnable = plan.runnable[unrealized] = (
                [(rec, [j for r, j in rules if j and live(r)]) for rec, rules in plan.groups],
                [(r.rule_id, j) for r, j in plan.constraints if j and live(r)],
                tuple(r.rule_id for r in self.rules if not live(r)),
            )
        return runnable


# ---------------------------------------------------------------------------
# Stratification report over one or more fragments.


@dataclass
class StratReport:
    ok: bool
    cycles: tuple = ()
    components: tuple = ()  # strongly connected components, dependencies first

    def describe(self):
        return "; ".join("negation cycle through " + " -> ".join(c) for c in self.cycles) or "ok"


def check_stratified(fragments):
    """Predicate dependency graph over the union of fragments; ok iff no
    cycle contains a negative edge.  Tarjan's algorithm emits each
    strongly connected component after every component it reaches, so
    ``components`` comes out in evaluation order."""
    pos, neg, nodes = {}, {}, set()
    for frag in fragments:
        nodes |= frag.local_preds
        for hp, key, is_neg in frag.dependency_edges():
            nodes.add(hp)
            nodes.add(key)
            (neg if is_neg else pos).setdefault(hp, set()).add(key)
    # find strongly connected components, flag ones with internal neg edge
    index, low, onstack, stack, sccs = {}, {}, {}, [], []
    counter = itertools.count()

    def strongconnect(v):
        work = [(v, iter(sorted(pos.get(v, set()) | neg.get(v, set()))))]
        index[v] = low[v] = next(counter)
        stack.append(v)
        onstack[v] = True
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = next(counter)
                    stack.append(w)
                    onstack[w] = True
                    work.append((w, iter(sorted(pos.get(w, set()) | neg.get(w, set())))))
                    advanced = True
                    break
                elif onstack.get(w):
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    for v in sorted(nodes):
        if v not in index:
            strongconnect(v)

    bad = [tuple(sorted(c)) for c in sccs if any(neg.get(v, set()) & c for v in c)]
    return StratReport(ok=not bad, cycles=tuple(bad), components=tuple(sccs))


EMPTY_FRAGMENT = LogicFragment((), "empty")


# ---------------------------------------------------------------------------
# Evaluation.

SAT = "satisfiable"
UNSAT = "unsatisfiable"
DEFERRED = "deferred-ok"


@dataclass(frozen=True)
class SatResult:
    status: str
    model: frozenset = frozenset()
    violated: Optional[str] = None
    deferred: tuple = ()

    @property
    def ok(self):
        return self.status != UNSAT


class FactIndex(dict):
    """Atoms as pred -> set(args), with a hash index per (pred, arity,
    bound argument positions), each built at its first lookup."""

    __slots__ = ("indexes",)

    def __init__(self, *args):
        super().__init__(*args)
        self.indexes = {}

    def lookup(self, spec, key):
        """Facts of spec = (pred, arity, positions) whose arguments there
        equal ``key``; with no positions, of any arity."""
        if not spec[2]:
            return self.get(spec[0], ())
        idx = self.indexes.get(spec)
        if idx is None:
            idx = self.indexes[spec] = _bucket(self.get(spec[0], ()), spec, {})
        return idx.get(key, ())

    def holds(self, pred, args):
        return args in self.get(pred, ())


def _bucket(facts, spec, idx):
    _, arity, positions = spec
    for args in facts:
        if len(args) == arity:
            idx.setdefault(tuple([args[p] for p in positions]), []).append(args)
    return idx


class Model(frozenset):
    """Atoms that keep their FactIndex once ``index_model`` has built it."""

    __slots__ = ("index",)


def index_model(model):
    idx = getattr(model, "index", None)
    if idx is None:
        idx = FactIndex()
        for pred, args in model:
            idx.setdefault(pred, set()).add(args)
        if isinstance(model, Model):
            model.index = idx
    return idx


class _Store(FactIndex):
    """Atoms derived by one evaluation.  Lookups on a derived predicate
    also see the background's facts of it.  An index holds the atoms added
    before it was built, so a recursive group clears the indexes before
    each round."""

    __slots__ = ("background", "atoms", "cap")

    def __init__(self, background, cap):
        super().__init__()
        self.background, self.cap = background, cap
        self.atoms = []  # (pred, args) in derivation order; its length is the count

    def lookup(self, spec, key):
        idx = self.indexes.get(spec)
        if idx is None:
            idx = self.indexes[spec] = _bucket(
                self.background.get(spec[0], ()), spec, _bucket(self.get(spec[0], ()), spec, {})
            )
        return idx.get(key, ())

    def holds(self, pred, args):
        return args in self.get(pred, ()) or args in self.background.get(pred, ())

    def add(self, pred, args):
        facts = self.get(pred)
        if facts is None:
            self[pred] = {args}
        elif args in facts:
            return
        else:
            facts.add(args)
        self.atoms.append((pred, args))
        if len(self.atoms) > self.cap:
            raise GroundingOverflow(f"more than {self.cap} ground atoms derived")


# A join runs over ctx = [store, background, child 1, child 2, ...].  Each
# rule's join plan is generated as the source of one Python loop nest and
# compiled once: one ``for`` loop per positive literal over
# ``ctx[src].lookup(spec, key)``, a local ``v<slot>`` per rule variable, and
# each check, binder, sum and tuple match an inline statement.  The head is
# ``store.add(...)``; a constraint's join returns True at its first
# violating binding.  Three rules keep the generator sound:
# 1. No text of a rule reaches the source.  Constants, predicate names and
#    index specs are names in the functions' namespace, and the comparison
#    and sum operators come from the fixed tables below.
# 2. A failed test is ``continue``, or ``return False`` outside any loop,
#    never another nested ``if``.
# 3. After _MAX_LOOPS nested loops the join calls a further generated
#    function with the bound variables, since CPython refuses more than 20
#    statically nested blocks.

_STORE, _BACKGROUND = 0, 1  # child k is ctx[_BACKGROUND + k]
_OPERATORS = {op: op for op in ("+", "-", "*", "<", "<=", ">", ">=")}
_MAX_LOOPS = 16


def _matchable(args, bound):
    """The bound set after matching ``args`` left to right, or None when a
    sum meets an unbound variable, so the literal cannot match yet."""
    bound = set(bound)

    def walk(t):
        if isinstance(t, Arith):
            return _term_vars(t) <= bound
        if isinstance(t, Tup):
            return all(walk(i) for i in t.items)
        _term_vars(t, bound)
        return True

    return bound if all(walk(a) for a in args) else None


def _binder(lit, bound):
    """(variable, term) when ``V = term`` can bind the unbound V."""
    if lit.builtin == "=" and not lit.neg:
        for var, term in (lit.args, lit.args[::-1]):
            if isinstance(var, Var) and var.name not in bound and _term_vars(term) <= bound:
                return var.name, term
    return None


def _plan_steps(body, positives, checks):
    """Join order as (kind in pos/check/bind, body index, bound set before)
    steps, or None when no order of the positives binds the variables of
    their sums.  A check or binder goes where its variables are first
    bound.  Of the positives whose sums the positives before them bind,
    the one with all arguments bound leads, then the most bound arguments,
    then body order."""
    bound, matched, todo, pending, steps = set(), set(), list(positives), list(checks), []

    def place():
        j = 0
        while j < len(pending):
            lit = body[pending[j]]
            binder = _binder(lit, bound)
            if binder or literal_vars(lit) <= bound:
                steps.append(("bind" if binder else "check", pending.pop(j), frozenset(bound)))
                bound.update(binder[:1] if binder else ())
                j = 0
            else:
                j += 1

    def score(i):
        nbound = sum(_term_vars(a) <= bound for a in body[i].args)
        return (nbound == len(body[i].args), nbound)

    place()
    while todo:
        ready = [i for i in todo if _matchable(body[i].args, matched) is not None]
        if not ready:
            return None
        i = max(ready, key=score)
        steps.append(("pos", i, frozenset(bound)))
        matched = _matchable(body[i].args, matched)
        bound |= matched
        todo.remove(i)
        place()
    return steps


class _JoinSource:
    """The source of one rule's join as functions f0, f1, ..., each of which
    calls the next after _MAX_LOOPS loops, and the namespace they run in.
    ``emit`` writes FAIL as the way out of a failed test."""

    def __init__(self, names):
        self.v = {name: f"v{k}" for k, name in enumerate(sorted(names))}
        self.ns, self.funcs, self.temps = {"Tup": Tup}, [], itertools.count()
        self.chain(())

    def const(self, value):
        name = f"c{len(self.ns)}"
        self.ns[name] = value
        return name

    def emit(self, line):
        fail = "continue" if self.loops else "return False"
        self.body.append("    " * self.depth + line.replace("FAIL", fail))

    def chain(self, bound):
        """Go on in a new function of ctx and the variables of ``bound``."""
        name, args = f"f{len(self.funcs)}", ", ".join(["ctx"] + sorted(self.v[v] for v in bound))
        if self.funcs:
            self.emit(f"if {name}({args}): return True")
        self.fetch, self.body, self.depth, self.loops = {}, [], 1, 0
        self.funcs.append((f"def {name}({args}):", self.fetch, self.body))

    def method(self, src, name):
        """A local bound to ``ctx[src].name`` at the top of the function."""
        local = f"{name[0]}{src}"
        self.fetch[local] = f"    {local} = ctx[{src}].{name}"
        return local

    def source(self):
        return "\n".join(line for head, fetch, body in self.funcs
                         for line in (head, *fetch.values(), *body, "    return False")) + "\n"

    def ints(self, exprs, terms):
        """Tests that the values of ``terms``, at ``exprs``, are integers."""
        return [f"isinstance({x}, int)" for x, t in zip(exprs, terms) if not isinstance(t, (int, Arith))]

    def value(self, t):
        """An expression for the value of ``t``, whose variables are bound;
        its sums are computed first, and an undefined one fails."""
        if isinstance(t, Var):
            return self.v[t.name]
        if isinstance(t, Arith):
            operands = self.value(t.left), self.value(t.right)
            total, tests = f"s{next(self.temps)}", self.ints(operands, (t.left, t.right))
            if tests:
                self.emit(f"if not ({' and '.join(tests)}): FAIL")
            self.emit(f"{total} = {operands[0]} {_OPERATORS[t.op]} {operands[1]}")
            self.emit(f"if not {-(2**63)} <= {total} <= {2**63 - 1}: FAIL")
            return total
        if isinstance(t, Tup) and (_term_vars(t) or _term_has_arith(t)):
            return f"Tup({self.values(t.items)})"
        return self.const(t)

    def values(self, terms):
        return "(" + "".join(self.value(t) + ", " for t in terms) + ")"

    def match(self, t, x, inner):
        """Match the value ``x`` against ``t``, binding each variable not in
        ``inner`` at its first occurrence, left to right."""
        if isinstance(t, Var) and t.name not in inner:
            inner.add(t.name)
            self.emit(f"{self.v[t.name]} = {x}")
        elif isinstance(t, Tup) and not _term_vars(t) <= inner:
            items = f"i{next(self.temps)}"
            self.emit(f"if not isinstance({x}, Tup) or len({x}.items) != {len(t.items)}: FAIL")
            self.emit(f"{items} = {x}.items")
            for k, item in enumerate(t.items):
                self.match(item, f"{items}[{k}]", inner)
        else:
            self.emit(f"if {x} != {self.value(t)}: FAIL")

    def scan(self, lit, bound, src):
        """Loop over the facts that agree on the bound arguments of a
        positive literal, and match the others."""
        if self.loops == _MAX_LOOPS:
            self.chain(bound)
        keyed = [p for p, a in enumerate(lit.args) if _term_vars(a) <= bound]
        spec = self.const((lit.pred, len(lit.args), tuple(keyed)))
        key, inner, fields, tests = self.values([lit.args[p] for p in keyed]), set(bound), [], []
        for p, a in enumerate(lit.args):
            if p in keyed:
                fields.append("_")
            elif isinstance(a, Var) and a.name not in inner:
                inner.add(a.name)
                fields.append(self.v[a.name])
            else:
                fields.append(f"t{next(self.temps)}")
                tests.append((a, fields[-1]))
        row = "".join(f + ", " for f in fields) or "()"
        rows = f"{self.method(src, 'lookup')}({spec}, {key})"
        if not keyed and src != _STORE:  # FactIndex.lookup then returns every arity
            rows = f"[r for r in {rows} if len(r) == {len(lit.args)}]"
        self.emit(f"for {row} in {rows}:")
        self.depth, self.loops = self.depth + 1, self.loops + 1
        for a, x in tests:
            self.match(a, x, inner)

    def check(self, lit, src):
        """A builtin or negated literal whose variables are bound; a value
        it reads that is undefined fails it."""
        if not lit.builtin:
            args = self.values(lit.args)
            self.emit(f"if {self.method(src, 'holds')}({self.const(lit.pred)}, {args}): FAIL")
            return
        left, right = operands = self.value(lit.args[0]), self.value(lit.args[1])
        if lit.builtin in ("=", "!="):
            self.emit(f"if {left} {'!=' if (lit.builtin == '=') != lit.neg else '=='} {right}: FAIL")
        else:
            test = f"{'not ' if lit.neg else ''}{left} {_OPERATORS[lit.builtin]} {right}"
            self.emit(f"if not ({' and '.join(self.ints(operands, lit.args) + [test])}): FAIL")


def _compile_rule(rule, local_preds):
    """ctx -> stop for one rule, or None when the rule can never fire
    because no order of its positives binds the variables of their sums."""
    body = rule.body
    positives = [i for i, l in enumerate(body) if not l.neg and not l.builtin]
    checks = [i for i, l in enumerate(body) if l.builtin] + [
        i for i, l in enumerate(body) if l.neg and not l.builtin]
    steps = _plan_steps(body, positives, checks)
    if steps is None:
        return None
    gen = _JoinSource(set().union(*map(literal_vars, body + ((rule.head,) if rule.head else ()))))
    for kind, i, bound in steps:
        lit = body[i]
        if kind == "pos":
            src = _BACKGROUND + lit.child if lit.child else _STORE if lit.pred in local_preds else _BACKGROUND
            gen.scan(lit, bound, src)
        elif kind == "check":
            gen.check(lit, _BACKGROUND + lit.child if lit.child else _STORE)
        else:
            var, term = _binder(lit, bound)
            gen.emit(f"{gen.v[var]} = {gen.value(term)}")
    if rule.head is None:
        gen.emit("return True")
    else:
        args = gen.values(rule.head.args)
        gen.emit(f"{gen.method(_STORE, 'add')}({gen.const(rule.head.pred)}, {args})")
    exec(compile(gen.source(), "<join>", "exec"), gen.ns)
    return gen.ns["f0"]


class _Plan:
    """Rule groups in dependency order as (recursive, [(rule, join)]),
    constraints as [(rule, join)], and the runnable plan per set of
    unrealised read positions.  Fragments with equal rules (instances of
    one task) share a plan through ``_PLANS`` while one of them lives."""

    __slots__ = ("groups", "constraints", "runnable", "__weakref__")


_PLANS = weakref.WeakValueDictionary()  # rules -> _Plan


def _compile_fragment(fragment):
    local, groups = fragment.local_preds, []
    for comp in fragment._components:
        rules = [r for r in fragment.rules if r.head is not None and r.head.pred in comp]
        recursive = len(comp) > 1 or any(
            not l.neg and l.child is None and l.pred in comp for r in rules for l in r.body
        )
        groups.append((recursive, [(r, _compile_rule(r, local)) for r in rules]))
    plan = _PLANS[fragment.rules] = _Plan()
    plan.groups, plan.runnable = groups, {}
    plan.constraints = [(r, _compile_rule(r, local)) for r in fragment.rules if r.head is None]
    return plan


def evaluate_node(fragment, child_models, background, atom_cap=DEFAULT_ATOM_CAP):
    """Evaluate one parse-tree node's annotation.

    ``child_models`` holds one entry per RHS position: a frozenset of atoms
    for realised children (terminals are always the empty model), or None
    for children not yet realised.  ``background`` is a pred->set(args)
    index, visible in rule bodies but not re-exported.

    Rule groups run in dependency order: a non-recursive group once, a
    recursive one in rounds of all its joins until a round adds no atom.
    """
    unrealized = frozenset([k for k in fragment.child_reads if child_models[k - 1] is None])
    groups, constraints, deferred = fragment._runnable(unrealized)
    if not isinstance(background, FactIndex):
        background = FactIndex(background)
    store = _Store(background, atom_cap)
    ctx = [store, background] + [None] * len(child_models)
    for k in fragment.child_reads:
        m = child_models[k - 1]
        if m is not None:
            ctx[_BACKGROUND + k] = index_model(m)
    atoms = store.atoms
    for recursive, joins in groups:
        grew = True
        while grew:
            start = len(atoms)
            if recursive:
                store.indexes.clear()  # the group's own predicates may have grown
            for join in joins:
                join(ctx)
            grew = recursive and len(atoms) > start
    for rule_id, join in constraints:
        if join(ctx):
            return SatResult(UNSAT, violated=rule_id)
    model = frozenset(atoms)
    if deferred:
        return SatResult(DEFERRED, model=model, deferred=deferred)
    return SatResult(SAT, model=model)
