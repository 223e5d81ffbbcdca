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
"""

from __future__ import annotations

import itertools
import operator
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
    if isinstance(t, Arith):
        return True
    if isinstance(t, Tup):
        return any(_term_has_arith(i) for i in t.items)
    return False


def literal_vars(lit):
    out = set()
    for a in lit.args:
        _term_vars(a, out)
    return out


def _binding_vars(lit):
    """Variables a positive body literal can bind: those outside arithmetic."""
    out = set()
    for a in lit.args:
        if not _term_has_arith(a):
            _term_vars(a, out)
    return out


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

    def __post_init__(self):
        self.rules = tuple(self.rules)
        self.local_preds = frozenset(
            r.head.pred for r in self.rules if r.head is not None
        )
        self.child_reads = tuple(
            sorted({lit.child for r in self.rules for lit in r.body if lit.child})
        )
        self.max_child = max(self.child_reads, default=0)
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


# A join runs over ctx = [store, background, child 1, child 2, ...] and
# env, a list with one slot per rule variable.  Each step is a closure
# (ctx, env) -> stop that calls the next step once per extension of env;
# stop turns True once a constraint has found a violating binding.

_STORE, _BACKGROUND = 0, 1  # child k is ctx[_BACKGROUND + k]
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_CMP = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _term_fn(t, slots):
    """env -> value of a term whose variables are all bound, or None when
    a sum in it is undefined."""
    if isinstance(t, Var):
        return operator.itemgetter(slots[t.name])
    if isinstance(t, Tup):
        items = _tuple_fn(t.items, slots)
        return lambda env: None if (v := items(env)) is None else Tup(v)
    if not isinstance(t, Arith):
        return lambda env: t
    left, right, op = _term_fn(t.left, slots), _term_fn(t.right, slots), _ARITH[t.op]

    def arith(env):
        a, b = left(env), right(env)
        if not isinstance(a, int) or not isinstance(b, int):
            return None
        v = op(a, b)
        return v if -(2**63) <= v <= 2**63 - 1 else None

    return arith


def _tuple_fn(terms, slots):
    """env -> tuple of the values of ``terms``, whose variables are bound,
    or None when one of them is undefined."""
    if all(isinstance(t, Var) for t in terms):
        if len(terms) == 1:
            slot = slots[terms[0].name]
            return lambda env: (env[slot],)
        if terms:
            return operator.itemgetter(*[slots[t.name] for t in terms])
    fns = [_term_fn(t, slots) for t in terms]
    if not any(_term_has_arith(t) for t in terms):
        return lambda env: tuple([f(env) for f in fns])

    def values(env):
        out = tuple([f(env) for f in fns])
        return None if None in out else out

    return values


def _matcher(t, bound, slots):
    """(value, env) -> matches, for one argument; binds each variable not
    in ``bound`` at its first occurrence, left to right."""
    if isinstance(t, Var) and t.name not in bound:
        bound.add(t.name)
        slot = slots[t.name]
        return lambda value, env: env.__setitem__(slot, value) or True
    if isinstance(t, Tup) and not _term_vars(t) <= bound:
        subs, n = [_matcher(i, bound, slots) for i in t.items], len(t.items)
        return lambda value, env: (
            isinstance(value, Tup) and len(value.items) == n
            and all(m(v, env) for m, v in zip(subs, value.items))
        )
    f = _term_fn(t, slots)
    return lambda value, env: f(env) == value


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


def _check_fn(lit, slots):
    """(ctx, env) -> passes, for a builtin or negated literal whose
    variables are bound; False when a value it reads is undefined."""
    if not lit.builtin:
        src, pred, args = (_BACKGROUND + lit.child if lit.child else _STORE), lit.pred, _tuple_fn(lit.args, slots)
        return lambda ctx, env: (a := args(env)) is not None and not ctx[src].holds(pred, a)
    (left, right), neg, op = [_term_fn(a, slots) for a in lit.args], lit.neg, lit.builtin
    if op in ("=", "!="):
        want = (op == "=") != neg

        def compare(ctx, env):
            a, b = left(env), right(env)
            return a is not None and b is not None and (a == b) == want

        return compare
    cmp = _CMP[op]

    def order(ctx, env):
        a, b = left(env), right(env)
        return isinstance(a, int) and isinstance(b, int) and cmp(a, b) != neg

    return order


def _scan(lit, bound, slots, src, run):
    """Positive literal: look up the facts that agree on the bound
    arguments and match the others."""
    keyed = [p for p, a in enumerate(lit.args) if _term_vars(a) <= bound]
    key = _tuple_fn([lit.args[p] for p in keyed], slots) if keyed else None
    spec, arity = (lit.pred, len(lit.args), tuple(keyed)), len(lit.args)
    inner, binds, tests = set(bound), [], []
    for p, a in enumerate(lit.args):
        if isinstance(a, Var) and a.name not in inner:  # a first occurrence
            inner.add(a.name)
            binds.append((p, slots[a.name]))
        elif p not in keyed:
            tests.append((p, _matcher(a, inner, slots)))

    def scan(ctx, env):
        for args in ctx[src].lookup(spec, key(env) if key else ()):
            if len(args) != arity:
                continue
            for p, slot in binds:
                env[slot] = args[p]
            for p, m in tests:
                if not m(args[p], env):
                    break
            else:
                if run(ctx, env):
                    return True
        return False

    return scan


def _guard(lit, kind, bound, slots, run):
    """Check or binder step: ``run`` goes on with the bindings that pass."""
    if kind == "check":
        check = _check_fn(lit, slots)
        return lambda ctx, env: check(ctx, env) and run(ctx, env)
    var, term = _binder(lit, bound)
    slot, value = slots[var], _term_fn(term, slots)

    def bind(ctx, env):
        env[slot] = v = value(env)
        return v is not None and run(ctx, env)

    return bind


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
    names = set().union(*map(literal_vars, body + ((rule.head,) if rule.head else ())))
    slots = {v: k for k, v in enumerate(sorted(names))}
    if rule.head is None:
        run = lambda ctx, env: True
    else:
        pred, head = rule.head.pred, _tuple_fn(rule.head.args, slots)
        # add returns None, so the join goes on
        run = lambda ctx, env: (args := head(env)) is not None and ctx[_STORE].add(pred, args)
    for kind, i, bound in reversed(steps):
        lit = body[i]
        if kind == "pos":
            src = _BACKGROUND + lit.child if lit.child else _STORE if lit.pred in local_preds else _BACKGROUND
            run = _scan(lit, bound, slots, src, run)
        else:
            run = _guard(lit, kind, bound, slots, run)
    n = len(slots)
    return lambda ctx: run(ctx, [None] * n)


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
