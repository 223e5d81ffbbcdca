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

Each fragment's live rules, per set of unrealised children read, run as
one generated Python function; the comment above ``_JoinSource`` gives its
shape and the rules that keep it sound.
"""

from __future__ import annotations

import itertools
import re
import weakref
from dataclasses import dataclass, field
from operator import itemgetter
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
    """A tuple term, whose hash is computed once."""

    items: tuple
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.items,)))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, slots=True)
class Arith:
    op: str  # + - *
    left: object
    right: object


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

    def __post_init__(self):
        self.rules = tuple(self.rules)
        self.local_preds = frozenset(
            r.head.pred for r in self.rules if r.head is not None
        )
        # the positions k of the @k literals, ascending
        self.child_reads = tuple(
            sorted({lit.child for r in self.rules for lit in r.body if lit.child})
        )
        self.max_child = max(self.child_reads, default=0)
        self.constrained = any(r.head is None for r in self.rules)  # has a hard constraint
        self._validate_safety()
        self._components = self._stratify()
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
        the components it reads.  A cycle through a negative edge raises
        StratificationError."""
        edges, succ, reach = self.dependency_edges(), {}, {}
        for hp, q, _ in edges:
            succ.setdefault(hp, set()).add(q)
        for p in self.local_preds:  # what p reaches along one or more edges
            todo, reach[p] = list(succ.get(p, ())), set()
            while todo:
                q = todo.pop()
                if q not in reach[p]:
                    reach[p].add(q)
                    todo.extend(succ.get(q, ()))
        comp = {p: frozenset([p] + [q for q in reach[p] if p in reach.get(q, ())])
                for p in self.local_preds}
        cycles = sorted({tuple(sorted(comp[q]))
                         for hp, q, neg in edges if neg and hp in reach.get(q, ())})
        if cycles:
            raise StratificationError(
                f"fragment {self.name} is not stratified: "
                + "; ".join("negation cycle through " + " -> ".join(c) for c in cycles),
                cycles,
            )
        # a component reaches strictly more than every component it reads
        return sorted(set(comp.values()), key=lambda c: (len(reach[min(c)] | c), sorted(c)))

    def _runnable(self, child_models):
        """(compiled evaluation, deferred rule ids) for ``child_models``, as
        ``evaluate_node`` reads them.  A runnable plan is compiled once per
        set of unrealised reads, and found by the number of children when
        none is None, else by the unrealised reads."""
        plan = self._plan
        if plan is None:
            plan = self._plan = _PLANS.get(self.rules) or _compile_fragment(self)
        n = len(child_models)
        key = n if None not in child_models else frozenset(
            [k for k in self.child_reads if k > n or child_models[k - 1] is None])
        runnable = plan.runnable.get(key)
        if runnable is None:
            unrealized = key if key.__class__ is frozenset else frozenset(
                [k for k in self.child_reads if k > n])
            runnable = plan.runnable.get(unrealized) or _compile_runnable(self, plan, unrealized)
            plan.runnable[key] = plan.runnable[unrealized] = runnable
        return runnable


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


class Model(frozenset):
    """Atoms (pred, args) that index themselves at first read and keep the
    indexes: ``get`` reads a predicate's set of argument tuples, as
    ``dict.get`` of a pred -> set(args) mapping, and ``bucket`` the hash
    index of spec = (pred, arity, positions), as ``_bucket``."""

    __slots__ = ("_args", "_buckets")

    def __init__(self, atoms=()):
        self._args, self._buckets = None, {}

    def get(self, pred, default=()):
        args = self._args
        if args is None:
            args = self._args = {}
            for p, a in self:
                args.setdefault(p, set()).add(a)
        return args.get(pred, default)

    def bucket(self, spec):
        idx = self._buckets.get(spec)
        if idx is None:
            idx = self._buckets[spec] = _bucket(self.get(spec[0]), spec, {})
        return idx


def _bucket(facts, spec, idx):
    """``idx`` with the facts of spec's arity added under their arguments
    at spec's positions: a value for one position, else a tuple."""
    _, arity, positions = spec
    if not positions:
        rows = [args for args in facts if len(args) == arity]
        if rows:
            idx.setdefault((), []).extend(rows)
        return idx
    key = itemgetter(*positions)
    for args in facts:
        if len(args) == arity:
            idx.setdefault(key(args), []).append(args)
    return idx


def _store_index(facts, spec, background):
    """The index of spec over a local predicate's derived facts and the
    background's facts of it."""
    return _bucket(background.get(spec[0]), spec, _bucket(facts, spec, {}))


# The live rules of a fragment, for one set of unrealised read positions,
# are generated as one function ``run(bg, models, cap)``, compiled once,
# that returns the derived atoms or the id of the first violated
# constraint.  Each rule's join is a loop nest, in dependency order: a
# ``for`` loop per positive literal over the rows of an index that agree on
# its bound arguments, a local ``v<slot>`` per rule variable, and each
# check, binder, sum and tuple match an inline statement.  A recursive
# group is a ``while`` loop whose rounds reset its store indexes and stop
# when ``atoms`` does not grow; the constraints come last.  The store is a
# local set per local predicate and arity; a head is added to it and to
# ``atoms`` inline, with the cap check.  An index is a local built at its
# first read, through the ``Model`` of a child or of the background, or
# from a local predicate's set and the background's facts of it: not at
# all when both are empty, and a complete set with no background facts is
# read as it is.  Three rules keep the generator sound:
# 1. No text of a rule reaches the source.  Constants, predicate names,
#    rule ids and index specs are names in the function's namespace, and
#    the comparison and sum operators come from the fixed table below.
# 2. A failed test is ``continue``, never another nested ``if``.  A rule
#    with a test outside its loops runs in a one-pass loop; in a chained
#    function such a test is ``return False``.
# 3. After _MAX_LOOPS nested loops the join calls a further generated
#    function, nested in ``run``, with the bound variables, since CPython
#    refuses more than 20 statically nested blocks (a group's ``while``
#    and a one-pass loop add two).

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


def _plan_steps(body):
    """Join order as (kind in pos/check/bind, body index, bound set before)
    steps, or None when no order of the positives binds the variables of
    their sums, so the rule never fires.  A check or binder goes where its
    variables are first bound.  Of the positives whose sums the positives
    before them bind, the one with all arguments bound leads, then the
    most bound arguments, then body order."""
    todo = [i for i, l in enumerate(body) if not l.neg and not l.builtin]
    pending = [i for i, l in enumerate(body) if l.builtin] + [
        i for i, l in enumerate(body) if l.neg and not l.builtin]
    bound, matched, steps = set(), set(), []

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
    """The source of one ``run``, with the functions its long joins chain
    into nested in it, and the namespace it runs in.  ``emit`` writes FAIL
    as the way out of a failed test."""

    def __init__(self, local_preds):
        self.local, self.sets, self.lazies, self.funcs = local_preds, {}, {}, []
        self.ns = {"Tup": Tup, "E": {}, "index": _store_index,
                   "Overflow": GroundingOverflow}
        self.body, self.depth, self.shared, self.temps = [], 1, None, itertools.count()
        self.own = ()  # the predicates of the recursive group being emitted

    def const(self, value):
        name = f"c{len(self.ns)}"
        self.ns[name] = value
        return name

    def emit(self, line):
        if "FAIL" in line:
            in_run = self.shared is None
            self.bare = self.bare or in_run and not self.loops
            line = line.replace("FAIL", "continue" if self.loops or in_run else "return False")
        self.body.append("    " * self.depth + line)

    def facts(self, pred, arity):
        """The local set of the atoms derived of pred with that arity."""
        return self.sets.setdefault((pred, arity), f"r{len(self.sets)}")

    def lazy(self, key, expr):
        """A local set to ``expr()`` by the statement emitted here when it is
        None: before its first read, and after a group's round resets it."""
        if key not in self.lazies:
            self.lazies[key] = f"x{len(self.lazies)}", expr()
        name, value = self.lazies[key]
        if self.shared is not None:
            self.shared.add(name)
        self.emit(f"if {name} is None: {name} = {value}")
        return name

    def chain(self, bound):
        """Go on in a new function, nested in ``run``, of the variables of
        ``bound``."""
        call = f"f{len(self.funcs) + 1}({', '.join(sorted(self.v[v] for v in bound))})"
        self.emit(f"if {call}: {self.violation}" if self.violation else call)
        self.shared, self.body, self.depth, self.loops = set(), [], 1, 0
        self.funcs.append((call, self.shared, self.body))
        self.violation = self.violation and "return True"

    def source(self):
        lines = ["def run(bg, models, cap):", "    atoms = []"]
        lines += [f"    {name} = set()" for name in self.sets.values()]
        if self.lazies:
            lines.append("    " + " = ".join(name for name, _ in self.lazies.values()) + " = None")
        for call, shared, body in self.funcs:
            lines.append(f"    def {call}:")
            if shared:
                lines.append(f"        nonlocal {', '.join(sorted(shared))}")
            lines += ["    " + line for line in body]
        return "\n".join(lines + self.body + ["    return atoms"]) + "\n"

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

    def rows(self, lit, keyed):
        """A local holding the index that a positive literal reads, or with
        no ``keyed`` positions, the list of its facts."""
        spec, tail = (lit.pred, len(lit.args), tuple(keyed)), "" if keyed else ".get((), ())"
        if lit.child or lit.pred not in self.local:
            src = f"models[{lit.child - 1}]" if lit.child else "bg"
            return self.lazy((src, spec), lambda: f"{src}.bucket({self.const(spec)}){tail}")
        facts, held = self.facts(lit.pred, len(lit.args)), self.const(lit.pred)
        if not keyed and lit.pred not in self.own:  # complete, so the set itself
            return self.lazy(("store", spec), lambda: (
                f"index({facts}, {self.const(spec)}, bg){tail} if bg.get({held}) else {facts}"))
        return self.lazy(("store", spec), lambda: (
            f"index({facts}, {self.const(spec)}, bg){tail} if {facts} or "
            f"bg.get({held}) else {'E' if keyed else '()'}"))

    def scan(self, lit, bound):
        """Loop over the facts that agree on the bound arguments of a
        positive literal, and match the others."""
        if self.loops == _MAX_LOOPS:
            self.chain(bound)
        keyed = [p for p, a in enumerate(lit.args) if _term_vars(a) <= bound]
        rows = self.rows(lit, keyed)
        if keyed:
            key = [lit.args[p] for p in keyed]
            rows += f".get({self.value(key[0]) if len(key) == 1 else self.values(key)}, ())"
        inner, fields, tests = set(bound), [], []
        for p, a in enumerate(lit.args):
            if p in keyed:
                fields.append("_")
            elif isinstance(a, Var) and a.name not in inner:
                inner.add(a.name)
                fields.append(self.v[a.name])
            else:
                fields.append(f"t{next(self.temps)}")
                tests.append((a, fields[-1]))
        self.emit(f"for {''.join(f + ', ' for f in fields) or '()'} in {rows}:")
        self.depth, self.loops = self.depth + 1, self.loops + 1
        for a, x in tests:
            self.match(a, x, inner)

    def check(self, lit):
        """A builtin or negated literal whose variables are bound; a value
        it reads that is undefined fails it."""
        if not lit.builtin:
            args, src = self.values(lit.args), f"models[{lit.child - 1}]" if lit.child else "bg"
            held = self.lazy((src, lit.pred), lambda: f"{src}.get({self.const(lit.pred)}, ())")
            if lit.child or lit.pred not in self.local:
                self.emit(f"if {args} in {held}: FAIL")
            else:
                atom, facts = f"t{next(self.temps)}", self.facts(lit.pred, len(lit.args))
                self.emit(f"{atom} = {args}")
                self.emit(f"if {atom} in {facts} or {atom} in {held}: FAIL")
            return
        left, right = operands = self.value(lit.args[0]), self.value(lit.args[1])
        if lit.builtin in ("=", "!="):
            self.emit(f"if {left} {'!=' if (lit.builtin == '=') != lit.neg else '=='} {right}: FAIL")
        else:
            test = f"{'not ' if lit.neg else ''}{left} {_OPERATORS[lit.builtin]} {right}"
            self.emit(f"if not ({' and '.join(self.ints(operands, lit.args) + [test])}): FAIL")

    def rule(self, rule, steps):
        """One rule's join, which adds its head's atoms unless known; a
        constraint's returns its id at its first violating binding."""
        run, depth, start = self.body, self.depth, len(self.body)
        names = set().union(*map(literal_vars, rule.body + ((rule.head,) if rule.head else ())))
        self.v = {name: f"v{k}" for k, name in enumerate(sorted(names))}
        self.violation = None if rule.head else f"return {self.const(rule.rule_id)}"
        self.bare, self.loops = False, 0
        for kind, i, bound in steps:
            if kind == "pos":
                self.scan(rule.body[i], bound)
            elif kind == "check":
                self.check(rule.body[i])
            else:
                var, term = _binder(rule.body[i], bound)
                self.emit(f"{self.v[var]} = {self.value(term)}")
        if rule.head is None:
            self.emit(self.violation)
        else:
            facts = self.facts(rule.head.pred, len(rule.head.args))
            self.emit(f"a = {self.values(rule.head.args)}")
            self.emit(f"if a not in {facts}:")
            self.depth += 1
            self.emit(f"{facts}.add(a)")
            self.emit(f"atoms.append(({self.const(rule.head.pred)}, a))")
            self.emit("if len(atoms) > cap:")
            self.emit("    raise Overflow(f'more than {cap} ground atoms derived')")
        if self.bare:
            run[start:] = ["    " * depth + "for _ in (0,):"] + [
                "    " + line for line in run[start:]]
        self.body, self.depth, self.shared = run, depth, None

    def group(self, preds, rules):
        """Rounds of a recursive group's rules until one derives no atom,
        each over indexes of the group's predicates built afresh."""
        count = f"g{next(self.temps)}"
        self.emit("while True:")
        self.depth += 1
        self.emit(f"{count} = len(atoms)")
        start, self.own = len(self.body), preds
        for rule, steps in rules:
            self.rule(rule, steps)
        self.own = ()
        resets = [name for (src, spec), (name, _) in self.lazies.items()
                  if src == "store" and spec[0] in preds]
        if resets:
            self.body.insert(start, "    " * self.depth + " = ".join(resets) + " = None")
        self.emit(f"if len(atoms) == {count}: break")
        self.depth -= 1


class _Plan:
    """Rule groups in dependency order as (its predicates if recursive, else
    None, [(rule, join steps)]), constraints as [(rule, join steps)], and
    the runnable plans (``LogicFragment._runnable``); shared through
    ``_PLANS`` by fragments with equal rules while one of them lives."""

    __slots__ = ("groups", "constraints", "runnable", "__weakref__")


_PLANS = weakref.WeakValueDictionary()  # rules -> _Plan


def _compile_fragment(fragment):
    plan = _PLANS[fragment.rules] = _Plan()
    plan.groups, plan.runnable = [], {}
    for comp in fragment._components:
        rules = [r for r in fragment.rules if r.head is not None and r.head.pred in comp]
        recursive = len(comp) > 1 or any(
            not l.neg and l.child is None and l.pred in comp for r in rules for l in r.body
        )
        steps = [(r, _plan_steps(r.body)) for r in rules]
        plan.groups.append(
            (comp if recursive else None, [(r, s) for r, s in steps if s is not None]))
    steps = [(r, _plan_steps(r.body)) for r in fragment.rules if r.head is None]
    plan.constraints = [(r, s) for r, s in steps if s is not None]
    return plan


def _compile_runnable(fragment, plan, unrealized):
    """(run, deferred rule ids) for the rules live while ``unrealized``
    positions are not realised."""
    live = lambda r: not (fragment.rule_defer_deps[r.rule_id] & unrealized)
    gen = _JoinSource(fragment.local_preds)
    for preds, rules in plan.groups:
        rules = [(r, steps) for r, steps in rules if live(r)]
        if not preds:
            for rule, steps in rules:
                gen.rule(rule, steps)
        elif rules:
            gen.group(preds, rules)
    for rule, steps in plan.constraints:
        if live(rule):
            gen.rule(rule, steps)
    exec(compile(gen.source(), "<evaluation>", "exec"), gen.ns)
    return gen.ns["run"], tuple(r.rule_id for r in fragment.rules if not live(r))


def evaluate_node(fragment, child_models, background, atom_cap=DEFAULT_ATOM_CAP):
    """Evaluate one parse-tree node's annotation.

    ``child_models`` holds the children's models left to right: a frozenset
    of atoms for a realised child (a terminal's is empty), or None for one
    not yet realised; positions past its end are not realised either.
    ``background`` is a ``Model``, or a pred -> set(args) dict, visible in
    rule bodies but not re-exported.  Rules that read an unrealised position
    are deferred.  Plain frozensets and dicts are read as a ``Model``.
    """
    run, deferred = fragment._runnable(child_models)
    if background.__class__ is not Model:
        background = Model([(p, a) for p, facts in background.items() for a in facts])
    for m in child_models:
        if m is not None and m.__class__ is not Model:
            child_models = [None if m is None else Model(m) for m in child_models]
            break
    atoms = run(background, child_models, atom_cap)
    if atoms.__class__ is str:
        return SatResult(UNSAT, violated=atoms)
    return SatResult(DEFERRED if deferred else SAT, frozenset(atoms), None, deferred)
