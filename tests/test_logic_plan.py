"""The compiled evaluator against the reference evaluator in
``logic_reference``: random non-ground stratified programs, the
evaluations made while sampling on the task grammars, bodies longer than
one generated function nests, names that are also names of the generated
source, joins whose checks meet undefined values, which drop the binding
wherever the plan places the check, and a node's evaluations dot by dot."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import asgdec
from asgdec import earley
from asgdec.align import TerminalTokenizer, build_map
from asgdec.decoding import DecodeConfig, generate
from asgdec.errors import AsgError, AsgSyntaxError, StratificationError
from asgdec.logic import (
    DEFAULT_ATOM_CAP, SAT, UNSAT, LogicFragment, QStr, Tup, evaluate_node, parse_rules,
)
from asgdec.policy import UniformPolicy
from asgdec.tasks import TASK_IDS, generate_instances

from logic_reference import evaluate_node_reference

BIG = 2**62  # twice it is outside 64 bits, so X+X and X*2 are undefined on it
VALUES = ["0", "1", "2", "a", "b", "(0,1)", "(1,a)", "((0,1),a)", '"q"', '"1"', str(BIG)]
GROUND = {"0": 0, "1": 1, "2": 2, "a": "a", "b": "b",
          "(0,1)": Tup((0, 1)), "(1,a)": Tup((1, "a")), "((0,1),a)": Tup((Tup((0, 1)), "a")),
          '"q"': QStr("q"), '"1"': QStr("1"), str(BIG): BIG}
VARS = ["X", "Y", "Z"]


def _arg(rng, bound, depth=0):
    """A pattern argument: a variable, a constant, a tuple (possibly
    nested, possibly holding a sum), or a sum."""
    roll = rng.random()
    if roll < 0.55:
        return rng.choice(VARS)
    if roll < 0.75:
        return rng.choice(VALUES)
    if roll < 0.88 and depth < 2:
        return f"({_arg(rng, bound, depth + 1)},{_arg(rng, bound, depth + 1)})"
    if roll < 0.9 and not bound:
        return rng.choice(VARS)
    return _sum(rng, bound)


def _sum(rng, bound):
    """A sum, difference or product, possibly nested.  It mostly reads a
    variable bound earlier in the body; otherwise the rule is unsafe (and
    skipped) or the variable is bound later."""
    x = rng.choice(sorted(bound)) if bound and rng.random() < 0.9 else rng.choice(VARS)
    term = f"{x}{rng.choice('+-*')}{rng.choice(['1', '2', x])}"
    return f"({term}){rng.choice('+-*')}{rng.choice(['1', x])}" if rng.random() < 0.3 else term


def _rule(rng, head, arity, level, is_constraint):
    """One safe rule: positives bind the variables that the builtins,
    negations and head use.  Positives read any predicate at or below the
    head's level (recursion within a level); negations read strictly lower
    levels."""
    lits, bound = [], set()
    top = level[head] if head is not None else max(level)
    for _ in range(rng.randint(1, 3)):
        kind = rng.random()
        if kind < 0.2:
            a, b = _arg(rng, bound), _arg(rng, bound)
            lits.append(f"c({a},{b})@1")
            args = [a, b]
        elif kind < 0.3:
            a = _arg(rng, bound)
            lits.append(f"d({a})@2")
            args = [a]
        elif kind < 0.4:
            a = _arg(rng, bound)
            lits.append(f"b({a})")
            args = [a]
        else:
            j = rng.choice([j for j in range(len(arity)) if level[j] <= top])
            args = [_arg(rng, bound) for _ in range(arity[j])]
            if arity[j] == 2 and rng.random() < 0.15:  # a repeated variable, p(X,X)
                args = [rng.choice(VARS)] * 2
            lits.append(f"p{j}({','.join(args)})")
        for a in args:
            if not any(op in a for op in "+-*"):
                bound.update(v for v in VARS if v in a)
    bound = sorted(bound)
    for _ in range(rng.randint(0, 2)):
        if not bound:
            break
        x, y = rng.choice(bound), rng.choice(bound)
        op = rng.choice(["=", "!=", "<", ">=", "+"])
        if op == "+":
            lits.append(f"{x} = {_sum(rng, [y])}")
        elif op in ("<", ">="):
            lits.append(f"{'not ' if rng.random() < 0.2 else ''}{x} {op} {rng.choice([y, '2', _sum(rng, [y])])}")
        else:
            lits.append(f"{'not ' if rng.random() < 0.2 else ''}{x} {op} {rng.choice([y, rng.choice(VALUES)])}")
    if bound and rng.random() < 0.4:
        x = rng.choice(bound)
        lower = [j for j in range(len(arity)) if level[j] < top]
        if lower and rng.random() < 0.6:
            j = rng.choice(lower)
            lits.append(f"not p{j}({','.join(rng.choice(bound) for _ in range(arity[j]))})")
        else:
            lits.append(f"not d({x})@2")
    if is_constraint:
        return ":- " + ", ".join(lits) + "."
    head_args = [rng.choice(bound) if bound else rng.choice(VALUES) for _ in range(arity[head])]
    if bound and rng.random() < 0.3:  # the one sum that makes new values, so bounded
        head_args[0] = f"{bound[0]}+1"
        lits.append(f"{bound[0]} < 2")
    return f"p{head}({','.join(head_args)}) :- {', '.join(lits)}."


def _program(rng):
    n = rng.randint(2, 5)
    arity = [rng.randint(1, 2) for _ in range(n)]
    level = [i // 2 for i in range(n)]
    lines = []
    for i in range(n):
        for _ in range(rng.randint(0, 2)):
            lines.append(f"p{i}({','.join(rng.choice(VALUES) for _ in range(arity[i]))}).")
        for _ in range(rng.randint(0, 2)):
            lines.append(_rule(rng, i, arity, level, False))
    for _ in range(rng.randint(0, 2)):
        lines.append(_rule(rng, None, arity, level, True))
    return "\n".join(lines)


def _model(rng, pred, arity):
    return frozenset(
        (pred, tuple(GROUND[rng.choice(VALUES)] for _ in range(arity)))
        for _ in range(rng.randint(0, 4))
    )


def _outcome(evaluate, fragment, children, background, cap=DEFAULT_ATOM_CAP):
    try:
        r = evaluate(fragment, list(children), background, cap)
    except AsgError as exc:
        return type(exc)
    return (r.status, r.model, r.violated, r.deferred)


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=400, deadline=None)
def test_compiled_evaluator_matches_reference(seed):
    rng = random.Random(seed)
    text = _program(rng)
    try:
        fragment = LogicFragment(parse_rules(text, "t"), "t")
    except (AsgSyntaxError, StratificationError):
        assume(False)
    children = [
        None if rng.random() < 0.3 else _model(rng, "c", 2),
        None if rng.random() < 0.3 else _model(rng, "d", 1),
    ]
    background = {"b": {(GROUND[v],) for v in rng.sample(VALUES, 3)}}
    if rng.random() < 0.3:  # a derived predicate that the background also holds
        background["p0"] = {tuple(GROUND[rng.choice(VALUES)] for _ in range(2))}
    assert _outcome(evaluate_node, fragment, children, background) == _outcome(
        evaluate_node_reference, fragment, children, background
    ), text


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=300, deadline=None)
def test_evaluations_dot_by_dot_match_reference(seed):
    # as the parser feeds a node's children: one more realised child at
    # each dot, the positions past the end unrealised; the same children
    # padded with None must agree, and a small cap sometimes overflows
    rng = random.Random(seed)
    text = _program(rng)
    try:
        fragment = LogicFragment(parse_rules(text, "t"), "t")
    except (AsgSyntaxError, StratificationError):
        assume(False)
    children = [_model(rng, "c", 2), _model(rng, "d", 1), frozenset()]
    background = {"b": {(GROUND[v],) for v in rng.sample(VALUES, 3)}}
    if rng.random() < 0.3:
        background["p0"] = {tuple(GROUND[rng.choice(VALUES)] for _ in range(2))}
    cap = rng.choice([3, 8, DEFAULT_ATOM_CAP])
    for dot in range(len(children) + 1):
        realised = children[:dot]
        padded = realised + [None] * (len(children) - dot)
        want = _outcome(evaluate_node_reference, fragment, realised, background, cap)
        assert _outcome(evaluate_node, fragment, realised, background, cap) == want, (text, dot)
        assert _outcome(evaluate_node, fragment, padded, background, cap) == want, (text, dot)


def _frag(text):
    return LogicFragment(parse_rules(text, "t"), "t")


def test_comparison_moved_ahead_of_an_empty_join_does_not_raise():
    # X < 1 can run right after p(X), where it meets the symbol a, but no
    # complete binding exists, since s is empty
    assert evaluate_node(_frag("p(a). q :- p(X), s(Y), X < 1."), [], {}).status == SAT


def test_comparison_on_a_complete_binding_drops_it():
    model = evaluate_node(_frag("p(a). p(0). s(1). q(X) :- p(X), s(Y), X < 1."), [], {}).model
    assert {a for a in model if a[0] == "q"} == {("q", (0,))}


def test_ill_typed_check_drops_the_binding_in_any_order():
    # Y < 1 is undefined on b, and X != a rejects the binding too; which
    # check runs first does not matter
    assert evaluate_node(_frag("p(a). s(b). :- p(X), s(Y), Y < 1, X != a."), [], {}).status == SAT
    assert evaluate_node(_frag("p(c). s(b). :- p(X), s(Y), not Y < 1, X != a."), [], {}).status == SAT
    assert evaluate_node(_frag("p(c). s(0). :- p(X), s(Y), Y < 1, X != a."), [], {}).status == UNSAT


@pytest.mark.parametrize("hashseed", ["0", "1", "2", "3"])
def test_verdict_does_not_depend_on_the_hash_seed(hashseed):
    # the string hashes decide whether p(0) or an ill-typed p(a), p(b)
    # binding is met first; dropping the ill-typed ones leaves one verdict
    code = (
        "from asgdec.logic import LogicFragment, evaluate_node, parse_rules\n"
        "f = LogicFragment(parse_rules(':- p(X), X < 1.', 't'), 't')\n"
        "print(evaluate_node(f, [], {'p': {('a',), (0,), ('b',)}}).status)\n"
    )
    src = os.path.dirname(os.path.dirname(asgdec.__file__))
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == UNSAT, out.stderr


def test_binder_feeds_an_index_lookup():
    f = _frag("n(1). n(2). n(3). m(2). m(3). pair(X,Y) :- n(X), m(Y), Y = X + 1.")
    model = evaluate_node(f, [], {}).model
    assert {a for a in model if a[0] == "pair"} == {("pair", (1, 2)), ("pair", (2, 3))}


def test_mutual_recursion_runs_to_fixpoint():
    f = _frag(
        "e(1,2). e(2,3). e(3,4). odd(X,Y) :- e(X,Y). "
        "even(X,Z) :- odd(X,Y), e(Y,Z). odd(X,Z) :- even(X,Y), e(Y,Z)."
    )
    model = evaluate_node(f, [], {}).model
    assert ("odd", (1, 4)) in model and ("even", (1, 3)) in model
    assert ("even", (1, 4)) not in model


@pytest.mark.parametrize("n", [19, 21, 30, 60, 120])
def test_long_bodies_match_reference(n):
    # more positives than one generated function nests loops; e is a
    # 4-cycle, so the constraint is violated exactly when n is 2 modulo 4
    chain = ", ".join(f"e(X{i},X{i + 1})" for i in range(n))
    f = _frag(
        f"e(0,1). e(1,2). e(2,3). e(3,0). r(X0,X{n}) :- {chain}, X0 < 2. "
        f":- {chain}, not b(X0), X{n} = X0 + 2."
    )
    background = {"b": {(0,)}}
    result = _outcome(evaluate_node, f, [], background)
    assert result == _outcome(evaluate_node_reference, f, [], background)
    assert result[0] == (UNSAT if n % 4 == 2 else SAT)


def test_names_and_quoted_text_are_data():
    # constants, predicates and variables named like Python keywords or
    # like the names of the generated source, and a quoted string holding
    # Python source, quotes and a backslash
    f = _frag(r'''
        store("\"); raise SystemExit(\"", c). class(return, lambda). class(lambda, f1).
        v0(None, True) :- store(None, c), class(True, lambda), not t0(None).
        a0(True) :- class(True, f1), True != k0, None = "a\\b", v0(None, X).
        ctx(X, "a\\b") :- class(X, f1), X != return.
        :- v0(None, True), k0(None)@1.
    ''')
    source = QStr('"); raise SystemExit("')
    children = [frozenset({("k0", (QStr("other"),))})]
    result = _outcome(evaluate_node, f, children, {})
    assert result == _outcome(evaluate_node_reference, f, children, {})
    assert result[1] == {
        ("store", (source, "c")), ("class", ("return", "lambda")), ("class", ("lambda", "f1")),
        ("v0", (source, "return")), ("ctx", ("lambda", QStr("a\\b"))),
    }
    children = [frozenset({("k0", (source,))})]
    assert _outcome(evaluate_node, f, children, {})[:3] == (UNSAT, frozenset(), "t:6")
    assert _outcome(evaluate_node_reference, f, children, {})[:3] == (UNSAT, frozenset(), "t:6")


def test_evaluations_on_task_grammars_match_reference(monkeypatch):
    calls, evaluate = [], earley.evaluate_node

    def record(fragment, models, background, *args):
        result = evaluate(fragment, models, background, *args)
        calls.append((fragment, list(models), background, result))
        return result

    monkeypatch.setattr(earley, "evaluate_node", record)
    for task in TASK_IDS:
        g = generate_instances(task, 1, seed=0)[0].grammar()
        token_map = build_map(g.terminals, TerminalTokenizer(g.terminals))
        policy = UniformPolicy(token_map.vocab_size)
        for seed in range(3):
            cfg = DecodeConfig(mode="sample", constraint="sem", seed=seed, max_tokens=60)
            generate(g, token_map, policy, (), cfg)
    assert len(calls) > 1000
    for fragment, models, background, r in calls:
        expected = evaluate_node_reference(fragment, models, background)
        assert (r.status, r.model, r.violated, r.deferred) == (
            expected.status, expected.model, expected.violated, expected.deferred
        ), fragment.name
