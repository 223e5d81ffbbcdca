"""Rule parsing, stratified evaluation, and the brute-force model oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asgdec.errors import (
    AsgSyntaxError,
    GroundingOverflow,
    StratificationError,
)
from asgdec.logic import (
    DEFERRED,
    SAT,
    UNSAT,
    EMPTY_FRAGMENT,
    LogicFragment,
    QStr,
    Tup,
    evaluate_node,
    format_rule,
    parse_rules,
)

from logic_reference import (
    OracleNotGround,
    OracleTooLarge,
    enumerate_models_bruteforce,
    strata,
)


def frag(text, name="t"):
    return LogicFragment(parse_rules(text, name), name)


def evaluate(text, child_models=(), background=None):
    return evaluate_node(frag(text), list(child_models), background or {})


# ---------------------------------------------------------------------------
# parsing


def test_parse_fact_rule_constraint():
    rules = parse_rules("p(1). q(X) :- p(X). :- q(2).")
    assert len(rules) == 3
    assert rules[0].head.pred == "p" and rules[0].body == ()
    assert rules[1].body[0].pred == "p"
    assert rules[2].head is None


def test_parse_child_reference_and_negation():
    (r,) = parse_rules("ok :- size(N)@2, not bad.")
    assert r.body[0].child == 2
    assert r.body[1].neg and r.body[1].pred == "bad"


def test_parse_arithmetic_and_comparison():
    (r,) = parse_rules("n(X+1) :- n(X), X < 5.")
    assert r.body[1].builtin == "<"


def test_parse_tuple_and_quoted_string_terms():
    (r,) = parse_rules('cell((1,2),"x").')
    a, b = r.head.args
    assert a == Tup((1, 2)) and b == QStr("x")


def test_parse_negative_integer():
    (r,) = parse_rules("t(-3).")
    assert r.head.args == (-3,)


def test_format_parse_round_trip():
    text = (
        'p(1). q(X,Y) :- p(X), p(Y), X != Y. :- q(1,2). s((a,2),"hi") :- not t. '
        r'u("a\"b", "c\\d", "") :- v("\\\"").'
    )
    rules = parse_rules(text)
    assert rules[-1].head.args[:2] == (QStr('a"b'), QStr("c\\d"))
    again = parse_rules(" ".join(format_rule(r) for r in rules))
    assert [(r.head, r.body) for r in rules] == [(r.head, r.body) for r in again]


@pytest.mark.parametrize(
    "bad",
    [
        "p(1)",  # missing period
        "p :- .",
        "not p :- q.",  # negated head
        ":- p(X.",
        'p("unterminated.',
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(AsgSyntaxError):
        parse_rules(bad)


def test_unsafe_rule_rejected():
    with pytest.raises(AsgSyntaxError, match="unsafe"):
        frag("p(X) :- q.")


def test_unsafe_negated_variable_rejected():
    with pytest.raises(AsgSyntaxError, match="unsafe"):
        frag("p :- not q(X).")


# ---------------------------------------------------------------------------
# stratification


def test_even_cycle_through_negation_rejected():
    with pytest.raises(StratificationError):
        frag("p :- not q. q :- not p.")


def test_positive_recursion_allowed():
    f = frag("r(X,Y) :- e(X,Y). r(X,Z) :- r(X,Y), e(Y,Z). e(1,2). e(2,3).")
    res = evaluate_node(f, [], {})
    assert ("r", (1, 3)) in res.model


def test_layered_negation_allowed():
    f = frag("q :- not p. r :- not q.")
    assert strata(f)["q"] < strata(f)["r"]


def test_stratification_error_names_the_cycle():
    with pytest.raises(StratificationError) as exc:
        frag("p :- not q. q :- p.")
    assert "p" in str(exc.value) and "q" in str(exc.value)


# ---------------------------------------------------------------------------
# evaluation


def test_facts_and_rules_fixpoint():
    res = evaluate("p(1). p(2). q(X+1) :- p(X).")
    assert res.status == SAT
    assert ("q", (2,)) in res.model and ("q", (3,)) in res.model


def test_constraint_violation_reports_rule_id():
    res = evaluate("p. :- p.")
    assert res.status == UNSAT
    assert res.violated == "t:1"


def test_negation_as_failure():
    res = evaluate("q :- not p.")
    assert ("q", ()) in res.model


def test_background_visible_but_not_reexported():
    res = evaluate("q(X) :- base(X).", background={"base": {(7,)}})
    assert ("q", (7,)) in res.model
    assert ("base", (7,)) not in res.model


def test_child_import():
    child = frozenset({("size", (3,))})
    res = evaluate("n(X) :- size(X)@1.", child_models=[child])
    assert ("n", (3,)) in res.model


def test_rule_with_unrealized_child_is_deferred():
    res = evaluate("n(X) :- size(X)@2.", child_models=[frozenset(), None])
    assert res.status == DEFERRED
    assert res.deferred == ("t:0",)


def test_negation_over_unrealized_child_defers_dependent_constraint():
    # bad depends on the second child, so "not bad" cannot be decided yet
    res = evaluate(
        "bad :- x@2. :- not bad.", child_models=[frozenset(), None]
    )
    assert res.status == DEFERRED


def test_eager_constraint_fires_despite_other_deferrals():
    res = evaluate(
        "n(X) :- size(X)@2. :- one.",
        child_models=[frozenset({("one", ())}), None],
        background={"one": {()}},
    )
    assert res.status == UNSAT


def test_comparison_builtins():
    res = evaluate("p(1). p(2). q(X,Y) :- p(X), p(Y), X < Y.")
    assert ("q", (1, 2)) in res.model
    assert ("q", (2, 1)) not in res.model


def test_arithmetic_match_needs_bound_variable():
    # X+1 in a body atom cannot invert the sum; X must come from elsewhere
    with pytest.raises(AsgSyntaxError, match="unsafe"):
        frag("n(4). m(X) :- n(X+1).")
    for rule in ("m(X) :- p(X), n(X+1).", "m(X) :- n(X+1), p(X)."):
        assert ("m", (3,)) in evaluate("n(4). p(3). " + rule).model
    # no order of the positives binds Y before q(Y+1) reads it
    assert evaluate("p(1,2). q(3,1). r :- p(X+1,Y), q(Y+1,X).").model == {
        ("p", (1, 2)), ("q", (3, 1))}


def test_arithmetic_type_error():
    # a sum over a symbol is undefined: the binding is dropped, in a head,
    # a body atom, a negation or a comparison alike
    res = evaluate("p(a). p(1). q(X+1) :- p(X). r(X) :- p(X), s(X+1). s(2).")
    assert {a for a in res.model if a[0] in "qr"} == {("q", (2,)), ("r", (1,))}
    res = evaluate("p(a). p(1). t(X) :- p(X), not s(X+1). u(X) :- p(X), X+1 != 5.")
    assert {a for a in res.model if a[0] in "tu"} == {("t", (1,)), ("u", (1,))}
    # a sum outside 64 bits is undefined too
    res = evaluate(f"p({2**62}). p({2**63}). q(X) :- p(X), X + X = Y, p(Y). r(X) :- p(X), p(X+X).")
    assert not {a for a in res.model if a[0] in "qr"}


def test_grounding_overflow_guard():
    with pytest.raises(GroundingOverflow):
        evaluate_node(
            frag("n(0). n(X+1) :- n(X)."), [], {}, atom_cap=500
        )


def test_empty_fragment_is_sat():
    assert evaluate_node(EMPTY_FRAGMENT, [], {}).status == SAT


# ---------------------------------------------------------------------------
# brute-force oracle


def test_oracle_single_answer_set():
    models = enumerate_models_bruteforce(parse_rules("p. q :- p."))
    assert models == {frozenset({("p", ()), ("q", ())})}


def test_oracle_constraint_removes_model():
    models = enumerate_models_bruteforce(parse_rules("p. :- p."))
    assert models == set()


def test_oracle_choice_via_even_loop():
    # the classic two answer sets of mutual negation
    models = enumerate_models_bruteforce(parse_rules("p :- not q. q :- not p."))
    assert models == {
        frozenset({("p", ())}),
        frozenset({("q", ())}),
    }


def test_oracle_rejects_nonground():
    with pytest.raises(OracleNotGround):
        enumerate_models_bruteforce(parse_rules("p(X) :- q(X)."))


def test_oracle_atom_cap():
    facts = " ".join(f"p({i})." for i in range(25))
    with pytest.raises(OracleTooLarge):
        enumerate_models_bruteforce(parse_rules(facts))


# ---------------------------------------------------------------------------
# random stratified programs match the oracle


def _random_program(rng, n_atoms=8):
    """Ground stratified program over p0..p{n-1}: negation only points at
    strictly lower-numbered atoms, so the program is stratified by
    construction."""
    lines = []
    for i in range(n_atoms):
        kind = rng.randrange(4)
        if kind == 0:
            lines.append(f"p{i}.")
        elif kind == 1 and i >= 1:
            j = rng.randrange(i)
            lines.append(f"p{i} :- p{j}.")
        elif kind == 2 and i >= 1:
            j = rng.randrange(i)
            lines.append(f"p{i} :- not p{j}.")
        elif i >= 2:
            j, k = rng.randrange(i), rng.randrange(i)
            lines.append(f"p{i} :- p{j}, not p{k}.")
    if rng.random() < 0.4 and lines:
        i = rng.randrange(n_atoms)
        lines.append(f":- p{i}.")
    return " ".join(lines)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=120, deadline=None)
def test_random_stratified_programs_match_oracle(seed):
    import random

    text = _random_program(random.Random(seed))
    if not text:
        return
    f = frag(text)
    res = evaluate_node(f, [], {})
    oracle = enumerate_models_bruteforce(f.rules)
    if res.status == UNSAT:
        assert oracle == set()
    else:
        assert oracle == {res.model}
