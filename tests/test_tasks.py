"""Benchmark tasks: generators, checkers, distances, and reference words."""

import itertools

import pytest

from asgdec import Session, accepts, parse_grammar
from asgdec.tasks import (
    TASK_IDS,
    checker_for,
    generate_instances,
    load_instance,
    reference_solution,
    rho_for,
    save_instances,
    score_run,
)
from asgdec.tasks import blocks, jsontask, puzzles, sgs

from conftest import ambncmdn_member, anbncn_member, copy_member


@pytest.mark.parametrize("task", TASK_IDS)
def test_generators_are_deterministic(task):
    a = generate_instances(task, 3, seed=7)
    b = generate_instances(task, 3, seed=7)
    assert [i.grammar_source for i in a] == [i.grammar_source for i in b]
    assert [i.params for i in a] == [i.params for i in b]
    assert len({i.instance_id for i in a}) == 3


def test_unknown_task_rejected():
    with pytest.raises(KeyError):
        generate_instances("nope", 1)


@pytest.mark.parametrize("task", TASK_IDS)
def test_reference_solution_solves_instance(task):
    count = 1 if task == "blocksworld" else 2
    for inst in generate_instances(task, count, seed=3):
        word = reference_solution(inst)
        check = checker_for(inst)
        assert check(word), inst.instance_id
        rho = rho_for(inst)
        if rho is not None:
            assert rho(word) == 0
        assert accepts(inst.grammar(), word), inst.instance_id


MALFORMED = [
    # (task, malformed word, the well-formed word it garbles)
    (
        "sudoku3",
        tuple("[[1,2,3],[2,,3,1],[3,1,2]]"),
        tuple("[[1,2,3],[2,3,1],[3,1,2]]"),
    ),
    (
        "blocksworld",
        ("unstack ", "green", " ", "blue", ", ", "stack ", "green", " ", "red",
         ",", ",", ", ", "end"),
        ("unstack ", "green", " ", "blue", ", ", "stack ", "green", " ", "red",
         ", ", "end"),
    ),
]


@pytest.mark.parametrize("task,bad,good", MALFORMED)
def test_checker_rejects_malformed_words(task, bad, good):
    inst = generate_instances(task, 1, seed=0)[0]
    check = checker_for(inst)
    assert check(good)
    assert not check(bad)


def test_checker_rejects_junk_between_coloring_entries():
    inst = generate_instances("graph3color", 1, seed=0)[0]
    good = reference_solution(inst)
    cut = good.index(")") + 1
    bad = good[:cut] + ("x", "x") + good[cut:]
    check = checker_for(inst)
    assert check(good)
    assert not check(bad)


def test_score_run_does_not_count_malformed_words():
    inst = generate_instances("sudoku3", 1, seed=0)[0]
    _, bad, good = MALFORMED[0]
    results = [
        {"terminals": w, "outcome": "completed", "tokens": len(w)}
        for w in (good, bad)
    ]
    rep = score_run(inst.grammar(), results, rho_for(inst))
    assert rep.accuracy == pytest.approx(1 / 2)


def test_save_load_round_trip(tmp_path):
    insts = generate_instances("anbncn", 2, seed=0)
    paths = save_instances(insts, str(tmp_path))
    loaded = [load_instance(p) for p in paths]
    assert [i.params for i in loaded] == [i.params for i in insts]
    assert [i.grammar_source for i in loaded] == [
        i.grammar_source for i in insts
    ]


# ---------------------------------------------------------------------------
# letter-count languages: distance agrees with the checker


def words(alphabet, max_len):
    for n in range(1, max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


def test_anbncn_rho_zero_iff_solved():
    rho = sgs.anbncn_rho(2)
    for w in words("abc", 6):
        assert (rho(w) == 0) == sgs.anbncn_check(2, w)
        assert rho(w) >= 0


def test_ambncmdn_rho_zero_iff_solved():
    p = {"m": 2, "n": 1}
    rho = sgs.ambncmdn_rho(2, 1)
    for w in words("abcd", 6):
        assert (rho(w) == 0) == sgs.ambncmdn_check(p, w)
        assert rho(w) >= 0


@pytest.mark.parametrize(
    "params",
    [
        {"kind": "count_a", "target": 1},
        {"kind": "count_a", "target": 2},
        {"kind": "count_b", "target": 2},
        {"kind": "product", "threshold": 1},
        {"kind": "product", "threshold": 4},
    ],
)
def test_copy_rho_zero_iff_solved(params):
    rho = sgs.copy_rho(params)
    for w in words("ab", 8):
        assert (rho(w) == 0) == sgs.copy_check(params, w)
        assert rho(w) >= 0


def test_copy_rho_is_a_completion_distance():
    # a solvable prefix scores the number of letters still needed
    rho = sgs.copy_rho({"kind": "count_a", "target": 2})
    assert rho(tuple("aa")) == 2  # finish as aaaa
    assert rho(tuple("aab")) == 3  # aab + aab
    assert rho(tuple("aabaa")) == 1  # one letter from aabaab


def test_checks_agree_with_membership_oracles():
    for w in words("abc", 6):
        if sgs.anbncn_check(2, w):
            assert anbncn_member(w)
    for w in words("abcd", 7):
        if sgs.ambncmdn_check({"m": 2, "n": 1}, w):
            assert ambncmdn_member(w)
    for w in words("ab", 6):
        if sgs.copy_check({"kind": "count_a", "target": 1}, w):
            assert copy_member(w)


# ---------------------------------------------------------------------------
# puzzles


def test_parse_board():
    assert puzzles.parse_board("[[1,2],[2,1]]", 2) == [[1, 2], [2, 1]]
    assert puzzles.parse_board("[[1,2],[2]]", 2) is None


def test_sudoku3_grammar_rejects_broken_board():
    inst = generate_instances("sudoku3", 1, seed=1)[0]
    word = list(reference_solution(inst))
    g = inst.grammar()
    session = Session()
    assert accepts(g, tuple(word), session)
    # duplicate a digit within the first row
    idx = [i for i, ch in enumerate(word) if ch.isdigit()]
    word[idx[1]] = word[idx[0]]
    assert not accepts(g, tuple(word), session)
    assert not puzzles.sudoku_check(inst.params, word)


def test_sudoku3_grammar_respects_givens():
    inst = generate_instances("sudoku3", 1, seed=2)[0]
    word = list(reference_solution(inst))
    g = inst.grammar()
    k, v = next(iter(inst.params["givens"].items()))
    idx = [i for i, ch in enumerate(word) if ch.isdigit()]
    word[idx[int(k) - 1]] = str(v % 3 + 1)
    assert not accepts(g, tuple(word))


def test_sudoku4_reference_and_check():
    inst = generate_instances("sudoku4", 1, seed=0)[0]
    word = reference_solution(inst)
    assert puzzles.sudoku_check(inst.params, word)
    assert accepts(inst.grammar(), word)


def test_coloring_rho_counts_bad_edges():
    inst = generate_instances("graph3color", 1, seed=4)[0]
    rho = puzzles.coloring_rho(inst.params)
    word = reference_solution(inst)
    assert rho(word) == 0
    assert rho(()) == len(inst.params["edges"])
    # recolor one endpoint to match its partner: one edge goes bad
    text = "".join(word)
    i, ci, j, cj = puzzles.coloring_entries(text)[0]
    broken = text.replace(f"{i}:{ci}", f"{i}:{cj}", 1)
    assert rho(tuple(broken)) >= 1
    assert not puzzles.coloring_check(inst.params, tuple(broken))


def test_coloring_grammar_prunes_conflicts():
    inst = generate_instances("graph3color", 1, seed=4)[0]
    word = reference_solution(inst)
    text = "".join(word)
    i, ci, j, cj = puzzles.coloring_entries(text)[0]
    broken = text.replace(f"{i}:{ci},{j}:{cj}", f"{i}:{ci},{j}:{ci}", 1)
    assert not accepts(inst.grammar(), tuple(broken))


# ---------------------------------------------------------------------------
# planning


INIT = frozenset(
    {("ontable", "red"), ("ontable", "green"), ("ontable", "blue"),
     ("clear", "red"), ("clear", "green"), ("clear", "blue"), blocks.HANDEMPTY}
)


def test_apply_action_preconditions():
    s = blocks.apply_action(INIT, ("pickup", "red"))
    assert ("holding", "red") in s and blocks.HANDEMPTY not in s
    assert blocks.apply_action(s, ("pickup", "green")) is None  # hand full
    s2 = blocks.apply_action(s, ("stack", "red", "green"))
    assert ("on", "red", "green") in s2 and ("clear", "green") not in s2


def test_bfs_plan_is_executable_and_minimal():
    goal = frozenset({("on", "red", "green"), ("on", "green", "blue")})
    plan = blocks.bfs_plan(INIT, goal)
    assert plan is not None and len(plan) == 4
    state = INIT
    for a in plan:
        state = blocks.apply_action(state, a)
        assert state is not None
    assert goal <= state


def test_h_add_zero_only_at_goal():
    goal = frozenset({("on", "red", "green")})
    assert blocks.h_add(INIT, goal) > 0
    solved = blocks.apply_action(
        blocks.apply_action(INIT, ("pickup", "red")), ("stack", "red", "green")
    )
    assert blocks.h_add(solved, goal) == 0


def test_blocks_check_rejects_bad_plans():
    inst = generate_instances("blocksworld", 1, seed=5)[0]
    word = reference_solution(inst)
    assert blocks.blocks_check(inst.params, word)
    assert not blocks.blocks_check(inst.params, word[:-1])  # no "end"
    # a goal needing stacking cannot be met by a single pickup
    assert not blocks.blocks_check(inst.params, ("pickup ", "red", ", ", "end"))


def test_blocks_rho_decreases_along_reference_plan():
    inst = generate_instances("blocksworld", 1, seed=5)[0]
    rho = blocks.blocks_rho(inst.params)
    word = reference_solution(inst)
    assert rho(word) == 0
    assert rho(()) > 0


def test_plan_grammar_stops_at_goal():
    # after the goal is reached only "end" parses; extra actions are pruned
    inst = generate_instances("blocksworld", 1, seed=5)[0]
    g = inst.grammar()
    word = reference_solution(inst)
    assert accepts(g, word)
    longer = word[:-1] + ("pickup ", "red", ", ", "end")
    assert not accepts(g, longer)


# ---------------------------------------------------------------------------
# structured output


def test_json_reference_word_parses():
    inst = generate_instances("json", 2, seed=0)[0]
    word = reference_solution(inst)
    assert accepts(inst.grammar(), word)
    assert "".join(word) == jsontask._word(
        inst.params["firstName"], inst.params["lastName"], inst.params["age"]
    )


def test_json_grammar_rejects_missing_field():
    g = parse_grammar(jsontask.JSON_GRAMMAR)
    assert not accepts(g, tuple('{"firstName":"Jo"}'))


def test_json_value_chars_cannot_spell_keys():
    for key in ("firstName", "lastName", "age"):
        assert not set(key) <= set(jsontask.VALUE_CHARS)


# ---------------------------------------------------------------------------
# metrics


def test_score_run_levels():
    g = parse_grammar(sgs.ANBNCN_GRAMMAR)
    rho = sgs.anbncn_rho(2)
    results = [
        {"terminals": tuple("aabbcc"), "outcome": "completed", "tokens": 7},
        {"terminals": tuple("abc"), "outcome": "completed", "tokens": 4},
        {"terminals": tuple("ab"), "outcome": "max_length", "tokens": 2},
    ]
    rep = score_run(g, results, rho)
    assert rep.n == 3
    assert rep.accuracy == pytest.approx(1 / 3)
    assert rep.v_sem == pytest.approx(2 / 3)
    assert rep.v_cfg >= rep.v_csg >= rep.v_sem
    assert "V_SEM" in rep.row()


def test_score_run_empty():
    g = parse_grammar(sgs.ANBNCN_GRAMMAR)
    rep = score_run(g, [])
    assert rep.empty and "no results" in rep.row()
