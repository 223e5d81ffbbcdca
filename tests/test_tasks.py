"""Benchmark tasks: generators, checkers, distances, and reference words."""

import itertools

import pytest

from asgdec import Session, accepts, parse_grammar
from asgdec.tasks import (
    TASK_IDS,
    TASKS,
    checker_for,
    generate_instances,
    load_instance,
    reference_solution,
    rho_for,
    save_instances,
    score_run,
)
from asgdec.tasks import blocks, jsontask, puzzles, sgs
from asgdec.tasks.base import Distance

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


def reference_blocks_rho(params, alpha=0.01, unreachable_penalty=100):
    """``blocks_rho`` before the memoisation of action texts and
    successors: every call parses the whole plan and replays it."""
    init, goal = blocks._params_sets(params)
    h_of = {}

    def rho(word):
        if blocks.blocks_check(params, word):
            return 0.0
        actions = blocks.parse_plan("".join(word)) or []
        state = init
        used = 0
        for a in actions:
            nxt = blocks.apply_action(state, a)
            if nxt is None:
                break
            state = nxt
            used += 1
        h = h_of.get(state)
        if h is None:
            try:
                h = blocks.h_add(state, goal)
            except blocks.UnreachableGoal:
                h = unreachable_penalty
            h_of[state] = h
        return max(h, 1) * 1.0 + alpha * used if h == 0 else h + alpha * used

    return rho


def _random_plan_word(rng, params, terminals):
    """A ``_whole_action_word``; one time in four, random terminals."""
    if rng.random() < 0.25:
        return tuple(rng.choice(terminals) for _ in range(rng.randrange(12)))
    return _whole_action_word(rng, params)


def _whole_action_word(rng, params):
    """A word of whole actions, mostly applicable ones, possibly cut short
    mid-action or ended with "end"."""
    state, _ = blocks._params_sets(params)
    actions = blocks._actions(blocks.BLOCKS)
    word = []
    for _ in range(rng.randrange(9)):
        fit = [a for a in actions if blocks.apply_action(state, a) is not None]
        action = rng.choice(fit if rng.random() < 0.8 else actions)
        state = blocks.apply_action(state, action) or state
        word += [action[0] + " ", action[1]]
        if len(action) == 3:
            word += [" ", action[2]]
        word.append(", ")
    if rng.random() < 0.5:
        word.append("end")
    if rng.random() < 0.3:
        word = word[: rng.randrange(len(word) + 1)]
    return tuple(word)


def assert_fold_matches(rho, ref, word):
    """The fold's value after every prefix of ``word`` is ``ref`` of it."""
    state = rho.start()
    for k in range(len(word) + 1):
        assert rho.value(state) == ref(word[:k]), word[:k]
        if k < len(word):
            state = rho.step(state, word[k])
    assert rho(word) == ref(word)


def test_blocks_rho_matches_its_unmemoised_reference():
    import random

    rng = random.Random(0)
    for inst in generate_instances("blocksworld", 5, seed=0):
        terminals = sorted(inst.grammar().terminals)
        rho, ref = blocks.blocks_rho(inst.params), reference_blocks_rho(inst.params)
        words = [reference_solution(inst), ()]
        words += [_random_plan_word(rng, inst.params, terminals) for _ in range(2000)]
        for word in words:
            assert_fold_matches(rho, ref, word)


def test_blocks_rho_reads_any_text_as_its_reference_does():
    # terminals that split the separator, "end" or an action in two, and
    # runs of "," and " " that the final "end" drops
    import random

    rng = random.Random(1)
    pieces = list("pickuputdownstackredgreenblue ,end") + [", ", "end", ",, ", " , "]
    inst = generate_instances("blocksworld", 1, seed=0)[0]
    rho, ref = blocks.blocks_rho(inst.params), reference_blocks_rho(inst.params)
    for _ in range(1500):
        word = tuple(rng.choice(pieces) for _ in range(rng.randrange(40)))
        assert_fold_matches(rho, ref, word)
    for word in [
        ("pickup red",), ("pickup red", "end"), ("pickup red  ,,", "end"),
        ("pickup red", ",", ", ", "e", "n", "d"),
        ("pickup red", ",", ", ", "en", "d"),
        ("pickup red", ",", ", ", ",", "end"),
    ]:
        assert_fold_matches(rho, ref, word)


def test_blocks_rho_holds_at_most_one_action_of_text_on_whole_action_words():
    # every part of such a word begins with an action, so the text after
    # the settled parts is at most one action, its separator and "end"
    import random

    rng = random.Random(2)
    inst = generate_instances("blocksworld", 1, seed=0)[0]
    rho = blocks.blocks_rho(inst.params)
    for _ in range(2000):
        state = rho.start()
        for t in _whole_action_word(rng, inst.params):
            state = rho.step(state, t)
            assert len(state[-1]) <= len("unstack green green, end"), state[-1]


def test_blocks_rho_scores_a_word_ending_mid_action_as_the_empty_plan():
    # kept behaviour: parse_plan rejects the partial action, so the whole
    # word counts as the empty plan
    inst = generate_instances("blocksworld", 3, seed=0)[2]
    rho = blocks.blocks_rho(inst.params)
    word = ("unstack ", "blue", " ", "red", ", ")
    assert rho(word) == 7.01
    assert rho(word + ("putdown ",)) == rho(()) == 4.0


def test_blocks_rho_drops_the_spaces_before_a_final_end_only():
    # the final "end" goes with the "," and " " before it, so the stray
    # space after "red" is dropped; without "end" it makes the action
    # malformed, and an "end" in the middle is a malformed action
    inst = generate_instances("blocksworld", 3, seed=0)[2]
    rho = blocks.blocks_rho(inst.params)
    ref = reference_blocks_rho(inst.params)
    word = ("unstack ", "blue", " ", "red", " ", ", ", "end")
    assert rho(word) == 7.01
    assert rho(word[:-1]) == 4.0
    middle = ("unstack ", "blue", " ", "red", ", ", "end", ", ", "putdown ", "blue", ", ")
    assert rho(middle) == rho(()) == 4.0
    for w in (word, middle, middle + ("end",)):
        assert_fold_matches(rho, ref, w)


# Whole-word distances, as each task defined its distance before the folds.


def _reference_anbncn_rho(params):
    n = params["n"]

    def rho(word):
        base = abs(n - sum(1 for t in word if t == "a"))
        return 1 if base == 0 and not sgs.anbncn_check(n, word) else base

    return rho


def _reference_ambncmdn_rho(params):
    def rho(word):
        count = sum(1 for t in word if t in ("a", "b"))
        base = abs(params["m"] + params["n"] - count)
        return 1 if base == 0 and not sgs.ambncmdn_check(params, word) else base

    return rho


def _reference_coloring_rho(params):
    edges = [tuple(e) for e in params["edges"]]

    def rho(word):
        entries = puzzles.coloring_entries("".join(word))
        assign = {}
        for i, ci, j, cj in entries:
            assign.setdefault(i, ci)
            assign.setdefault(j, cj)
        good, listed = 0, set()
        for i, ci, j, cj in entries:
            if (i, j) in edges and (i, j) not in listed:
                listed.add((i, j))
                if ci != cj and assign[i] == ci and assign[j] == cj:
                    good += 1
        return len(edges) - good

    return rho


REFERENCE_RHO = {
    "anbncn": _reference_anbncn_rho,
    "ambncmdn": _reference_ambncmdn_rho,
    "graph3color": _reference_coloring_rho,
    "blocksworld": reference_blocks_rho,
    # these two keep the word as the fold's state
    "copy": lambda params: sgs.copy_rho(params).fn,
    "sudoku3": lambda params: lambda w: 0 if puzzles.sudoku_check(params, w) else 1,
    "sudoku4": lambda params: lambda w: 0 if puzzles.sudoku_check(params, w) else 1,
}


def test_every_task_with_a_distance_has_a_reference():
    assert set(REFERENCE_RHO) == {t for t in TASK_IDS if TASKS[t].rho is not None}


@pytest.mark.parametrize("task", sorted(REFERENCE_RHO))
def test_distance_fold_matches_its_whole_word_reference(task):
    import random

    rng = random.Random(task)
    for inst in generate_instances(task, 4, seed=0):
        rho, ref = rho_for(inst), REFERENCE_RHO[task](inst.params)
        assert isinstance(rho, Distance)
        solved = reference_solution(inst)
        terminals = sorted(inst.grammar().terminals)
        words = [solved, ()]
        for _ in range(150):
            word = list(solved)
            for _ in range(rng.randrange(4)):
                word[rng.randrange(len(word))] = rng.choice(terminals)
            words.append(tuple(word))
            words.append(tuple(rng.choice(terminals) for _ in range(rng.randrange(len(solved) + 4))))
        if task == "graph3color":  # entries split across junk and merged terminals
            pieces = list("(1234:,)x") + ["red", "green", "blue", "(1:red,2:green)"]
            words += [tuple(rng.choice(pieces) for _ in range(rng.randrange(40))) for _ in range(150)]
        for word in words:
            assert_fold_matches(rho, ref, word)


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
