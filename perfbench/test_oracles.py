"""Hand-written members and non-members for the benchmark's oracles.

    python3 -m pytest perfbench/test_oracles.py
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402


def test_anbncn():
    for w in ("abc", "aabbcc", "aaabbbccc"):
        assert oracles.anbncn_member(w)
    for w in ("", "ab", "abcc", "aabbc", "abcabc", "acb", "bac", "abcd"):
        assert not oracles.anbncn_member(w)


def test_ambncmdn():
    for w in ("abbcdd", "aabccd", "aaabcccd"):
        assert oracles.ambncmdn_member(w)
    # m == n, unequal pairs, wrong order, missing blocks
    for w in ("abcd", "aabbccdd", "abbcd", "aabcd", "abdc", "abc", ""):
        assert not oracles.ambncmdn_member(w)


def test_copy():
    for w in ("aa", "bb", "abab", "abbabb"):
        assert oracles.copy_member(w)
    for w in ("", "a", "ab", "aba", "abba", "acac"):
        assert not oracles.copy_member(w)


SUDOKU3 = {"size": 3, "givens": {"1": 1, "5": 1}}


def test_sudoku3():
    assert oracles.sudoku_member(SUDOKU3, "[[1,2,3],[3,1,2],[2,3,1]]")
    for w in (
        "[[1,2,3],[2,3,1],[3,1,2]]",  # breaks the given 1 at cell 5
        "[[1,2,3],[3,1,2],[3,2,1]]",  # repeated digit in a column
        "[[1,1,1],[1,1,1],[1,1,1]]",
        "[[1,2,3],[3,1,2]]",  # too few rows
        "[[1,2,3],[3,1,2],[2,3,1]",  # unclosed
        "[[1,2,3], [3,1,2], [2,3,1]]",  # spaces
        "[[1,2,3],[3,,1,2],[2,3,1]]",  # stray comma
    ):
        assert not oracles.sudoku_member(SUDOKU3, w), w


SUDOKU4 = {"size": 4, "givens": {"1": 1, "16": 1}}


def test_sudoku4():
    good = "[[1,2,3,4],[3,4,1,2],[2,1,4,3],[4,3,2,1]]"
    assert oracles.sudoku_member(SUDOKU4, good)
    # rows and columns are Latin but the top-left block repeats 1 and 2
    latin = "[[1,2,3,4],[2,1,4,3],[3,4,1,2],[4,3,2,1]]"
    assert not oracles.sudoku_member(SUDOKU4, latin)
    assert not oracles.sudoku_member({"size": 4, "givens": {"2": 1}}, good)
    assert not oracles.sudoku_member(SUDOKU4, good.replace("2,1]]", "2,5]]"))


TRIANGLE = {"nodes": 3, "edges": [[1, 2], [1, 3], [2, 3]]}


def test_coloring():
    good = "(1:red,2:green),(1:red,3:blue),(2:green,3:blue)"
    assert oracles.coloring_member(TRIANGLE, good)
    for w in (
        "(1:red,2:red),(1:red,3:blue),(2:red,3:blue)",  # improper edge
        "(1:red,2:green),(1:blue,3:red),(2:green,3:blue)",  # node 1 twice
        "(1:red,3:blue),(1:red,2:green),(2:green,3:blue)",  # edge order
        "(1:red,2:green),(1:red,3:blue)",  # missing edge
        "(1:red,2:green),(1:red,3:pink),(2:green,3:pink)",  # not a colour
        good + ",",
        good.replace("),(", ")xx(", 1),  # junk between entries
    ):
        assert not oracles.coloring_member(TRIANGLE, w), w


def test_json():
    assert oracles.json_member('{"firstName":"Jo","lastName":"Du","age":7}')
    assert oracles.json_member('{"firstName":"z","lastName":"KK","age":007}')
    for w in (
        '{"firstName":"Jo","lastName":"Du","age":7',
        '{"firstName":"Jo","lastName":"Du"}',
        '{"lastName":"Du","firstName":"Jo","age":7}',
        '{"firstName":"","lastName":"Du","age":7}',
        '{"firstName":"Ja","lastName":"Du","age":7}',  # 'a' is not a value letter
        '{"firstName":"Jo","lastName":"Du","age":-7}',
        '{"firstName": "Jo","lastName":"Du","age":7}',
    ):
        assert not oracles.json_member(w), w


# red on green, blue on the table; goal: green on red
BLOCKS = {
    "init": [
        ["clear", "blue"], ["clear", "red"], ["handempty"],
        ["on", "red", "green"], ["ontable", "blue"], ["ontable", "green"],
    ],
    "goal": [["on", "green", "red"]],
}


def test_blocksworld():
    plan = "unstack red green, putdown red, pickup green, stack green red, end"
    assert oracles.blocks_member(BLOCKS, plan)
    assert oracles.blocks_member(
        BLOCKS,
        "unstack red green, stack red blue, pickup green, stack green red, end",
    )
    for w in (
        plan[: -len(", end")],  # no end
        "end",  # no action
        "pickup green, stack green red, end",  # green is not clear
        "unstack red green, putdown red, pickup green, end",  # goal unmet
        "unstack red green, stack red red, end",  # stack on itself
        plan.replace(", end", ", putdown blue, end"),  # acts after the goal
        plan.replace(", end", ", unstack green red, end"),  # undoes the goal
        plan.replace("putdown red", "putdown  red"),
        plan.replace(", end", ",,, end"),
    ):
        assert not oracles.blocks_member(BLOCKS, w), w
