"""Language oracles for the benchmark, written from the task definitions.

Nothing here imports the package: membership is decided by closed forms,
strict parsers with rule checks, and a plan simulator, so a wrong verdict
or an out-of-language output cannot agree with the engine by sharing its
code.  ``member`` answers the sem level: the exact language of one task
instance's full grammar.
"""

from __future__ import annotations

import re

# ---------------------------------------------------------------------------
# Counting languages (the grammar is the same for every instance).


def anbncn_member(text):
    m = re.fullmatch(r"(a+)(b+)(c+)", text)
    return bool(m) and len(m.group(1)) == len(m.group(2)) == len(m.group(3))


def ambncmdn_member(text):
    m = re.fullmatch(r"(a+)(b+)(c+)(d+)", text)
    if not m:
        return False
    p, q, r, s = (len(g) for g in m.groups())
    return p == r and q == s and p != q


def copy_member(text):
    h = len(text) // 2
    return (
        re.fullmatch(r"[ab]+", text) is not None
        and len(text) % 2 == 0
        and text[:h] == text[h:]
    )


# ---------------------------------------------------------------------------
# Sudoku: "[[d,d,d],[d,d,d],[d,d,d]]" with no spaces; every row, column and
# (for size 4) 2x2 block a permutation of 1..size; every given respected.
# ``givens`` maps the 1-based row-major cell number (as a string) to a digit.


def sudoku_member(params, text):
    n = params["size"]
    row = r"\[" + ",".join([r"(\d)"] * n) + r"\]"
    m = re.fullmatch(r"\[" + ",".join([row] * n) + r"\]", text)
    if not m:
        return False
    cells = [int(d) for d in m.groups()]
    board = [cells[r * n : (r + 1) * n] for r in range(n)]
    full = list(range(1, n + 1))
    groups = board + [[board[r][c] for r in range(n)] for c in range(n)]
    if n == 4:
        groups += [
            [board[br + i][bc + j] for i in range(2) for j in range(2)]
            for br in (0, 2)
            for bc in (0, 2)
        ]
    if any(sorted(g) != full for g in groups):
        return False
    return all(cells[int(k) - 1] == v for k, v in params["givens"].items())


# ---------------------------------------------------------------------------
# Graph 3-colouring: the instance's edges in their listed order, each as
# "(i:colour,j:colour)", joined by ","; one colour per node; endpoints differ.

COLOURS = ("red", "green", "blue")


def coloring_member(params, text):
    edges = [tuple(e) for e in params["edges"]]
    entry = r"\((\d+):([a-z]+),(\d+):([a-z]+)\)"
    m = re.fullmatch(",".join([entry] * len(edges)), text)
    if not m:
        return False
    g = m.groups()
    colour = {}
    for k, (i, j) in enumerate(edges):
        ni, ci, nj, cj = int(g[4 * k]), g[4 * k + 1], int(g[4 * k + 2]), g[4 * k + 3]
        if (ni, nj) != (i, j) or ci not in COLOURS or cj not in COLOURS:
            return False
        if colour.setdefault(i, ci) != ci or colour.setdefault(j, cj) != cj:
            return False
        if ci == cj:
            return False
    return True


# ---------------------------------------------------------------------------
# The person-record JSON schema: three fields in order, values over the
# task's ten value letters, age a run of digits.

_JSON = re.compile(
    r'\{"firstName":"[JohnDKuwyz]+","lastName":"[JohnDKuwyz]+","age":[0-9]+\}'
)


def json_member(text):
    return _JSON.fullmatch(text) is not None


# ---------------------------------------------------------------------------
# Blocksworld: "act, act, ..., end" with at least one action.  A word is in
# the language when every action is applicable in the state it meets and
# the goal first holds after the last action.

_BLOCK = "(red|green|blue)"
_ACT = re.compile(
    rf"(pickup|putdown) {_BLOCK}|(stack|unstack) {_BLOCK} {_BLOCK}"
)


def _plan_actions(text):
    if not text.endswith(", end"):
        return None
    parts = text[: -len(", end")].split(", ")
    out = []
    for part in parts:
        m = _ACT.fullmatch(part)
        if not m:
            return None
        out.append(tuple(x for x in m.groups() if x is not None))
    return out


def _step(state, act):
    """Successor of a STRIPS state (a set of tuples), or None."""
    verb, x = act[0], act[1]
    s = set(state)
    if verb == "pickup":
        need = {("clear", x), ("ontable", x), ("handempty",)}
        if not need <= s:
            return None
        return (s - need) | {("holding", x)}
    if verb == "putdown":
        if ("holding", x) not in s:
            return None
        return (s - {("holding", x)}) | {("clear", x), ("ontable", x), ("handempty",)}
    y = act[2]
    if verb == "stack":
        need = {("holding", x), ("clear", y)}
        if x == y or not need <= s:
            return None
        return (s - need) | {("on", x, y), ("clear", x), ("handempty",)}
    need = {("on", x, y), ("clear", x), ("handempty",)}
    if not need <= s:
        return None
    return (s - need) | {("holding", x), ("clear", y)}


def blocks_member(params, text):
    actions = _plan_actions(text)
    if not actions:
        return False
    state = {tuple(f) for f in params["init"]}
    goal = {tuple(f) for f in params["goal"]}
    for act in actions:
        if goal <= state:
            return False  # the goal was reached before this action
        state = _step(state, act)
        if state is None:
            return False
    return goal <= state


# ---------------------------------------------------------------------------


def member(task, params, text):
    """Sem-level membership of ``text`` for one task instance."""
    if task == "anbncn":
        return anbncn_member(text)
    if task == "ambncmdn":
        return ambncmdn_member(text)
    if task == "copy":
        return copy_member(text)
    if task in ("sudoku3", "sudoku4"):
        return sudoku_member(params, text)
    if task == "graph3color":
        return coloring_member(params, text)
    if task == "blocksworld":
        return blocks_member(params, text)
    if task == "json":
        return json_member(text)
    raise KeyError(task)
