"""Combinatorial puzzles: Sudoku boards and 3-coloring of small graphs.

Grammars are generated per instance: the board / graph structure is fixed
in the productions and background facts, while the solver only chooses
digits or colors.  Givens and structural relations live in the background
so every conflicting choice is pruned the moment its token is scanned.
"""

from __future__ import annotations

import itertools
import math
import random
import re

from ..align import segment
from .base import TaskInstance, TaskSpec

# ---------------------------------------------------------------------------
# Sudoku 3x3: one wide production, one nonterminal per cell.  A 3x3 board
# has no subgrid blocks, so the rules are row/column uniqueness plus givens.


def _sudoku3_grammar(givens):
    body = ['"["']
    cell_pos = {}
    k = 1
    for r in range(3):
        body.append('"["')
        for c in range(3):
            if c:
                body.append('","')
            body.append(f"c{k}")
            cell_pos[k] = len(body)
            k += 1
        body.append('"]"')
        if r < 2:
            body.append('","')
    body.append('"]"')
    imports = "\n".join(
        f"  val({k},V) :- v({k},V)@{p}." for k, p in sorted(cell_pos.items())
    )
    lines = [
        "start -> " + " ".join(body) + " {",
        imports,
        "  :- val(I,V), val(J,V), same_row(I,J).",
        "  :- val(I,V), val(J,V), same_col(I,J).",
        "  :- val(I,V), given(I,W), V != W.",
        "}",
    ]
    for k in range(1, 10):
        alts = " | ".join(f'"{d}" {{ v({k},{d}). }}' for d in (1, 2, 3))
        lines.append(f"c{k} -> {alts}")
    bg = []
    for i in range(1, 10):
        for j in range(1, 10):
            if i < j and (i - 1) // 3 == (j - 1) // 3:
                bg.append(f"same_row({i},{j}).")
            if i < j and (i - 1) % 3 == (j - 1) % 3:
                bg.append(f"same_col({i},{j}).")
    for k, v in sorted(givens.items()):
        bg.append(f"given({k},{v}).")
    lines.append("#background {")
    lines.extend("  " + fact for fact in bg)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _random_latin3(rng):
    rows = [[1, 2, 3], [2, 3, 1], [3, 1, 2]]
    perm = rng.sample([0, 1, 2], 3)
    sym = rng.sample([1, 2, 3], 3)
    rows = [rows[i] for i in perm]
    cols = rng.sample([0, 1, 2], 3)
    return [[sym[rows[r][c] - 1] for c in cols] for r in range(3)]


def _sudoku_instance(i, board, holes, rng, grammar):
    """Instance ``i``: the solved ``board`` with ``holes`` cells, drawn
    from ``rng``, hidden; ``grammar`` builds the source from the givens."""
    size = len(board)
    cells = list(range(size * size))
    rng.shuffle(cells)
    hidden = set(cells[:holes])
    givens = {
        k + 1: board[k // size][k % size]
        for k in range(size * size)
        if k not in hidden
    }
    shown = [
        [board[r][c] if r * size + c not in hidden else "*" for c in range(size)]
        for r in range(size)
    ]
    prompt = (
        "Generate a valid solution to the Sudoku board "
        + str(shown).replace("'", "")
        + " as a nested list, filling the * holes."
    )
    return TaskInstance(
        task=f"sudoku{size}",
        instance_id=f"sudoku{size}-{i:03d}",
        prompt=prompt,
        params={"size": size, "givens": {str(k): v for k, v in givens.items()}},
        grammar_source=grammar(givens),
    )


def generate_sudoku3(count, seed=0, holes=4):
    rng = random.Random(seed)
    return [
        _sudoku_instance(i, _random_latin3(rng), holes, rng, _sudoku3_grammar)
        for i in range(count)
    ]


def parse_board(text, size):
    digits = re.findall(r"\d", text)
    if len(digits) != size * size:
        return None
    vals = [int(d) for d in digits]
    return [vals[r * size : (r + 1) * size] for r in range(size)]


def sudoku_check(params, word):
    size = params["size"]
    board = parse_board("".join(word), size)
    if board is None:
        return False
    for line in board + [list(col) for col in zip(*board)]:
        if sorted(line) != list(range(1, size + 1)):
            return False
    if size == 4:
        for br in (0, 2):
            for bc in (0, 2):
                block = [board[br + r][bc + c] for r in range(2) for c in range(2)]
                if sorted(block) != [1, 2, 3, 4]:
                    return False
    for k, v in params["givens"].items():
        k = int(k)
        if board[(k - 1) // size][(k - 1) % size] != v:
            return False
    return True


def sudoku_rho(params):
    # sparse distance: zero exactly on solved boards
    def rho(word):
        return 0 if sudoku_check(params, word) else 1

    return rho


# ---------------------------------------------------------------------------
# Sudoku 4x4: nested rows as in the reference grammar shape, with givens
# and block structure in the background.


def _sudoku4_grammar(givens):
    lines = [
        "start -> board {}",
        'board -> "[" row "," row "," row "," row "]" {',
    ]
    for r in range(1, 5):
        child = 2 * r
        for c in range(1, 5):
            lines.append(f"  cell_value(({r},{c}),V) :- col({c},V)@{child}.")
    lines += [
        "  :- same_row(C1,C2), cell_value(C1,V), cell_value(C2,V).",
        "  :- same_col(C1,C2), cell_value(C1,V), cell_value(C2,V).",
        "  :- same_block(C1,C2), cell_value(C1,V), cell_value(C2,V).",
        "  :- cell_value(C,V), given(C,W), V != W.",
        "}",
        'row -> "[" cell "," cell "," cell "," cell "]" {',
    ]
    for c in range(1, 5):
        lines.append(f"  col({c},V) :- cell_value(V)@{2 * c}.")
    lines += [
        "  :- col(I,V), col(J,V), I != J.",
        "}",
        "cell -> digit { cell_value(X) :- digit(X)@1. }",
        "digit -> "
        + " | ".join(f'"{d}" {{ digit({d}). }}' for d in (1, 2, 3, 4)),
        "#background {",
    ]
    for r in range(1, 5):
        for c in range(1, 5):
            lines.append(f"  cell(({r},{c})).")
    lines += [
        "  block((X,Y),tl) :- cell((X,Y)), X < 3, Y < 3.",
        "  block((X,Y),tr) :- cell((X,Y)), X < 3, Y > 2.",
        "  block((X,Y),bl) :- cell((X,Y)), X > 2, Y < 3.",
        "  block((X,Y),br) :- cell((X,Y)), X > 2, Y > 2.",
        "  same_row((R,C1),(R,C2)) :- cell((R,C1)), cell((R,C2)), C1 != C2.",
        "  same_col((R1,C),(R2,C)) :- cell((R1,C)), cell((R2,C)), R1 != R2.",
        "  same_block(C1,C2) :- block(C1,B), block(C2,B), C1 != C2.",
    ]
    for k, v in sorted(givens.items()):
        r, c = (k - 1) // 4 + 1, (k - 1) % 4 + 1
        lines.append(f"  given(({r},{c}),{v}).")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _solve_sudoku(board, rng=None):
    """Fill the zeros of a size x size ``board`` in place by row-major
    backtracking, trying digits in ascending order or, given ``rng``, in
    shuffled order; None when no filling exists.  Rows and columns hold
    distinct digits, and so do the blocks of a square size."""
    size = len(board)
    spot = next(
        ((r, c) for r in range(size) for c in range(size) if board[r][c] == 0),
        None,
    )
    if spot is None:
        return board
    r, c = spot
    digits = list(range(1, size + 1))
    if rng:
        rng.shuffle(digits)
    side = math.isqrt(size)
    has_blocks = side * side == size
    br, bc = r // side * side, c // side * side
    for d in digits:
        ok = all(board[r][j] != d for j in range(size)) and all(
            board[i][c] != d for i in range(size)
        )
        if has_blocks:
            ok = ok and all(
                board[br + i][bc + j] != d for i in range(side) for j in range(side)
            )
        if ok:
            board[r][c] = d
            if _solve_sudoku(board, rng) is not None:
                return board
            board[r][c] = 0
    return None


def _sudoku_reference(inst):
    size = inst.params["size"]
    board = [[0] * size for _ in range(size)]
    for k, v in inst.params["givens"].items():
        k = int(k) - 1
        board[k // size][k % size] = v
    return tuple(str(_solve_sudoku(board)).replace(" ", ""))


def generate_sudoku4(count, seed=0, holes=6):
    rng = random.Random(seed)
    return [
        _sudoku_instance(
            i, _solve_sudoku([[0] * 4 for _ in range(4)], rng), holes, rng,
            _sudoku4_grammar,
        )
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# 3-coloring.  The word lists every instance edge in canonical order with a
# color for each endpoint: (1:red,3:blue),(2:green,3:red),...

COLORS = ("red", "green", "blue")


def _coloring_grammar(edges):
    lines = []
    start_body = []
    for k in range(1, len(edges) + 1):
        if k > 1:
            start_body.append('","')
        start_body.append(f"e{k}")
    ann = []
    for k, (i, j) in enumerate(edges, start=1):
        child = 2 * k - 1
        ann.append(f"  col(N,C) :- ec(N,C)@{child}.")
    lines.append("start -> " + " ".join(start_body) + " {")
    lines.extend(ann)
    lines += [
        "  :- col(N,C), col(N,D), C != D.",
        "  :- edge(I,J), col(I,C), col(J,C).",
        "}",
    ]
    for k, (i, j) in enumerate(edges, start=1):
        lines.append(
            f'e{k} -> "(" "{i}" ":" c "," "{j}" ":" c ")" '
            + f"{{ ec({i},C) :- c(C)@4. ec({j},C) :- c(C)@8. }}"
        )
    lines.append(
        "c -> " + " | ".join(f'"{col}" {{ c({col}). }}' for col in COLORS)
    )
    lines.append("#background {")
    for i, j in edges:
        lines.append(f"  edge({i},{j}).")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _solve_coloring(n_nodes, edges):
    """First proper coloring in product order, or None."""
    for assign in itertools.product(COLORS, repeat=n_nodes):
        if all(assign[i - 1] != assign[j - 1] for i, j in edges):
            return assign
    return None


def generate_graph3color(count, seed=0):
    rng = random.Random(seed)
    out = []
    i = 0
    while len(out) < count:
        n = rng.randint(3, 5)
        possible = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        m = rng.randint(3, min(10, len(possible)))
        edges = sorted(rng.sample(possible, m))
        if _solve_coloring(n, edges) is None:
            continue
        prompt = (
            f"Assign one of three colors (red, green, blue) to each node of "
            f"the graph with edges {edges} so adjacent nodes differ; answer "
            f"as an edge list with colored endpoints."
        )
        out.append(
            TaskInstance(
                task="graph3color",
                instance_id=f"graph3color-{i:03d}",
                prompt=prompt,
                params={"nodes": n, "edges": [list(e) for e in edges]},
                grammar_source=_coloring_grammar(edges),
            )
        )
        i += 1
    return out


_ENTRY = re.compile(r"\((\d):(red|green|blue),(\d):(red|green|blue)\)")


def coloring_entries(text):
    return [
        (int(i), ci, int(j), cj) for i, ci, j, cj in _ENTRY.findall(text)
    ]


def coloring_rho(params):
    """Distance e - e_w: e_w counts edges that are present, consistently
    colored with the first assignment of each node, and bi-colored."""
    edges = [tuple(e) for e in params["edges"]]

    def rho(word):
        entries = coloring_entries("".join(word))
        assign = {}
        for i, ci, j, cj in entries:
            assign.setdefault(i, ci)
            assign.setdefault(j, cj)
        good = 0
        listed = set()
        for i, ci, j, cj in entries:
            if (i, j) in edges and (i, j) not in listed:
                listed.add((i, j))
                if ci != cj and assign[i] == ci and assign[j] == cj:
                    good += 1
        return len(edges) - good

    return rho


def coloring_check(params, word):
    edges = [tuple(e) for e in params["edges"]]
    entries = coloring_entries("".join(word))
    if [(i, j) for i, _, j, _ in entries] != edges:
        return False
    assign = {}
    for i, ci, j, cj in entries:
        if assign.setdefault(i, ci) != ci or assign.setdefault(j, cj) != cj:
            return False
    return all(assign[i] != assign[j] for i, j in edges)


def _coloring_reference(inst):
    edges = [tuple(e) for e in inst.params["edges"]]
    c = _solve_coloring(inst.params["nodes"], edges)
    text = ",".join(f"({i}:{c[i - 1]},{j}:{c[j - 1]})" for i, j in edges)
    return segment(inst.grammar().terminals, text)[0]


SPECS = (
    TaskSpec("sudoku3", generate_sudoku3, sudoku_rho, _sudoku_reference,
             budget=10, max_tokens=64),
    TaskSpec("sudoku4", generate_sudoku4, sudoku_rho, _sudoku_reference,
             budget=265, max_tokens=96),
    TaskSpec("graph3color", generate_graph3color, coloring_rho,
             _coloring_reference, budget=35, max_tokens=160),
)
