"""Blocksworld planning as a constrained word: a comma-separated action
sequence ending in "end".

The grammar threads the world state through a left-recursive sequence, so
an action whose preconditions fail in the current state is pruned when its
last token is scanned, and "end" only parses once every goal fact holds.
A finished goal also blocks further actions, so accepted words are exactly
the plans that first reach the goal.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import deque

from ..errors import UnreachableGoal
from ..align import segment
from .base import Distance, TaskInstance, TaskSpec

BLOCKS = ("red", "green", "blue")

HANDEMPTY = ("handempty",)


def _actions(blocks):
    acts = []
    for b in blocks:
        acts.append(("pickup", b))
        acts.append(("putdown", b))
    for x, y in itertools.permutations(blocks, 2):
        acts.append(("stack", x, y))
        acts.append(("unstack", x, y))
    return acts


def action_rules(action):
    """STRIPS preconditions / add / delete lists as fluent tuples."""
    kind = action[0]
    if kind == "pickup":
        b = action[1]
        return (
            [("clear", b), ("ontable", b), HANDEMPTY],
            [("holding", b)],
            [("clear", b), ("ontable", b), HANDEMPTY],
        )
    if kind == "putdown":
        b = action[1]
        return (
            [("holding", b)],
            [("clear", b), ("ontable", b), HANDEMPTY],
            [("holding", b)],
        )
    if kind == "stack":
        x, y = action[1], action[2]
        return (
            [("holding", x), ("clear", y)],
            [("on", x, y), ("clear", x), HANDEMPTY],
            [("holding", x), ("clear", y)],
        )
    x, y = action[1], action[2]
    return (
        [("on", x, y), ("clear", x), HANDEMPTY],
        [("holding", x), ("clear", y)],
        [("on", x, y), ("clear", x), HANDEMPTY],
    )


def apply_action(state, action):
    """Successor state, or None when a precondition fails."""
    pre, add, dele = action_rules(action)
    if not all(f in state for f in pre):
        return None
    return frozenset(state - set(dele) | set(add))


def bfs_plan(init, goal, max_len=10):
    """Shortest plan; None when no plan exists within max_len."""
    if goal <= init:
        return []
    seen = {init}
    queue = deque([(init, [])])
    acts = _actions(BLOCKS)
    while queue:
        state, plan = queue.popleft()
        if len(plan) >= max_len:
            continue
        for a in acts:
            nxt = apply_action(state, a)
            if nxt is None or nxt in seen:
                continue
            if goal <= nxt:
                return plan + [a]
            seen.add(nxt)
            queue.append((nxt, plan + [a]))
    return None


def h_add(state, goal):
    """Additive delete-relaxation heuristic: summed least costs of the goal
    facts under ignore-deletes reachability."""
    cost = {f: 0 for f in state}
    acts = _actions(BLOCKS)
    changed = True
    while changed:
        changed = False
        for a in acts:
            pre, add, _ = action_rules(a)
            if any(f not in cost for f in pre):
                continue
            c = 1 + sum(cost[f] for f in pre)
            for f in add:
                if cost.get(f, c + 1) > c:
                    cost[f] = c
                    changed = True
    if any(f not in cost for f in goal):
        raise UnreachableGoal(f"goal facts {sorted(goal - set(cost))} unreachable")
    return sum(cost[f] for f in goal)


# ---------------------------------------------------------------------------
# Grammar generation.


def _fluent_term(f):
    if f == HANDEMPTY:
        return "handempty"
    return "(" + ",".join(str(x) for x in f) + ")"


# The action verb and arguments sit directly in the sequence production, so
# a verb whose preconditions cannot hold, or an argument that violates them,
# is pruned before its token is scanned rather than at action completion.
_VERB_GUARDS = {
    "pickup": """\
  canact :- prev((clear,B)), prev((ontable,B)), prev(handempty).
  :- not canact.
  :- arg1(B), not prev((clear,B)).
  :- arg1(B), not prev((ontable,B)).
  a((pickup,B)) :- arg1(B).\
""",
    "putdown": """\
  canact :- prev((holding,B)).
  :- not canact.
  :- arg1(B), not prev((holding,B)).
  a((putdown,B)) :- arg1(B).\
""",
    "stack": """\
  canact :- prev((holding,X)), prev((clear,Y)).
  :- not canact.
  :- arg1(X), not prev((holding,X)).
  :- arg2(Y), not prev((clear,Y)).
  :- arg1(X), arg2(X).
  a((stack,X,Y)) :- arg1(X), arg2(Y).\
""",
    "unstack": """\
  canact :- prev((on,X,Y)), prev((clear,X)), prev(handempty).
  :- not canact.
  ontop(X) :- prev((on,X,Y)).
  :- arg1(X), not prev((clear,X)).
  :- arg1(X), not ontop(X).
  :- arg1(X), arg2(Y), not prev((on,X,Y)).
  a((unstack,X,Y)) :- arg1(X), arg2(Y).\
""",
}

_EFFECT_RULES = """\
  del((ontable,B)) :- a((pickup,B)).
  del((clear,B)) :- a((pickup,B)).
  del(handempty) :- a((pickup,B)).
  add((holding,B)) :- a((pickup,B)).
  del((holding,B)) :- a((putdown,B)).
  add((ontable,B)) :- a((putdown,B)).
  add((clear,B)) :- a((putdown,B)).
  add(handempty) :- a((putdown,B)).
  del((holding,X)) :- a((stack,X,Y)).
  del((clear,Y)) :- a((stack,X,Y)).
  add((on,X,Y)) :- a((stack,X,Y)).
  add((clear,X)) :- a((stack,X,Y)).
  add(handempty) :- a((stack,X,Y)).
  del((on,X,Y)) :- a((unstack,X,Y)).
  del((clear,X)) :- a((unstack,X,Y)).
  del(handempty) :- a((unstack,X,Y)).
  add((holding,X)) :- a((unstack,X,Y)).
  add((clear,Y)) :- a((unstack,X,Y)).
  holds(F) :- prev(F), not del(F).
  holds(F) :- add(F).
  unmet :- goalf(F), not holds(F).
  met :- not unmet.\
"""

_CHAIN_GUARD = """\
  prev(F) :- holds(F)@1.
  punmet :- goalf(F), not prev(F).
  prevmet :- not punmet.
  :- prevmet.\
"""


def _step_alternative(verb, chained):
    offset = 2 if chained else 0
    two_args = verb in ("stack", "unstack")
    body = (['seq ", "'] if chained else []) + [f'"{verb} "', "block"]
    imports = [f"  arg1(B) :- b(B)@{offset + 2}."]
    if two_args:
        body += ['" "', "block"]
        imports.append(f"  arg2(B) :- b(B)@{offset + 4}.")
    prev = _CHAIN_GUARD if chained else "  prev(F) :- init(F)."
    block = "\n".join(
        [" ".join(body) + " {", prev]
        + imports
        + [_VERB_GUARDS[verb], _EFFECT_RULES, "}"]
    )
    return block


def plan_grammar(init, goal):
    alts = [_step_alternative(v, True) for v in _VERB_GUARDS] + [
        _step_alternative(v, False) for v in _VERB_GUARDS
    ]
    lines = [
        'start -> seq ", " "end" {',
        "  m :- met@1.",
        "  :- not m.",
        "}",
        "seq -> " + "\n  | ".join(alts),
        "block -> "
        + " | ".join(f'"{b}" {{ b({b}). }}' for b in BLOCKS),
        "#background {",
    ]
    for f in sorted(init):
        lines.append(f"  init({_fluent_term(f)}).")
    for f in sorted(goal):
        lines.append(f"  goalf({_fluent_term(f)}).")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Instances, checking, distance.


def _config_state(towers):
    """towers: list of bottom-to-top block lists covering all blocks."""
    state = {HANDEMPTY}
    for tower in towers:
        state.add(("ontable", tower[0]))
        state.add(("clear", tower[-1]))
        for below, above in zip(tower, tower[1:]):
            state.add(("on", above, below))
    return frozenset(state)


def _random_towers(rng, blocks):
    pool = list(blocks)
    rng.shuffle(pool)
    towers = []
    while pool:
        k = rng.randint(1, len(pool))
        towers.append(pool[:k])
        pool = pool[k:]
    return towers


def describe_state(state):
    parts = []
    for f in sorted(state):
        if f[0] == "ontable":
            parts.append(f"{f[1]} is on the table")
        elif f[0] == "on":
            parts.append(f"{f[1]} is on {f[2]}")
    return "; ".join(parts)


def generate_blocksworld(count, seed=0):
    rng = random.Random(seed)
    out = []
    i = 0
    while len(out) < count:
        init = _config_state(_random_towers(rng, BLOCKS))
        target = _config_state(_random_towers(rng, BLOCKS))
        goal = frozenset(f for f in target if f[0] == "on")
        if not goal or goal <= init:
            continue
        plan = bfs_plan(init, goal, 8)
        if plan is None:
            continue
        prompt = (
            "Plan with pickup/putdown/stack/unstack actions. Initial state: "
            + describe_state(init)
            + ". Goal: "
            + "; ".join(f"{f[1]} on {f[2]}" for f in sorted(goal))
            + ". End the plan with 'end'."
        )
        out.append(
            TaskInstance(
                task="blocksworld",
                instance_id=f"blocksworld-{i:03d}",
                prompt=prompt,
                params={
                    "init": sorted(list(f) for f in init),
                    "goal": sorted(list(f) for f in goal),
                },
                grammar_source=plan_grammar(init, goal),
            )
        )
        i += 1
    return out


_ACTION = re.compile(
    r"(pickup|putdown) (red|green|blue)|(stack|unstack) (red|green|blue) (red|green|blue)"
)


def _parse_action(part):
    """Action tuple of one action text; None when malformed."""
    m = _ACTION.fullmatch(part)
    if not m:
        return None
    if m.group(1):
        return (m.group(1), m.group(2))
    return (m.group(3), m.group(4), m.group(5))


def _action_texts(text):
    """The non-empty action texts of a word, without its final "end"."""
    body = text[:-3].rstrip(", ") if text.endswith("end") else text
    return [part for part in body.split(", ") if part]


def parse_plan(text):
    """Action tuples from the word text; None when malformed."""
    actions = []
    for part in _action_texts(text):
        action = _parse_action(part)
        if action is None:
            return None
        actions.append(action)
    return actions


def _params_sets(params):
    init = frozenset(tuple(f) for f in params["init"])
    goal = frozenset(tuple(f) for f in params["goal"])
    return init, goal


def blocks_check(params, word):
    text = "".join(word)
    if not text.endswith("end"):
        return False
    actions = parse_plan(text)
    if actions is None:
        return False
    init, goal = _params_sets(params)
    state = init
    for a in actions:
        state = apply_action(state, a)
        if state is None:
            return False
    return goal <= state


# The distance reads the text of a word as ``parse_plan`` does: split at
# ", " into parts, a final "end" cut off with the "," and " " characters
# (``_STRIP``) before it, and empty parts dropped.  Folded a character at a
# time, the text is held as: the replayed plan of the settled parts; the
# last part with a character outside ``_STRIP`` (a core part), read whole
# or stripped as the text does or does not end in "end"; whether a
# nonempty part of ``_STRIP`` characters alone follows it (junk, which is
# malformed unless a final "end" drops it); and the open part after the
# last separator.

_STRIP = ", "
# every text that ``_parse_action`` reads, "stack red red" included
_ACTION_OF = {
    " ".join(a): a
    for a in [(v, b) for v in ("pickup", "putdown") for b in BLOCKS]
    + [(v, x, y) for v in ("stack", "unstack") for x in BLOCKS for y in BLOCKS]
}
_ACTION_PREFIXES = frozenset(t[:k] for t in _ACTION_OF for k in range(len(t) + 1))


def _close(core, tail):
    """(has a core, is nonempty, the part's action, its action once its
    trailing ``_STRIP`` characters go) of a closed part; actions are None
    when malformed."""
    action = _ACTION_OF.get(core)
    return core != "", core != "" or tail != "", action if tail == "" else None, action


class _Open:
    """The open part: ``core``, the part without its trailing run of
    ``_STRIP`` characters, or None once it begins no action text; ``tail``,
    the last two characters of that run.  ``e`` counts the characters of
    "end" that the part ends with, and ``q`` is (core, tail) of the part
    without them.  ``succ`` maps a terminal to (the closed parts, as
    ``_close`` gives them, and the next open part)."""

    __slots__ = ("core", "tail", "e", "q", "succ")

    def __init__(self, core, tail, e, q):
        self.core, self.tail, self.e, self.q = core, tail, e, q
        self.succ = {}


class BlocksDistance(Distance):
    """Distance to goal of the reached state (additive relaxation) plus a
    small plan-length penalty; zero exactly on valid goal-reaching plans.

    The plan is replayed until its first inapplicable action; a malformed
    plan, including one that ends inside an action, counts as the empty
    plan.  A state is (reached state, actions used, stuck at an
    inapplicable action, malformed, the last core part, junk, open part);
    a step reads its terminal once per open part, and the successors and
    heuristic values are memoised."""

    def __init__(self, params, alpha=0.01, unreachable_penalty=100):
        self.init, self.goal = _params_sets(params)
        self.alpha, self.unreachable_penalty = alpha, unreachable_penalty
        self._h = {}  # state -> h_add to the goal; 3 blocks reach at most 22 states
        self._next = {}  # (state, action) -> successor state, or None
        self._opens = {}  # (core, tail, e, q) -> the one _Open
        self._empty = self._open("", "", 0, ("", ""))

    def _open(self, *key):
        found = self._opens.get(key)
        if found is None:
            found = self._opens[key] = _Open(*key)
        return found

    def _read(self, part, terminal):
        """(closed parts, next open part) after the characters of ``terminal``."""
        closed = []
        core, tail, e, q = part.core, part.tail, part.e, part.q
        for c in terminal:
            if c == " " and tail.endswith(","):
                closed.append(_close(core, tail[:-1]))
                core, tail, e, q = "", "", 0, ("", "")
                continue
            before = (core, tail)
            if c in _STRIP:
                tail = (tail + c)[-2:]
            else:
                if core is not None:
                    core += tail + c
                    if core not in _ACTION_PREFIXES:
                        core = None
                tail = ""
            if e < 3 and c == "end"[e]:
                e += 1
            elif c == "e":
                e, q = 1, before
            else:
                e, q = 0, (core, tail)
        return tuple(closed), self._open(core, tail, e, q)

    def _apply(self, plan, action):
        state, used, stuck, bad = plan
        if action is None:
            return state, used, stuck, True
        if stuck or bad:
            return plan
        key = (state, action)
        nxt = self._next.get(key, False)
        if nxt is False:
            nxt = self._next[key] = apply_action(state, action)
        if nxt is None:
            return state, used, True, bad
        return nxt, used + 1, stuck, bad

    def start(self):
        return (self.init, 0, False, False, None, False, self._empty)

    def step(self, state, terminal):
        part = state[6]
        read = part.succ.get(terminal)
        if read is None:
            read = part.succ[terminal] = self._read(part, terminal)
        closed, part = read
        if not closed:
            return state[:6] + (part,)
        plan, last, junk = state[:4], state[4], state[5]
        for has_core, nonempty, raw, stripped in closed:
            if has_core:
                if last is not None:
                    plan = self._apply(plan, last[0])
                if junk:
                    plan = self._apply(plan, None)
                last, junk = (raw, stripped), False
            elif nonempty:
                junk = True
        return plan + (last, junk, part)

    def value(self, state):
        plan, last, junk, part = state[:4], state[4], state[5], state[6]
        ended = part.e == 3
        if ended and part.q[0] == "":  # the plan ends at the last core part
            if last is not None:
                plan = self._apply(plan, last[1])
        else:
            if last is not None:
                plan = self._apply(plan, last[0])
            if junk:
                plan = self._apply(plan, None)
            if ended:
                plan = self._apply(plan, _ACTION_OF.get(part.q[0]))
            elif part.core != "" or part.tail:
                plan = self._apply(plan, _close(part.core, part.tail)[2])
        reached, used, stuck, bad = plan
        if bad:
            reached, used = self.init, 0
        elif ended and not stuck and self.goal <= reached:
            return 0.0
        h = self._h.get(reached)
        if h is None:
            try:
                h = h_add(reached, self.goal)
            except UnreachableGoal:
                h = self.unreachable_penalty
            self._h[reached] = h
        alpha = self.alpha
        return max(h, 1) * 1.0 + alpha * used if h == 0 else h + alpha * used


blocks_rho = BlocksDistance


def _reference(inst):
    text = "".join(" ".join(a) + ", " for a in bfs_plan(*_params_sets(inst.params)))
    return segment(inst.grammar().terminals, text + "end")[0]


SPECS = (
    TaskSpec("blocksworld", generate_blocksworld, blocks_rho, _reference,
             budget=200, max_tokens=160),
)
