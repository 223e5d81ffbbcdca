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


# every action text of the plan grammar, "stack red red" included
_ACTION_OF = {
    " ".join(a): a
    for a in [(v, b) for v in ("pickup", "putdown") for b in BLOCKS]
    + [(v, x, y) for v in ("stack", "unstack") for x in BLOCKS for y in BLOCKS]
}


def _action_texts(text):
    """The non-empty action texts of a word, without its final "end"."""
    body = text[:-3].rstrip(", ") if text.endswith("end") else text
    return [part for part in body.split(", ") if part]


def parse_plan(text):
    """Action tuples from the word text; None when malformed."""
    actions = [_ACTION_OF.get(part) for part in _action_texts(text)]
    return None if None in actions else actions


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


def _settle(text):
    """(the settled nonempty parts of ``text``, the text after them).  A
    part is settled once a later part begins with a character other than
    "," and " ", and the text from that part on is not "e", "en" or "end":
    a final "end" then strips only characters of that text, so
    ``_action_texts`` of any longer text is the settled parts followed by
    ``_action_texts`` of the rest."""
    parts = text.split(", ")
    j = len(parts) - 1
    if parts[j] in ("e", "en", "end"):
        j -= 1
    while j > 0 and parts[j][:1] in ("", ",", " "):
        j -= 1
    if j <= 0:
        return [], text
    return [p for p in parts[:j] if p], ", ".join(parts[j:])


class BlocksDistance(Distance):
    """Distance to goal of the reached state (additive relaxation) plus a
    small plan-length penalty; zero exactly on valid goal-reaching plans.

    The plan is replayed until its first inapplicable action; a malformed
    plan, including one that ends inside an action, counts as the empty
    plan.  A state is (reached state, actions used, stuck at an
    inapplicable action, malformed) after the settled parts of the text
    (see ``_settle``), and the text after them.  The reads of a text and
    terminal, the successors, the heuristic values and the values of
    states are memoised."""

    def __init__(self, params, alpha=0.01, unreachable_penalty=100):
        self.init, self.goal = _params_sets(params)
        self.alpha, self.unreachable_penalty = alpha, unreachable_penalty
        self._h = {}  # state -> h_add to the goal; 3 blocks reach at most 22 states
        self._next = {}  # (state, action) -> successor state, or None
        self._reads = {}  # (text, terminal) -> (settled parts, rest)
        self._values = {}  # fold state -> value

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

    def _replay(self, plan, texts):
        for text in texts:
            plan = self._apply(plan, _ACTION_OF.get(text))
        return plan

    def start(self):
        return (self.init, 0, False, False, "")

    def step(self, state, terminal):
        key = (state[4], terminal)
        read = self._reads.get(key)
        if read is None:
            read = self._reads[key] = _settle(key[0] + terminal)
        settled, rest = read
        return self._replay(state[:4], settled) + (rest,)

    def value(self, state):
        value = self._values.get(state)
        if value is None:
            value = self._values[state] = self._value(state)
        return value

    def _value(self, state):
        rest = state[4]
        reached, used, stuck, bad = self._replay(state[:4], _action_texts(rest))
        if bad:
            reached, used = self.init, 0
        # the rest follows a separator, so the word ends in "end" when it does
        elif rest.endswith("end") and not stuck and self.goal <= reached:
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
