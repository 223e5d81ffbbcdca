"""Reference oracles for ``asgdec.logic``.

``evaluate_node_reference`` is a direct, uncompiled bottom-up evaluator:
per stratum, every rule's body is reordered to positives (each after the
ones that bind the variables of its sums), then builtins, then negations,
and joined by scanning every fact of each positive literal's predicate,
until a whole pass derives nothing new.  A sum or ordering comparison over
a non-integer, and a sum outside 64 bits, evaluate to None (undefined),
and a binding that meets None anywhere in its body or head is dropped.
``enumerate_models_bruteforce`` lists the answer sets of a ground program
by trying every interpretation.  Both are slow and simple on purpose; the
tests compare the compiled evaluator against them.
"""

from __future__ import annotations

import itertools

from asgdec.errors import AsgError, GroundingOverflow
from asgdec.logic import (
    DEFAULT_ATOM_CAP,
    DEFERRED,
    SAT,
    UNSAT,
    Arith,
    SatResult,
    Tup,
    Var,
    literal_vars,
)


class OracleTooLarge(AsgError):
    """Brute-force enumeration asked for more atoms than it can handle."""


class OracleNotGround(AsgError):
    """Brute-force enumeration was given variables or child references."""


def eval_ground_term(t, env):
    """The value of ``t`` under ``env``, which binds all its variables, or
    None when a sum in it is undefined."""
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Tup):
        items = tuple(eval_ground_term(i, env) for i in t.items)
        return None if None in items else Tup(items)
    if isinstance(t, Arith):
        left = eval_ground_term(t.left, env)
        right = eval_ground_term(t.right, env)
        if not isinstance(left, int) or not isinstance(right, int):
            return None
        if t.op == "+":
            v = left + right
        elif t.op == "-":
            v = left - right
        else:
            v = left * right
        if v > 2**63 - 1 or v < -(2**63):
            return None
        return v
    return t


def _match_term(pattern, value, env):
    """Extend env to match pattern against ground value; None on mismatch."""
    if isinstance(pattern, Var):
        bound = env.get(pattern.name)
        if bound is None:
            env = dict(env)
            env[pattern.name] = value
            return env
        return env if bound == value else None
    if isinstance(pattern, Tup):
        if not isinstance(value, Tup) or len(pattern.items) != len(value.items):
            return None
        for p, v in zip(pattern.items, value.items):
            env = _match_term(p, v, env)
            if env is None:
                return None
        return env
    if isinstance(pattern, Arith):
        return env if eval_ground_term(pattern, env) == value else None
    return env if pattern == value else None


def _match_atom(lit, atom_args, env):
    if len(lit.args) != len(atom_args):
        return None
    for p, v in zip(lit.args, atom_args):
        env = _match_term(p, v, env)
        if env is None:
            return None
    return env


def _index(model):
    idx = {}
    for pred, args in model:
        idx.setdefault(pred, set()).add(args)
    return idx


class _Store:
    def __init__(self, background):
        self.local = {}
        self.background = background

    def add(self, pred, args):
        s = self.local.setdefault(pred, set())
        if args in s:
            return False
        s.add(args)
        return True

    def candidates(self, pred):
        yield from tuple(self.local.get(pred, ()))
        yield from self.background.get(pred, ())

    def holds(self, pred, args):
        return args in self.local.get(pred, ()) or args in self.background.get(
            pred, ()
        )

    def count(self):
        return sum(len(s) for s in self.local.values())


def _builtin_holds(op, left, right):
    """Whether the comparison holds, or None when it is undefined."""
    if left is None or right is None:
        return None
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if not isinstance(left, int) or not isinstance(right, int):
        return None
    return {"<": left < right, "<=": left <= right, ">": left > right,
            ">=": left >= right}[op]


def _iter_bindings(body, store, child_idx, env):
    if not body:
        yield env
        return
    lit, rest = body[0], body[1:]
    if lit.builtin or lit.neg:
        args = tuple(eval_ground_term(a, env) for a in lit.args)
        if lit.builtin:
            ok = _builtin_holds(lit.builtin, *args)
            if ok is None:
                return
        elif None in args:
            return
        elif lit.child is not None:
            ok = args in child_idx[lit.child - 1].get(lit.pred, set())
        else:
            ok = store.holds(lit.pred, args)
        if ok != lit.neg:
            yield from _iter_bindings(rest, store, child_idx, env)
        return
    if lit.child is not None:
        source = child_idx[lit.child - 1].get(lit.pred, ())
    else:
        source = store.candidates(lit.pred)
    for args in source:
        env2 = _match_atom(lit, args, env)
        if env2 is not None:
            yield from _iter_bindings(rest, store, child_idx, env2)


def _vars(t):
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Tup):
        return set().union(*map(_vars, t.items))
    if isinstance(t, Arith):
        return _vars(t.left) | _vars(t.right)
    return set()


def _sums_bound(terms, bound):
    """Whether matching ``terms`` left to right after ``bound`` meets every
    sum with its variables bound; adds their variables to ``bound``."""
    for t in terms:
        if isinstance(t, Tup):
            if not _sums_bound(t.items, bound):
                return False
        elif isinstance(t, Arith) and not _vars(t) <= bound:
            return False
        bound |= _vars(t)
    return True


def _reorder_body(body):
    """The body as positives, builtins, negations; the positives in body
    order except that each waits for the ones binding its sums.  None when
    no order of the positives binds them all."""
    pos = [l for l in body if not l.neg and not l.builtin]
    builtins = [l for l in body if l.builtin]
    negs = [l for l in body if l.neg and not l.builtin]
    order, bound = [], set()
    while pos:
        lit = next((l for l in pos if _sums_bound(l.args, set(bound))), None)
        if lit is None:
            return None
        _sums_bound(lit.args, bound)
        pos.remove(lit)
        order.append(lit)
    return tuple(order + builtins + negs)


def evaluate_node_reference(fragment, child_models, background, atom_cap=DEFAULT_ATOM_CAP):
    """Same contract as ``asgdec.logic.evaluate_node``."""
    unrealized = frozenset(k + 1 for k, m in enumerate(child_models) if m is None)
    child_idx = [
        _index(m) if isinstance(m, frozenset) else (m if m is not None else {})
        for m in child_models
    ]
    active, deferred_ids = [], []
    for r in fragment.rules:
        if fragment.rule_defer_deps[r.rule_id] & unrealized:
            deferred_ids.append(r.rule_id)
        else:
            active.append(r)
    store = _Store(background)
    max_stratum = max(fragment.strata.values(), default=0)
    by_stratum = {s: [] for s in range(max_stratum + 1)}
    constraints = []
    for r in active:
        if r.head is None:
            constraints.append(r)
        else:
            by_stratum[fragment.strata[r.head.pred]].append(r)
    for s in range(max_stratum + 1):
        changed = True
        while changed:
            changed = False
            for r in by_stratum[s]:
                body = _reorder_body(r.body)
                for env in _iter_bindings(body, store, child_idx, {}) if body is not None else ():
                    head_args = tuple(eval_ground_term(a, env) for a in r.head.args)
                    if None not in head_args and store.add(r.head.pred, head_args):
                        changed = True
                        if store.count() > atom_cap:
                            raise GroundingOverflow(
                                f"more than {atom_cap} ground atoms derived"
                            )
    for r in constraints:
        body = _reorder_body(r.body)
        for _env in _iter_bindings(body, store, child_idx, {}) if body is not None else ():
            return SatResult(UNSAT, violated=r.rule_id)
    model = frozenset(
        (pred, args) for pred, argset in store.local.items() for args in argset
    )
    if deferred_ids:
        return SatResult(DEFERRED, model=model, deferred=tuple(deferred_ids))
    return SatResult(SAT, model=model)


# ---------------------------------------------------------------------------
# Brute-force oracle over ground programs.


def enumerate_models_bruteforce(rules, max_atoms=20):
    """All answer sets of a ground program, by exhaustive 2^n enumeration.

    Each interpretation is checked to be the least model of its reduct and
    to violate no constraint.  Rules must be ground (no variables).
    """
    atoms = set()
    for r in rules:
        if r.head is not None:
            atoms.add((r.head.pred, r.head.args))
        for lit in r.body:
            if not lit.builtin:
                atoms.add((lit.pred, lit.args))
    for r in rules:
        for lit in itertools.chain(
            [r.head] if r.head else [], r.body
        ):
            if lit.builtin:
                continue
            if literal_vars(lit):
                raise OracleNotGround("oracle requires a ground program")
            if lit.child is not None:
                raise OracleNotGround("oracle does not support child references")
    atoms = sorted(atoms)
    if len(atoms) > max_atoms:
        raise OracleTooLarge(f"{len(atoms)} atoms exceeds the cap of {max_atoms}")

    definite = [r for r in rules if r.head is not None]
    constraints = [r for r in rules if r.head is None]

    def least_model_of_reduct(interp):
        reduct = []
        for r in definite:
            blocked = False
            posbody = []
            for lit in r.body:
                key = (lit.pred, lit.args)
                if lit.neg:
                    if key in interp:
                        blocked = True
                        break
                else:
                    posbody.append(key)
            if not blocked:
                reduct.append(((r.head.pred, r.head.args), posbody))
        model = set()
        changed = True
        while changed:
            changed = False
            for head, body in reduct:
                if head not in model and all(b in model for b in body):
                    model.add(head)
                    changed = True
        return frozenset(model)

    def violates(interp):
        for r in constraints:
            sat = True
            for lit in r.body:
                key = (lit.pred, lit.args)
                holds = key in interp
                if holds == lit.neg:
                    sat = False
                    break
            if sat:
                return True
        return False

    out = set()
    n = len(atoms)
    for bits in range(1 << n):
        interp = frozenset(atoms[i] for i in range(n) if bits >> i & 1)
        if least_model_of_reduct(interp) == interp and not violates(interp):
            out.add(interp)
    return out
