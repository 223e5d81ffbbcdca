"""Shared task-instance plumbing and run metrics."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

from ..decoding import COMPLETED
from ..earley import accepts
from ..grammar import LEVELS, parse_grammar, project


@dataclass(frozen=True)
class TaskInstance:
    task: str
    instance_id: str
    prompt: str
    params: dict
    grammar_source: str

    def grammar(self):
        return parse_grammar(self.grammar_source)

    def to_json(self, grammar_path):
        return json.dumps(
            {
                "task": self.task,
                "instance_id": self.instance_id,
                "prompt": self.prompt,
                "params": self.params,
                "grammar_path": grammar_path,
            },
            indent=2,
            sort_keys=True,
        )


@dataclass(frozen=True)
class TaskSpec:
    """Everything the harness knows about one benchmark task.  Each task
    module lists its specs in ``SPECS``; adding a task means one spec next
    to its code."""

    name: str
    generate: Callable  # (count, seed=...) -> list of TaskInstance
    rho: Optional[Callable]  # params -> Distance; None without a reward
    reference: Callable  # TaskInstance -> one solved word (terminal tuple)
    budget: int  # default generation budget of ``asgdec run``
    max_tokens: int  # default generation cap, sized to the longest answer


class Distance:
    """A task distance as a fold over the terminals of a word: ``start()``
    is the state of the empty word, ``step(state, terminal)`` the state one
    terminal longer and ``value(state)`` the distance there.  States are
    immutable, so a search may keep and branch them.  Called on a word, a
    distance is the value of the fold over it."""

    def start(self):
        raise NotImplementedError

    def step(self, state, terminal):
        raise NotImplementedError

    def value(self, state):
        raise NotImplementedError

    def over(self, word):
        """The state after ``word``."""
        state = self.start()
        for t in word:
            state = self.step(state, t)
        return state

    def __call__(self, word):
        return self.value(self.over(word))


class WordDistance(Distance):
    """A whole-word distance ``fn`` (terminal tuple -> float) as a fold
    whose state is the word itself."""

    def __init__(self, fn):
        self.fn = fn

    def start(self):
        return ()

    def step(self, state, terminal):
        return state + (terminal,)

    def value(self, state):
        return self.fn(state)

    def over(self, word):
        return tuple(word)


def save_instances(instances, directory):
    os.makedirs(directory, exist_ok=True)
    paths = []
    for inst in instances:
        gpath = os.path.join(directory, f"{inst.instance_id}.asg")
        with open(gpath, "w", encoding="utf-8") as fh:
            fh.write(inst.grammar_source)
        jpath = os.path.join(directory, f"{inst.instance_id}.json")
        with open(jpath, "w", encoding="utf-8") as fh:
            fh.write(inst.to_json(os.path.basename(gpath)))
        paths.append(jpath)
    return paths


def load_instance(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    gpath = os.path.join(os.path.dirname(path), doc["grammar_path"])
    with open(gpath, encoding="utf-8") as fh:
        source = fh.read()
    return TaskInstance(
        task=doc["task"],
        instance_id=doc["instance_id"],
        prompt=doc.get("prompt", ""),
        params=doc.get("params", {}),
        grammar_source=source,
    )


# ---------------------------------------------------------------------------
# Metrics.


def validity(grammar, word):
    """Membership of ``word`` at the three levels; no word (None) is in none."""
    return {
        f"v_{level}": word is not None and accepts(project(grammar, level), tuple(word))
        for level in LEVELS[1:]
    }


def is_solved(v_cfg, rho):
    """The one definition of a solved word: it is in the cfg language and,
    where the task has a distance, ``rho`` (its value) is 0."""
    return bool(v_cfg) and (rho is None or rho == 0)


@dataclass
class MetricsReport:
    n: int
    accuracy: float
    v_cfg: float
    v_csg: float
    v_sem: float
    mean_tokens: float
    mean_t_constraint_ms: float
    empty: bool = False

    @classmethod
    def of(cls, records):
        """Aggregate run records: ``outcome`` plus optional ``rho``,
        ``tokens``, ``t_constraint_ms`` and the ``v_*`` flags.  A record is
        accurate when it completed with a solved word."""
        n = len(records)
        if not n:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, empty=True)

        def mean(values):
            return sum(values) / n

        return cls(
            n=n,
            accuracy=mean(
                r.get("outcome") == COMPLETED
                and is_solved(r.get("v_cfg"), r.get("rho"))
                for r in records
            ),
            v_cfg=mean(r.get("v_cfg", False) for r in records),
            v_csg=mean(r.get("v_csg", False) for r in records),
            v_sem=mean(r.get("v_sem", False) for r in records),
            mean_tokens=mean(r.get("tokens", 0) for r in records),
            mean_t_constraint_ms=mean(r.get("t_constraint_ms", 0.0) for r in records),
        )

    def row(self):
        if self.empty:
            return "n=0 (no results)"
        return (
            f"n={self.n}  A={self.accuracy:.1%}  V_CFG={self.v_cfg:.1%}  "
            f"V_CSG={self.v_csg:.1%}  V_SEM={self.v_sem:.1%}  "
            f"tokens={self.mean_tokens:.1f}  T_C={self.mean_t_constraint_ms:.1f}ms"
        )


def score_run(grammar, results, rho_fn=None):
    """Aggregate validity / accuracy rates for one batch.

    ``results`` carry terminals, outcome, tokens, constraint time and
    optionally rho; validity and a missing rho are filled in as
    ``asgdec run`` fills its records.
    """
    records = []
    for r in results:
        word = r.get("terminals")
        rho = r.get("rho")
        if rho is None and rho_fn is not None and word is not None:
            rho = rho_fn(word)
        records.append({**r, "rho": rho, **validity(grammar, word)})
    return MetricsReport.of(records)
