"""Benchmark task registry: one ``TaskSpec`` per task, keyed by task id.

Each task module defines the specs of its tasks in ``SPECS``; the
functions below read them.
"""

from __future__ import annotations

from ..earley import accepts
from ..grammar import project
from . import blocks, jsontask, puzzles, sgs
from .base import (
    MetricsReport,
    TaskInstance,
    TaskSpec,
    is_solved,
    score_run,
    validity,
)

TASKS = {spec.name: spec for m in (sgs, puzzles, blocks, jsontask) for spec in m.SPECS}
TASK_IDS = tuple(TASKS)


def generate_instances(task, count, seed=0):
    if task not in TASKS:
        raise KeyError(f"unknown task {task!r}; choose from {TASK_IDS}")
    return TASKS[task].generate(count, seed=seed)


def rho_for(instance):
    """Distance function for one instance, or None for reward-free tasks."""
    rho = TASKS[instance.task].rho
    return None if rho is None else rho(instance.params)


def checker_for(instance):
    """Boolean solved-test for one instance (see ``is_solved``)."""
    g_cfg = project(instance.grammar(), "cfg")
    rho = rho_for(instance)
    return lambda word: is_solved(
        accepts(g_cfg, tuple(word)), None if rho is None else rho(word)
    )


def reference_solution(instance):
    """One known-correct word for the instance, as a terminal tuple."""
    return TASKS[instance.task].reference(instance)


__all__ = [
    "TASKS",
    "TASK_IDS",
    "MetricsReport",
    "TaskInstance",
    "TaskSpec",
    "checker_for",
    "generate_instances",
    "is_solved",
    "reference_solution",
    "rho_for",
    "score_run",
    "validity",
]
