"""Structured-output task: emit a record matching a fixed JSON schema.

All annotation blocks are empty, so the grammar is a plain CFG and the
interesting metric is syntactic validity of constrained vs unconstrained
sampling.  The value alphabet is chosen so no run of value characters can
spell a key name, keeping text-to-terminal segmentation unambiguous.
"""

from __future__ import annotations

import random

from ..align import segment
from .base import TaskInstance, TaskSpec

VALUE_CHARS = ("J", "o", "h", "n", "D", "K", "u", "w", "y", "z")

JSON_GRAMMAR = (
    """\
start -> "{" fields "}" {}
fields -> firstName "," lastName "," age {}
firstName -> "\\"firstName\\"" ":" string {}
lastName -> "\\"lastName\\"" ":" string {}
age -> "\\"age\\"" ":" number {}
string -> "\\"" chars "\\"" {}
chars -> chars char {} | char {}
"""
    + "char -> "
    + " | ".join(f'"{c}" {{}}' for c in VALUE_CHARS)
    + "\n"
    + "number -> number digit {} | digit {}\n"
    + "digit -> "
    + " | ".join(f'"{d}" {{}}' for d in range(10))
    + "\n"
)


def _word(first, last, age):
    return (
        '{"firstName":"' + first + '","lastName":"' + last + '","age":' + str(age) + "}"
    )


def sample_record(rng):
    first = "".join(rng.choice(VALUE_CHARS) for _ in range(rng.randint(2, 6)))
    last = "".join(rng.choice(VALUE_CHARS) for _ in range(rng.randint(2, 6)))
    return first, last, rng.randint(0, 99)


def exemplar_corpus(count=200, seed=0):
    """Schema-conforming documents for fitting the n-gram policy."""
    rng = random.Random(seed)
    return [_word(*sample_record(rng)) for _ in range(count)]


def generate_json(count, seed=0):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        first, last, age = sample_record(rng)
        prompt = (
            f"Extract the person record from: {first} {last} is {age} years "
            f"old. Respond as JSON with firstName, lastName and age."
        )
        out.append(
            TaskInstance(
                task="json",
                instance_id=f"json-{i:03d}",
                prompt=prompt,
                params={"firstName": first, "lastName": last, "age": age},
                grammar_source=JSON_GRAMMAR,
            )
        )
    return out


def _reference(inst):
    p = inst.params
    text = _word(p["firstName"], p["lastName"], p["age"])
    return segment(inst.grammar().terminals, text)[0]


# no rho: the schema grammar is the whole task, so a run has no reward
SPECS = (TaskSpec("json", generate_json, None, _reference, budget=1, max_tokens=64),)
