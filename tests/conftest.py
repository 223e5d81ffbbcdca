"""Shared fixtures and independent language oracles.

The oracles here are closed-form descriptions of the bounded-count
languages, written directly from the language definitions so the engine
can be checked against something it shares no code with.
"""

from __future__ import annotations

import re

import pytest

from asgdec import Session, parse_grammar
from asgdec.tasks.sgs import AMBNCMDN_GRAMMAR, ANBNCN_GRAMMAR, COPY_GRAMMAR

# ---------------------------------------------------------------------------
# closed-form membership


def anbncn_member(w):
    w = "".join(w)
    m = re.fullmatch(r"(a+)(b+)(c+)", w)
    return bool(m) and len(m.group(1)) == len(m.group(2)) == len(m.group(3))


def ambncmdn_member(w):
    w = "".join(w)
    m = re.fullmatch(r"(a+)(b+)(c+)(d+)", w)
    if not m:
        return False
    p, q, r, s = (len(g) for g in m.groups())
    return p == r and q == s and p != q


def copy_member(w):
    w = "".join(w)
    h = len(w) // 2
    return len(w) >= 2 and len(w) % 2 == 0 and w[:h] == w[h:]


# ---------------------------------------------------------------------------
# closed-form next-symbol sets (None stands for end of word)


def _runs(w):
    """Split a letter string into (letter, count) runs."""
    out = []
    for c in w:
        if out and out[-1][0] == c:
            out[-1][1] += 1
        else:
            out.append([c, 1])
    return [(c, k) for c, k in out]


def anbncn_next(w):
    w = "".join(w)
    runs = _runs(w)
    if [c for c, _ in runs] != ["a", "b", "c"][: len(runs)]:
        return set()
    i = runs[0][1] if len(runs) > 0 else 0
    j = runs[1][1] if len(runs) > 1 else 0
    k = runs[2][1] if len(runs) > 2 else 0
    out = set()
    if j == 0 and k == 0:
        out.add("a")
    if i >= 1 and k == 0 and j < i:
        out.add("b")
    if i >= 1 and j == i and k < i:
        out.add("c")
    if i >= 1 and i == j == k:
        out.add(None)
    return out


def ambncmdn_next(w):
    w = "".join(w)
    runs = _runs(w)
    if [c for c, _ in runs] != ["a", "b", "c", "d"][: len(runs)]:
        return set()
    p = runs[0][1] if len(runs) > 0 else 0
    q = runs[1][1] if len(runs) > 1 else 0
    r = runs[2][1] if len(runs) > 2 else 0
    s = runs[3][1] if len(runs) > 3 else 0
    out = set()
    if q == 0 and r == 0 and s == 0:
        out.add("a")
    if p >= 1 and r == 0 and s == 0:
        out.add("b")
    if p >= 1 and q >= 1 and s == 0 and r < p and not (r == 0 and q == p):
        out.add("c")
    if p >= 1 and q >= 1 and r == p and s < q and p != q:
        out.add("d")
    if p >= 1 and q >= 1 and p == r and q == s and p != q:
        out.add(None)
    return out


def copy_next(w):
    # every prefix u extends to the duplicated word uu, so both letters
    # are always viable; the word can end exactly at duplications
    out = {"a", "b"}
    if copy_member(w):
        out.add(None)
    return out


class CountingPolicy:
    """Wrapper that counts next_distribution calls, for the tests'
    asserts; a search counts its own in ``SearchStats.policy_calls``."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.vocab_size = inner.vocab_size

    def next_distribution(self, ctx):
        self.calls += 1
        return self.inner.next_distribution(ctx)


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="session")
def anbncn_grammar():
    return parse_grammar(ANBNCN_GRAMMAR)


@pytest.fixture(scope="session")
def ambncmdn_grammar():
    return parse_grammar(AMBNCMDN_GRAMMAR)


@pytest.fixture(scope="session")
def copy_grammar():
    return parse_grammar(COPY_GRAMMAR)


@pytest.fixture()
def session():
    return Session()
