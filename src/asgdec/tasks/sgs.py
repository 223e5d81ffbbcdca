"""Synthetic grammar tasks: equal-count, paired-count, and copy languages.

The grammars are written as left-recursive spines whose annotations carry
running letter counts, so every constraint violation is detected the moment
the offending letter is scanned and the valid-completion set is exact
(equal to the brute-force next-symbol set) at every prefix.
"""

from __future__ import annotations

import random

from .base import TaskInstance, TaskSpec, WordDistance

ANBNCN_GRAMMAR = """\
% L = { a^n b^n c^n : n >= 1 }, generated on a single counting spine.
% ph tracks the letter phase (1=a, 2=b, 3=c); counts must stay viable at
% every step so invalid letters are pruned as soon as they appear.
start -> seq {
  ok :- na(X)@1, nb(X)@1, nc(X)@1.
  :- not ok.
}
seq -> seq "a" {
    :- ph(P)@1, P != 1.
    na(X+1) :- na(X)@1.  nb(X) :- nb(X)@1.  nc(X) :- nc(X)@1.
    ph(1).
  }
  | seq "b" {
    :- ph(P)@1, P > 2.
    na(X) :- na(X)@1.  nb(X+1) :- nb(X)@1.  nc(X) :- nc(X)@1.
    ph(2).
    :- na(X), nb(Y), Y > X.
  }
  | seq "c" {
    :- ph(P)@1, P < 2.
    na(X) :- na(X)@1.  nb(X) :- nb(X)@1.  nc(X+1) :- nc(X)@1.
    ph(3).
    :- na(X), nb(Y), X != Y.
    :- na(X), nc(Z), Z > X.
  }
  | "a" { na(1). nb(0). nc(0). ph(1). }
"""

AMBNCMDN_GRAMMAR = """\
% L = { a^m b^n c^m d^n : m, n >= 1, m != n }.
% Paired counts on one spine; the m != n requirement locks in when the
% first c closes the b block.
start -> seq {
  ok :- na(X)@1, nc(X)@1, nb(Y)@1, nd(Y)@1, ph(4)@1.
  :- not ok.
}
seq -> seq "a" {
    :- ph(P)@1, P != 1.
    na(X+1) :- na(X)@1.  nb(X) :- nb(X)@1.  nc(X) :- nc(X)@1.  nd(X) :- nd(X)@1.
    ph(1).
  }
  | seq "b" {
    :- ph(P)@1, P > 2.
    na(X) :- na(X)@1.  nb(X+1) :- nb(X)@1.  nc(X) :- nc(X)@1.  nd(X) :- nd(X)@1.
    ph(2).
  }
  | seq "c" {
    :- ph(P)@1, P < 2.
    :- ph(P)@1, P > 3.
    :- ph(2)@1, na(X), nb(X).
    na(X) :- na(X)@1.  nb(X) :- nb(X)@1.  nc(X+1) :- nc(X)@1.  nd(X) :- nd(X)@1.
    ph(3).
    :- na(X), nc(Z), Z > X.
  }
  | seq "d" {
    :- ph(P)@1, P < 3.
    :- ph(3)@1, na(X), not nc(X).
    na(X) :- na(X)@1.  nb(X) :- nb(X)@1.  nc(X) :- nc(X)@1.  nd(X+1) :- nd(X)@1.
    ph(4).
    :- nb(Y), nd(W), W > Y.
  }
  | "a" { na(1). nb(0). nc(0). nd(0). ph(1). }
"""

COPY_GRAMMAR = """\
% L = { ww : w in {a,b}+ }.  The spine exports the indexed letter sequence;
% the root accepts when the string splits into two equal halves.
start -> seq {
  idx(I) :- letter(I,C)@1.
  half(R) :- n(N)@1, idx(R), N = R + R.
  bad :- half(R), letter(I,C)@1, letter(J,D)@1, J = I + R, I <= R, C != D.
  ok :- half(R), not bad.
  :- not ok.
}
seq -> seq "a" { letter(I,C) :- letter(I,C)@1. n(N+1) :- n(N)@1. letter(N+1,la) :- n(N)@1. }
  | seq "b" { letter(I,C) :- letter(I,C)@1. n(N+1) :- n(N)@1. letter(N+1,lb) :- n(N)@1. }
  | "a" { n(1). letter(1,la). }
  | "b" { n(1). letter(1,lb). }
"""


def anbncn_rho(target_n):
    """The count distance |n - #a| over the "a" terminals, with zero
    reserved for exact solutions."""

    def rho(word):
        base = abs(target_n - word.count("a"))
        return 1 if base == 0 and not anbncn_check(target_n, word) else base

    return WordDistance(rho)


def ambncmdn_rho(target_m, target_n):
    """The count distance |m + n - #a - #b| over the "a" and "b" terminals,
    with zero reserved for solutions (see ``ambncmdn_check``)."""
    params = {"m": target_m, "n": target_n}

    def rho(word):
        base = abs(target_m + target_n - word.count("a") - word.count("b"))
        return 1 if base == 0 and not ambncmdn_check(params, word) else base

    return WordDistance(rho)


def copy_rho(params):
    """Distance for the three copy-task regimes: the minimal number of
    letters that still have to be appended to turn the word into a solved
    duplicated pair.  Zero exactly on solved words; on partial words it is
    a completion distance, so shorter viable prefixes score better than
    long near-misses."""
    kind = params["kind"]

    def extra_first_half(ca, cb):
        # letters to add to the first half before the goal holds, or None
        # when the goal can no longer be met by appending
        if kind == "count_a":
            return params["target"] - ca if ca <= params["target"] else None
        if kind == "count_b":
            return params["target"] - cb if cb <= params["target"] else None
        thr = params["threshold"]
        k = 0
        while True:
            if any((ca + i) * (cb + k - i) >= thr for i in range(k + 1)):
                return k
            k += 1

    def rho(word):
        w = "".join(word)
        n = len(w)
        best = None
        # splits already under way: w = uv with v a prefix of u fixes u
        for h in range((n + 1) // 2, n):
            if h >= 1 and w[h:] == w[: n - h]:
                u = w[:h]
                if extra_first_half(u.count("a"), u.count("b")) == 0:
                    cost = 2 * h - n
                    if best is None or cost < best:
                        best = cost
        # or treat the whole word as an unfinished first half
        k = extra_first_half(w.count("a"), w.count("b"))
        if k is not None:
            cost = n + 2 * k if n + k >= 1 else 2
            if best is None or cost < best:
                best = cost
        if best is None:
            # letter counts overshot every admissible first half
            over = (
                w.count("a") - params["target"]
                if kind == "count_a"
                else w.count("b") - params["target"]
            )
            best = n + 2 * over + 1
        return best

    return WordDistance(rho)


def anbncn_check(target_n, word):
    w = "".join(word)
    return w == "a" * target_n + "b" * target_n + "c" * target_n


def ambncmdn_check(params, word):
    """Any well-formed a^p b^q c^p d^q with p != q and p + q matching the
    instance total counts as solved (the target fixes the sum only)."""
    w = "".join(word)
    p, q = w.count("a"), w.count("b")
    if p < 1 or q < 1 or p == q or p + q != params["m"] + params["n"]:
        return False
    return w == "a" * p + "b" * q + "c" * p + "d" * q


def copy_check(params, word):
    w = "".join(word)
    if len(w) < 2 or len(w) % 2 or w[: len(w) // 2] != w[len(w) // 2 :]:
        return False
    half = w[: len(w) // 2]
    kind = params["kind"]
    if kind == "count_a":
        return half.count("a") == params["target"]
    if kind == "count_b":
        return half.count("b") == params["target"]
    return half.count("a") * half.count("b") >= params["threshold"]


_PROMPTS = {
    "anbncn": (
        "Generate a string of the form a^n b^n c^n with n = {n}. "
        "Examples: abc, aabbcc."
    ),
    "ambncmdn": (
        "Generate a string of the form a^m b^n c^m d^n with m != n and "
        "m + n = {total}. Example: aabbbccddd."
    ),
    "copy": (
        "Generate a duplicated string ww over the letters a and b. "
        "Example: abab (w = ab)."
    ),
}


def generate_anbncn(count, seed=0):
    out = []
    for i in range(count):
        n = i + 1
        out.append(
            TaskInstance(
                task="anbncn",
                instance_id=f"anbncn-{i:03d}",
                prompt=_PROMPTS["anbncn"].format(n=n),
                params={"n": n},
                grammar_source=ANBNCN_GRAMMAR,
            )
        )
    return out


def generate_ambncmdn(count, seed=0):
    rng = random.Random(seed)
    out = []
    i = 0
    total = 3
    while len(out) < count:
        m = rng.randrange(1, total)
        n = total - m
        if m == n:
            m = max(1, m - 1) if m > 1 else m + 1
            n = total - m
        if m == n:
            total += 1
            continue
        out.append(
            TaskInstance(
                task="ambncmdn",
                instance_id=f"ambncmdn-{i:03d}",
                prompt=_PROMPTS["ambncmdn"].format(total=total),
                params={"m": m, "n": n},
                grammar_source=AMBNCMDN_GRAMMAR,
            )
        )
        i += 1
        total += 1
    return out


def generate_copy(count, seed=0):
    out = []
    kinds = ["count_a", "count_b", "product"]
    for i in range(count):
        kind = kinds[i % 3]
        level = i // 3 + 1
        params = {"kind": kind}
        if kind == "product":
            params["threshold"] = level
        else:
            params["target"] = level
        out.append(
            TaskInstance(
                task="copy",
                instance_id=f"copy-{i:03d}",
                prompt=_PROMPTS["copy"],
                params=params,
                grammar_source=COPY_GRAMMAR,
            )
        )
    return out


def _copy_half(p):
    if p["kind"] == "count_a":
        return "a" * p["target"]
    if p["kind"] == "count_b":
        return "b" * p["target"]
    side = 1
    while side * side < p["threshold"]:
        side += 1
    return "a" * side + "b" * side


def _copy_reference(inst):
    return tuple(_copy_half(inst.params) * 2)


def _anbncn_reference(inst):
    return tuple("".join(c * inst.params["n"] for c in "abc"))


def _ambncmdn_reference(inst):
    m, n = inst.params["m"], inst.params["n"]
    return tuple("a" * m + "b" * n + "c" * m + "d" * n)


SPECS = (
    TaskSpec("anbncn", generate_anbncn, lambda p: anbncn_rho(p["n"]),
             _anbncn_reference, budget=50, max_tokens=64),
    TaskSpec("ambncmdn", generate_ambncmdn, lambda p: ambncmdn_rho(p["m"], p["n"]),
             _ambncmdn_reference, budget=50, max_tokens=64),
    TaskSpec("copy", generate_copy, copy_rho, _copy_reference,
             budget=50, max_tokens=32),
)
