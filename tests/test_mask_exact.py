"""The mask never narrows: on random small annotated grammars, every
terminal that begins a continuation of a prefix to a member is in
``valid_terminals``, and the end marker is there exactly when the prefix is
a member.  On a grammar without constraints the two sets are equal.

The grammars are acyclic (``s`` reads ``x`` and ``y``, ``x`` reads ``y``,
``y`` reads only terminals, each body at most two symbols), so every word
has at most eight terminals.  The members are the words of the grammar's
context-free language, expanded in closed form, that ``accepts`` admits;
a constraint that holds for no derivation of a word removes it."""

import itertools

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asgdec import END_MARKER, Session, accepts, extend, init, parse_grammar, valid_terminals

TERMINALS = ("a", "b")
READS = {"s": ("x", "y"), "x": ("y",), "y": ()}  # the nonterminals each may read
ANNOTATIONS = (
    "",
    "t.",
    "t :- t@{k}.",
    ":- t@{k}.",
    "u :- t@{k}. :- u, t@{j}.",
    "t :- not t@{k}.",
    "t. :- t, not t@{k}.",
)


@st.composite
def grammar_sources(draw):
    # half the grammars have no constraint, so that the sets must be equal
    pool = ANNOTATIONS if draw(st.booleans()) else [a for a in ANNOTATIONS if ":-" not in a]
    lines = []
    for head, reads in READS.items():
        alts = []
        for _ in range(draw(st.integers(1, 3))):
            symbols = reads + tuple(f'"{t}"' for t in TERMINALS)
            body = draw(st.lists(st.sampled_from(symbols), max_size=2))
            rules = draw(st.sampled_from(pool if body else pool[:2])).format(
                k=draw(st.integers(1, max(1, len(body)))),
                j=draw(st.integers(1, max(1, len(body)))),
            )
            alts.append(" ".join(body) + " { " + rules + " }")
        lines.append(f"{head} -> " + " | ".join(alts))
    return "\n".join(lines) + "\n"


def _cfg_words(grammar):
    """Every word of the grammar's context-free language, as tuples."""
    words = {}
    for head in reversed(READS):  # each head after the heads it reads
        words[head] = set()
        for p in grammar.by_head(head):
            parts = [{(s.name,)} if s.name in TERMINALS else words[s.name] for s in p.body]
            words[head] |= {sum(ws, ()) for ws in itertools.product(*parts)}
    return words["s"]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(source=grammar_sources())
def test_the_mask_holds_every_continuation_to_a_member(source):
    g = parse_grammar(source)
    session = Session()
    members = {w for w in _cfg_words(g) if accepts(g, w, session)}
    viable = {w[:n] for w in members for n in range(len(w) + 1)}
    constrained = any(p.annotation.constrained for p in g.productions)
    states = {(): init(g, session)}
    for prefix in sorted(viable, key=len):
        if prefix:
            states[prefix] = extend(states[prefix[:-1]], prefix[-1])
        continuations = {w[len(prefix)] for w in viable
                         if len(w) > len(prefix) and w[:len(prefix)] == prefix}
        if prefix in members:
            continuations.add(END_MARKER)
        mask = valid_terminals(states[prefix])
        assert continuations <= mask, prefix
        assert (END_MARKER in mask) == (prefix in members), prefix
        if not constrained:
            assert mask == continuations, prefix
