"""Terminal / vocabulary alignment.

Grammar terminals and model tokens live at different granularities: one
terminal may need several tokens to spell, and several terminals may share
token prefixes.  A TokenMap precomputes every tokenization of every
terminal; an AlignCursor tracks a partially spelled terminal during
decoding.  Token id 0 is reserved for EOS throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from .earley import END_MARKER, extend, valid_terminals
from .errors import UncoverableTerminal

EOS_ID = 0


class Tokenizer(Protocol):
    vocab_size: int

    def encode(self, text: str) -> list: ...

    def decode(self, ids) -> str: ...


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TokenMap:
    """All token-sequence spellings of each terminal.

    ``expansions`` admits every segmentation so that masking never excludes
    a spelling the model could produce; ``canonical`` is the tokenizer's own
    encoding, used when the engine itself emits a terminal.  ``spelled``
    and ``continued`` index the expansions for ``apply_token``: an
    expansion spells one text, so it names one terminal.
    """

    expansions: dict  # terminal -> tuple of token-id tuples
    canonical: dict  # terminal -> token-id tuple
    vocab_size: int
    spelled: dict  # expansion -> its terminal
    continued: dict  # proper prefix of an expansion -> set of terminals

    def terminals(self):
        return self.expansions.keys()


def build_map(terminals, tokenizer):
    pieces = {}
    for tid in range(1, tokenizer.vocab_size):
        text = tokenizer.decode([tid])
        if text:
            pieces.setdefault(text, []).append(tid)
    expansions = {}
    canonical = {}
    spelled = {}
    continued = {}
    for term in sorted(terminals):
        segs = _segmentations(term, pieces)
        if not segs:
            raise UncoverableTerminal(
                f"vocabulary cannot spell terminal {term!r}"
            )
        expansions[term] = tuple(sorted(segs))
        enc = tuple(tokenizer.encode(term))
        canonical[term] = enc if tuple(enc) in segs else expansions[term][0]
        for exp in segs:
            spelled[exp] = term
            for k in range(1, len(exp)):
                continued.setdefault(exp[:k], set()).add(term)
    return TokenMap(
        expansions=expansions,
        canonical=canonical,
        vocab_size=tokenizer.vocab_size,
        spelled=spelled,
        continued=continued,
    )


def _segmentations(text, pieces):
    """All ways to spell ``text`` as a concatenation of vocabulary pieces."""
    n = len(text)
    # starts[i] = segmentations of text[i:]
    starts = [None] * (n + 1)
    starts[n] = [()]
    for i in range(n - 1, -1, -1):
        out = []
        for j in range(i + 1, n + 1):
            chunk = text[i:j]
            ids = pieces.get(chunk)
            if not ids:
                continue
            for rest in starts[j]:
                for tid in ids:
                    out.append((tid,) + rest)
        starts[i] = out
    return {seg for seg in starts[0]}


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlignCursor:
    """Token buffer inside a partially spelled terminal (empty at terminal
    boundaries)."""

    buffer: tuple = ()

    @property
    def at_boundary(self):
        return not self.buffer


def tau(token_map, terminal_sequence):
    """Terminal sequence to canonical token ids."""
    out = []
    for t in terminal_sequence:
        out.extend(token_map.canonical[t])
    return tuple(out)


def segment(terminals, text):
    """Greedy longest-match split of ``text`` into ``terminals``.

    Returns (terminal tuple, offset of the first character no terminal
    matches, or None when the whole text is covered).
    """
    terms = sorted(terminals, key=len, reverse=True)
    out = []
    i = 0
    while i < len(text):
        for t in terms:
            if text.startswith(t, i):
                out.append(t)
                i += len(t)
                break
        else:
            return tuple(out), i
    return tuple(out), None


def tau_inverse(token_map, tokenizer, token_ids):
    """Token ids back to a terminal sequence by greedy longest match."""
    text = tokenizer.decode([t for t in token_ids if t != EOS_ID])
    out, bad = segment(token_map.terminals(), text)
    if bad is not None:
        raise UncoverableTerminal(
            f"no terminal matches decoded text at offset {bad}: {text[bad:]!r}"
        )
    return out


def valid_tokens(state, token_map, cursor):
    """Vocabulary ids admissible next, lifted from the valid terminals.

    A token is admissible iff the extended buffer is a prefix of (or
    completes) an expansion of some currently valid terminal.  EOS is
    admissible only at a terminal boundary when the parse is complete.
    """
    terms = valid_terminals(state)
    out = set()
    n = len(cursor.buffer)
    for term in terms:
        if term is END_MARKER:
            if cursor.at_boundary:
                out.add(EOS_ID)
            continue
        for exp in token_map.expansions[term]:
            if len(exp) > n and exp[:n] == cursor.buffer:
                out.add(exp[n])
    return out


def apply_token(state, token_map, cursor, token_id):
    """Advance by one vocabulary token.

    Returns (state, cursor, emitted terminal or None).  A token that
    completes an expansion advances the parse state immediately; when it
    both completes one terminal and continues another, completion wins.
    """
    terms = valid_terminals(state)
    buffer = cursor.buffer + (token_id,)
    completed = token_map.spelled.get(buffer)
    if completed in terms:
        return extend(state, completed), AlignCursor(), completed
    if not terms.isdisjoint(token_map.continued.get(buffer, ())):
        return state, AlignCursor(buffer), None
    raise UncoverableTerminal(
        f"token {token_id} does not continue any valid terminal"
    )


# ---------------------------------------------------------------------------
# Tokenizers used by the benchmark harness and the test suite.


class SubwordTokenizer:
    """Deterministic longest-match tokenizer over a fixed piece list.

    Test fixture standing in for a real subword vocabulary.
    """

    def __init__(self, vocab_pieces):
        self.pieces = list(vocab_pieces)
        self.vocab_size = len(self.pieces) + 1
        self._by_text = {}
        for i, p in enumerate(self.pieces):
            self._by_text.setdefault(p, i + 1)

    def encode(self, text):
        pieces, bad = segment(self._by_text, text)
        if bad is not None:
            raise UncoverableTerminal(f"cannot encode {text[bad:]!r}")
        return [self._by_text[p] for p in pieces]

    def decode(self, ids):
        return "".join(self.pieces[i - 1] for i in ids if i != EOS_ID)


class TerminalTokenizer(SubwordTokenizer):
    """One token per grammar terminal, in sorted order (id 0 reserved for
    EOS)."""

    def __init__(self, terminals):
        super().__init__(sorted(terminals))
