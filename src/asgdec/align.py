"""Terminal / vocabulary alignment.

Grammar terminals and model tokens live at different granularities: one
terminal may need several tokens to spell, and several terminals may share
token prefixes.  A TokenMap precomputes every tokenization of every
terminal; an AlignCursor tracks a partially spelled terminal during
decoding.  Token id 0 is reserved for EOS throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .earley import END_MARKER, extend, valid_terminals
from .errors import UncoverableTerminal

EOS_ID = 0

# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TokenMap:
    """All token-sequence spellings of each terminal.

    ``expansions`` admits every segmentation so that masking never excludes
    a spelling the model could produce; ``canonical`` is the tokenizer's own
    encoding, used when the engine itself emits a terminal.  ``texts`` is
    the tokenizer's decoding of each id (EOS decodes to ""), which spells a
    word whether or not its tokens align with terminals.
    """

    expansions: dict  # terminal -> tuple of token-id tuples
    canonical: dict  # terminal -> token-id tuple
    vocab_size: int
    texts: tuple  # token id -> its text

    def terminals(self):
        return self.expansions.keys()


def build_map(terminals, tokenizer):
    texts = ("",) + tuple(tokenizer.decode([t]) for t in range(1, tokenizer.vocab_size))
    pieces = {}
    for tid, text in enumerate(texts):
        if text:
            pieces.setdefault(text, []).append(tid)
    expansions = {}
    canonical = {}
    for term in sorted(terminals):
        segs = _segmentations(term, pieces)
        if not segs:
            raise UncoverableTerminal(
                f"vocabulary cannot spell terminal {term!r}"
            )
        expansions[term] = tuple(sorted(segs))
        enc = tuple(tokenizer.encode(term))
        canonical[term] = enc if tuple(enc) in segs else expansions[term][0]
    return TokenMap(
        expansions=expansions,
        canonical=canonical,
        vocab_size=tokenizer.vocab_size,
        texts=texts,
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
    """Vocabulary ids admissible next, lifted from the valid terminals, each
    mapped to what it does: the terminal it completes, or None when it only
    continues one.

    A token is admissible iff the extended buffer is a prefix of (or
    completes) an expansion of some currently valid terminal; an expansion
    spells one text, so a token completes at most one terminal, and when it
    also continues another, completion wins.  EOS, mapped to
    ``END_MARKER``, is admissible only at a terminal boundary when the
    parse is complete.
    """
    out = {}
    n = len(cursor.buffer)
    for term in valid_terminals(state):
        if term is END_MARKER:
            if cursor.at_boundary:
                out[EOS_ID] = END_MARKER
            continue
        for exp in token_map.expansions[term]:
            if len(exp) > n and exp[:n] == cursor.buffer:
                if len(exp) == n + 1:
                    out[exp[n]] = term
                else:
                    out.setdefault(exp[n], None)
    return out


def apply_token(state, token_map, cursor, token_id, mask=None):
    """Advance by one vocabulary token.

    Returns (state, cursor, emitted terminal or None): the terminal the
    token completes advances the parse state, as ``valid_tokens`` maps it.
    ``mask`` is ``valid_tokens`` at this position when the caller holds it.
    """
    if mask is None:
        mask = valid_tokens(state, token_map, cursor)
    term = mask.get(token_id, END_MARKER)
    if term is END_MARKER:
        raise UncoverableTerminal(f"token {token_id} does not continue any valid terminal")
    if term is None:
        return state, AlignCursor(cursor.buffer + (token_id,)), None
    return extend(state, term), AlignCursor(), term


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
