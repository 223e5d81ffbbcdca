"""Constrained decoding with logic-annotated grammars.

Words are parsed incrementally while per-production logic annotations are
evaluated against the realised subtrees, so every emitted token keeps at
least one satisfiable parse alive.  On top of the recognizer sit masked
sampling, best-of-n, and a PUCB tree search driven by task distance
functions.
"""

from .align import (
    EOS_ID,
    AlignCursor,
    SubwordTokenizer,
    TerminalTokenizer,
    TokenMap,
    apply_token,
    build_map,
    tau,
    tau_inverse,
    valid_tokens,
)
from .decoding import DecodeConfig, DecodeResult, best_of_n, generate
from .earley import END_MARKER, Session, accepts, extend, init, is_complete, valid_terminals
from .errors import AsgError
from .grammar import (
    Grammar,
    Production,
    Symbol,
    csg_projection,
    format_grammar,
    load_grammar,
    parse_grammar,
    strip_annotations,
)
from .mcts import Reward, SearchConfig, SearchTree, search
from .policy import (
    Distribution,
    NgramPolicy,
    PolicyContext,
    RemotePolicy,
    UniformPolicy,
)

__version__ = "0.1.0"

__all__ = [
    "AlignCursor",
    "AsgError",
    "DecodeConfig",
    "DecodeResult",
    "Distribution",
    "END_MARKER",
    "EOS_ID",
    "Grammar",
    "NgramPolicy",
    "PolicyContext",
    "Production",
    "RemotePolicy",
    "Reward",
    "SearchConfig",
    "SearchTree",
    "Session",
    "SubwordTokenizer",
    "Symbol",
    "TerminalTokenizer",
    "TokenMap",
    "UniformPolicy",
    "accepts",
    "apply_token",
    "best_of_n",
    "build_map",
    "csg_projection",
    "extend",
    "format_grammar",
    "generate",
    "init",
    "is_complete",
    "load_grammar",
    "parse_grammar",
    "search",
    "strip_annotations",
    "tau",
    "tau_inverse",
    "valid_terminals",
    "valid_tokens",
]
