"""Exception types shared across the engine."""


class AsgError(Exception):
    """Base class for all engine errors."""


class AsgSyntaxError(AsgError):
    """Malformed grammar or logic rule text."""

    def __init__(self, message, line=None, col=None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, col {col})"
        super().__init__(message)


class AsgReferenceError(AsgError):
    """Undefined nonterminal or out-of-range child reference."""


class StratificationError(AsgError):
    """Negation through recursion detected in the rule set."""

    def __init__(self, message, cycles=()):
        self.cycles = tuple(cycles)
        super().__init__(message)


class GroundingOverflow(AsgError):
    """Ground-atom cap exceeded during evaluation."""


class BackgroundUnsat(AsgError):
    """The background program alone is inconsistent."""


class InvalidExtension(AsgError):
    """No satisfiable partial parse survives the attempted terminal."""

    def __init__(self, terminal, position):
        self.terminal = terminal
        self.position = position
        super().__init__(
            f"no derivation survives terminal {terminal!r} at position {position}"
        )


class ForestOverflow(AsgError):
    """Live derivation count exceeded the ambiguity cap."""


class UncoverableTerminal(AsgError):
    """The vocabulary cannot spell a grammar terminal."""


class ContextTooLong(AsgError):
    """Policy context exceeds the model's limit."""


class RemoteError(AsgError):
    """Remote logit server failure."""


class UnreachableGoal(AsgError):
    """Planning goal cannot be reached even under delete relaxation."""
