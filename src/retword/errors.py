"""Exception types shared across the library, and the check on search bounds."""


class ParseError(ValueError):
    """Malformed substitution file; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GenerationError(RuntimeError):
    """A fixed-point prefix cannot be generated (the start image does not grow)."""


class ResourceLimitError(RuntimeError):
    """A search or closure exceeded its configured budget; the budget is named."""

    def __init__(self, message: str, budget=None):
        super().__init__(message)
        self.budget = budget


class DecompositionError(ValueError):
    """A word is not a concatenation of return words; carries the failure position."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class InternalInconsistencyError(RuntimeError):
    """A structural guarantee failed; indicates a bug upstream, not bad input."""


def require_nonnegative(what: str, bound: int) -> None:
    """Refuse a negative search bound as an input error; a zero bound searches nothing."""
    if bound < 0:
        raise ValueError(f"{what} must be >= 0, got {bound}")
