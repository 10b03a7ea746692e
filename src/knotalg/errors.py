"""Shared exception types."""


class CapacityError(RuntimeError):
    """State enumeration would exceed the configured crossing cap."""


class ConsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagreed."""


class ExprSyntaxError(ValueError):
    """Raised on malformed expression text.

    Carries the byte offset of the offending token and the set of token
    kinds that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: frozenset[str] = frozenset()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + ", ".join(sorted(expected)) + ")"
        super().__init__(detail)
