"""Exception types shared across the package."""


class RamseyLabError(Exception):
    """Base class for all package errors."""


class GraphParseError(RamseyLabError):
    """A graph specification string could not be parsed."""

    def __init__(self, message: str, token: str | None = None):
        self.token = token
        if token is not None:
            message = f"{message} (offending token: {token!r})"
        super().__init__(message)


class DomainError(RamseyLabError):
    """An input violates an operation's precondition."""


class BudgetError(RamseyLabError):
    """An input exceeds a configured search budget; no answer is guessed."""


class OpenProblemError(RamseyLabError):
    """The requested case has no known answer and is refused explicitly."""


class ConstructionStall(RamseyLabError):
    """A guaranteed construction failed to reach its quota.

    Carries enough context to diagnose which stage (and hence which
    assumed hypothesis) failed.
    """

    def __init__(self, message: str, stage: str | None = None):
        self.stage = stage
        super().__init__(message)


def n_vertices(n: int) -> str:
    """'n vertices', n bounded by a power of two past the digit limit."""
    try:
        return f"{n} vertices"
    except ValueError:
        return f"at least 2^{n.bit_length() - 1} vertices"
