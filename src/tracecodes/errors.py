"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A construction parameter violates its preconditions."""


class WorkBudgetExceeded(RuntimeError):
    """An exhaustive job would exceed the configured entry-operation budget."""
