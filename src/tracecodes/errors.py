"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A construction parameter violates its preconditions."""


class WorkBudgetExceeded(RuntimeError):
    """An identity suite (verify) would exceed the entry-operation budget."""
