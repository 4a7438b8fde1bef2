"""Shared exception types."""


class UnsupportedDomainError(ValueError):
    """A quantity was requested outside the region where a closed form is valid."""


class SimplexBudgetError(RuntimeError):
    """Complex construction would exceed the configured simplex budget."""

    def __init__(self, budget: int, message: str | None = None):
        self.budget = budget
        super().__init__(message or f"simplex budget of {budget} exceeded")

    def __reduce__(self):
        # rebuilt from (budget, message), not from args == (message,), so the
        # error crosses a process boundary intact
        return type(self), (self.budget, str(self))
