"""Shared exception types."""


class UnsupportedDomainError(ValueError):
    """A quantity was requested outside the region where a closed form is valid."""


class SimplexBudgetError(RuntimeError):
    """Complex construction would exceed the configured simplex budget; an
    estimator names the trial (``master_seed``, ``trial_index``) that did and
    its sample size ``n``."""

    def __init__(self, budget: int, message: str | None = None,
                 master_seed: int | None = None, trial_index: int | None = None,
                 n: int | None = None):
        self.budget, self.master_seed, self.trial_index = budget, master_seed, trial_index
        self.n = n
        super().__init__(message or f"simplex budget of {budget} exceeded")

    def __reduce__(self):
        # rebuilt from its fields, not from args == (message,), to cross processes intact
        return type(self), (self.budget, str(self), self.master_seed, self.trial_index, self.n)
