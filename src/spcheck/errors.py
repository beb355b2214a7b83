"""Exception types shared across the engines."""

from __future__ import annotations

# Nodes for the searches, worlds for the oracle's enumeration.
DEFAULT_BUDGET = 10_000_000


class SpcheckError(Exception):
    """Base class for all package errors."""


class BudgetExceededError(SpcheckError):
    """A search or enumeration exceeded its configured budget.

    Carries the partial bound that was established before giving up and,
    for node budgets, the nodes spent against the budget given, so
    callers can report how far the search got. Never used to return an
    unverified value.
    """

    def __init__(self, message: str, partial_bound=None, spent=None, budget=None):
        super().__init__(message)
        self.partial_bound = partial_bound
        self.spent = spent
        self.budget = budget


class PreconditionError(SpcheckError):
    """A measure's standing assumption does not hold for the input table."""


class GeneratorError(SpcheckError):
    """A generated instance failed self-verification against the engines."""


class OracleGapError(SpcheckError):
    """The extended-pool cross-check found a cheaper repair than the
    primary candidate pool. Surfaced loudly instead of being absorbed."""


class TableLoadError(SpcheckError):
    """CSV ingestion failed (ragged row, empty file, duplicate header...)."""


class ConstraintParseError(SpcheckError):
    """A textual constraint specification could not be parsed."""
