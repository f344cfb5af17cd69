"""Exception types shared across the package."""

__all__ = ["DomainError", "DegenerateDataError"]


class DomainError(ValueError):
    """An argument violates a documented precondition (bad input)."""


class DegenerateDataError(ValueError):
    """The data admit no test: empty side, or zero variance in the pooled sample."""
