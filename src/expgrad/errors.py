"""Exception types shared across the package."""


class InvalidInput(ValueError):
    """Malformed or out-of-range input (dimension mismatch, bad parameter)."""


class DomainError(ValueError):
    """Operation requested outside the effective domain of a function."""

