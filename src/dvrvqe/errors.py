"""Shared exception types.

Plain ValueError is used for invalid arguments throughout; these classes
cover the remaining failure modes that callers may want to catch separately.
"""


class ResourceLimitError(RuntimeError):
    """Requested problem size would exceed what dense linear algebra supports."""


class InvariantViolationError(RuntimeError):
    """An internal consistency check failed (e.g. H - min V is not positive definite)."""
