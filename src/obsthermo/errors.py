"""Shared exception types."""


class ValidationError(ValueError):
    """Raised when an input value violates a documented invariant."""


class SizeCapError(RuntimeError):
    """Raised when an exact enumeration would exceed its configured size cap.

    The message always names the cap that would be required, so callers can
    re-run with a larger one if they really mean it.
    """


class OptimizerError(RuntimeError):
    """Raised when the soft optimizer breaks an invariant of its iteration,
    such as the monotone descent of its objective."""
