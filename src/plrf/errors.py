"""The one error type for input that breaks a documented rule.

Every library validator raises `InvalidInput`; the CLI maps it to exit 2.
Any other exception, a bare `ValueError` included, is an internal error.
Subclassing `ValueError` keeps `except ValueError` callers working.
"""

__all__ = ["InvalidInput"]


class InvalidInput(ValueError):
    """The caller's input breaks a documented rule (the CLI exits 2)."""
