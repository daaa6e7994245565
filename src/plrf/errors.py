"""The one error type for input that breaks a documented rule.

Every library validator raises `InvalidInput`; the CLI maps it to exit 2.
Any other exception, a bare `ValueError` included, is an internal error.
Subclassing `ValueError` keeps `except ValueError` callers working.
"""

import operator

__all__ = ["InvalidInput"]


class InvalidInput(ValueError):
    """The caller's input breaks a documented rule (the CLI exits 2)."""


def _as_index(value, name: str) -> int:
    """`value` as a plain int by `operator.index`; a non-integer is refused naming `name`."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInput(f"{name} must be an integer, got {value!r}") from None
