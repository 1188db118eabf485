"""Exception hierarchy shared by every engine in the package.

Two failure families are kept apart on purpose. ``ValidationError`` means
the caller handed over something malformed (a probability outside [0, 1],
an unknown metric name, a config file missing a required key) and maps to
exit code 2 in the command-line runner. ``DomainError`` means the inputs
were individually fine but the requested quantity does not exist there
(conditioning on an event of probability zero, a weak value with vanishing
overlap) and maps to exit code 3.
"""

__all__ = ["TwoBoxError", "ValidationError", "DomainError"]


class TwoBoxError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(TwoBoxError, ValueError):
    """Malformed input: wrong range, wrong shape, unknown name."""


class DomainError(TwoBoxError):
    """Well-formed input for which the requested quantity is undefined."""


def _shown(value) -> str:
    """``repr(value)`` for an error message; an int too long for ``repr`` shows as its type and bit length."""
    try:
        return repr(value)
    except ValueError:  # Python's limit on int-to-str digits, hit by the int or by a container holding it
        return f"<int of {value.bit_length()} bits>" if isinstance(value, int) else f"<{type(value).__name__}>"
