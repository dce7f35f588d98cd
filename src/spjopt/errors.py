"""Exception hierarchy shared across the package."""


class SpjError(Exception):
    """Base class for all errors raised by this package."""


class SignatureError(SpjError):
    """Bad signature, or two values that were expected to be similar are not."""


class ArityError(SpjError):
    """A tuple, identification set or projection index is out of range."""


class KeyConstraintError(SpjError):
    """Malformed key constraint (position out of range, unknown relation)."""


class PlanSyntaxError(SpjError):
    """Plan text could not be parsed.  Carries line/column of the offence."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class ResourceCapError(SpjError):
    """An exact search was asked to run above its configured universe cap."""


class FormatError(SpjError):
    """A JSON / keys / plan file does not match the documented format."""


class DegenerateInputError(SpjError):
    """An operation was applied to a degenerate value it cannot handle
    (for example plan synthesis from a structure with no tuples at all)."""
