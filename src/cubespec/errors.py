"""Exception types shared across the package, and the one integer check."""

import numpy as np


class CubespecError(Exception):
    """Base class for all package errors."""


class ParameterError(CubespecError, ValueError):
    """An argument is outside its allowed range or malformed."""


def _count(what: str, value, least: int) -> int:
    # an integer (numpy's too) of at least `least`, else ParameterError
    if not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise ParameterError(f"{what} must be >= {least}, got {value}")
    return int(value)


class ResourceLimitError(CubespecError):
    """A request would allocate a 2^n table above the configured cap.

    Exceeding the cap is always an error, never a silent truncation.
    """


class FormatError(CubespecError, ValueError):
    """A table file failed to parse; the message carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line
