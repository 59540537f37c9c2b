"""Exception types shared across the package, and the one count and number checks."""

import functools
import math

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


def _float(what: str, value) -> float:
    # a number (numpy's too, not a string or None) as a float; an int past
    # the float range reads as +-inf
    if not isinstance(value, (int, float, np.integer, np.floating)):
        raise ParameterError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _positive(what: str, value, finite: bool) -> float:
    # a number above 0, below inf if `finite`, as a float
    value = _float(what, value)
    if not (0.0 < value < np.inf if finite else 0.0 < value):
        raise ParameterError(f"{what} must be positive{' and finite' if finite else ''}, got {value}")
    return value


#: Every certificate's tolerance: an infinite one would pass every approximate check.
_tolerance = functools.partial(_positive, "tolerance", finite=True)
#: The Neeman family's clamp; inf clamps nothing (normalized_sum).
_clamp = functools.partial(_positive, "clamp threshold", finite=False)


class ResourceLimitError(CubespecError):
    """A request would allocate a 2^n table above the configured cap.

    Exceeding the cap is always an error, never a silent truncation.
    """


class FormatError(CubespecError, ValueError):
    """A table file failed to parse; the message carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line
