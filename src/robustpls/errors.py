"""Exception types shared across the package, and the field check of its config types."""

import math
import numbers


class RplsError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(RplsError, ValueError):
    """Input data is malformed (non-finite entries, wrong rank, empty)."""


class ConfigError(RplsError, ValueError):
    """A configuration value or combination of values is invalid."""


class DimensionError(ConfigError):
    """Matrix dimensions are incompatible with each other or the config."""


class SolverError(RplsError, RuntimeError):
    """A numerical routine failed to converge."""


class ParseError(RplsError, ValueError):
    """A data file could not be parsed; message carries line/column context."""


class MetricError(RplsError, ValueError):
    """A metric is undefined for the given inputs (e.g. zero reference)."""


class DegenerateEllipseError(RplsError, ValueError):
    """Score covariance is singular; no confidence ellipse exists."""


def check_fields(spec, reals=(), optional=()) -> None:
    """Reject a boolean in any field of the dataclass ``spec``.

    Also require a finite real in each field named in ``reals``, and a
    finite real or None in each named in ``optional``. A bool is an int
    subclass, so numeric checks alone would take ``True`` as 1.
    """
    for name, v in vars(spec).items():
        if isinstance(v, bool):
            raise ConfigError(f"{name} must not be a boolean, got {v!r}")
    for name in (*reals, *optional):
        v = getattr(spec, name)
        if v is None and name in optional:
            continue
        if not (isinstance(v, numbers.Real) and math.isfinite(v)):
            raise ConfigError(f"{name} must be a finite number, got {v!r}")
