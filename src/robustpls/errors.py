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


def check_fields(spec, reals=(), optional=(), integers=(), positive=(), bounds=(), choices=()) -> None:
    """Check each single-field rule of ``spec`` (a dataclass or namespace); a
    broken one raises ConfigError with a message that starts with the field name.

    No field may be a boolean. Each field in ``reals`` must be a finite real,
    and each in ``optional`` a finite real or None. A real field in ``positive``
    must be above 0 (None passes), and for each ``(name, low, high)`` in
    ``bounds`` in ``[low, high]``. For each ``(name, least)`` in ``integers``
    it must be an integer of at least ``least`` (1: positive, 0: nonnegative),
    and for each ``(name, allowed)`` in ``choices`` one of ``allowed``. A bool
    is an int subclass, so numeric checks alone would take ``True`` as 1.
    """
    for name, v in vars(spec).items():
        if isinstance(v, bool):
            raise ConfigError(f"{name} must not be a boolean, got {v!r}")
    for name in (*reals, *optional):
        v = getattr(spec, name)
        if v is None and name in optional:
            continue
        # An integer is finite however large; math.isfinite would overflow on it.
        if not (isinstance(v, numbers.Real) and (isinstance(v, numbers.Integral) or math.isfinite(v))):
            raise ConfigError(f"{name} must be a finite number, got {v!r}")
    for name in positive:
        v = getattr(spec, name)
        if v is not None and v <= 0:
            raise ConfigError(f"{name} must be positive, got {v!r}")
    for name, low, high in bounds:
        v = getattr(spec, name)
        if not low <= v <= high:
            span = f"at least {low}" if high == math.inf else f"in [{low}, {high}]"
            raise ConfigError(f"{name} must be {span}, got {v!r}")
    for name, least in integers:
        v = getattr(spec, name)
        if not (isinstance(v, numbers.Integral) and v >= least):
            raise ConfigError(f"{name} must be a {'positive' if least else 'nonnegative'} integer, got {v!r}")
    for name, allowed in choices:
        v = getattr(spec, name)
        if v not in allowed:
            raise ConfigError(f"{name} must be one of {allowed}, got {v!r}")
