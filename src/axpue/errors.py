"""Exception types raised across the package.

Parsers attach a 1-based ``line`` number where one is known, and
:func:`~axpue.io.load_bundle` and ``axpue report`` the ``path`` of the file
they were reading; integration errors carry the ``device_id`` of the
offending trace when available.
"""

from __future__ import annotations


class AxpueError(Exception):
    """Base class for every error raised by this package.

    ``line`` and ``path`` name the 1-based line and the input file the error
    was found in, when known.
    """

    path: str | None = None

    def __init__(self, message: str, *, line: int | None = None):
        super().__init__(message)
        self.line = line


class ValidationError(AxpueError):
    """A domain object was constructed with values violating its invariants."""


class InvalidDeviceError(ValidationError):
    """Device record is malformed (e.g. empty device_id)."""


class DuplicateDeviceError(ValidationError):
    """Two devices or traces in one collection share a device_id."""


class InvalidPowerError(ValidationError):
    """A power reading is negative or not finite."""


class InvalidWindowError(AxpueError):
    """A time window is empty or inverted (end <= start), or a bound is not finite."""


class NoSamplesError(AxpueError):
    """No samples are available for a device whose energy was requested."""

    def __init__(self, message: str, device_id: str | None = None):
        super().__init__(message)
        self.device_id = device_id


class CoverageGapError(AxpueError):
    """Adjacent samples relevant to a window are further apart than max_gap."""

    def __init__(
        self,
        message: str,
        gap: tuple[float, float] | None = None,
        device_id: str | None = None,
    ):
        super().__init__(message)
        self.gap = gap
        self.device_id = device_id


class UnknownDeviceError(AxpueError):
    """A device_id does not resolve against the inventory."""


class CategoryMismatchError(ValidationError):
    """A run's work counter kind or performance unit does not match its
    application category."""


class ZeroITEnergyError(AxpueError):
    """PUE is undefined: the window holds no IT equipment energy."""


class ZeroITPowerError(ValidationError):
    """ApPUE or weights are undefined: a run's average IT power is not
    finite and > 0."""


class UnitMismatchError(AxpueError):
    """Performance rates with different units cannot be aggregated."""


class SharedDeviceConflictError(AxpueError):
    """Two overlapping runs claim the same IT device; attribution is ambiguous."""


class ParseError(AxpueError):
    """An input stream could not be parsed."""


class DuplicateSampleError(ParseError):
    """Two samples for one device carry the same timestamp."""


class SchemaError(ParseError):
    """A structured input does not match the expected schema."""


class ModelError(AxpueError):
    """Simulator model or scenario parameters are invalid."""
