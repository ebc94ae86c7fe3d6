"""Energy integration over timestamped power traces.

Power between samples is treated as piecewise-linear (trapezoidal rule),
which is exact for the simulator's piecewise-linear device models.  A window
edge may lie beyond the first or last sample by at most ``max_gap`` seconds,
in which case the nearest sample's value is extended as a constant; any
larger uncovered stretch is a data-quality error, never silently bridged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CoverageGapError,
    DuplicateDeviceError,
    InvalidPowerError,
    InvalidWindowError,
    NoSamplesError,
    UnknownDeviceError,
    ValidationError,
)
from .model import DeviceCategory, EnergyWindow, Inventory

#: Default largest tolerated spacing between samples, in seconds.
DEFAULT_MAX_GAP = 60.0


@dataclass(frozen=True)
class PowerTrace:
    """Time-ordered power samples of a single device.

    Arrays are copied and frozen at construction; timestamps must be strictly
    increasing and all power values non-negative.
    """

    device_id: str
    times: np.ndarray
    watts: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=np.float64, copy=True)
        watts = np.array(self.watts, dtype=np.float64, copy=True)
        if times.ndim != 1 or watts.ndim != 1 or times.size != watts.size:
            raise ValidationError("times and watts must be 1-d arrays of equal length")
        if not np.all(np.isfinite(times)):
            raise ValidationError(f"trace {self.device_id!r}: non-finite timestamp")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValidationError(
                f"trace {self.device_id!r}: timestamps must be strictly increasing"
            )
        if not np.all(np.isfinite(watts)) or (watts.size and float(watts.min()) < 0):
            raise InvalidPowerError(
                f"trace {self.device_id!r}: power values must be finite and >= 0"
            )
        times.setflags(write=False)
        watts.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "watts", watts)

    def __len__(self) -> int:
        return int(self.times.size)


def _check_max_gap(max_gap: float) -> None:
    """``max_gap`` must be > 0; ``inf`` means no stretch is too wide."""
    if not max_gap > 0:  # NaN compares false, so it is rejected too
        raise ValidationError(f"max_gap must be > 0 seconds, got {max_gap!r}")


def _check_window(start: float, end: float) -> None:
    if not (math.isfinite(start) and math.isfinite(end)) or end <= start:
        raise InvalidWindowError(f"window end ({end}) must be > start ({start})")


def _coverage_gap(
    times: np.ndarray, lo: int, hi: int, start: float, end: float, max_gap: float
) -> tuple[float, float] | None:
    """First stretch wider than ``max_gap`` that the window needs, if any.

    ``times[lo:hi]`` holds the window's own samples plus the nearest one
    beyond each edge, so its neighbouring pairs are exactly the stretches
    that overlap the window.
    """
    if times[0] - start > max_gap:
        return start, float(times[0])
    if end - times[-1] > max_gap:
        return float(times[-1]), end
    window_times = times[lo:hi]
    hits = ((window_times[1:] - window_times[:-1]) > max_gap).nonzero()[0]
    if hits.size:
        i = lo + int(hits[0])
        return float(times[i]), float(times[i + 1])
    return None


def integrate_power(
    trace: PowerTrace, start: float, end: float, max_gap: float = DEFAULT_MAX_GAP
) -> float:
    """Trapezoidal integral of a trace's power over [start, end], in joules.

    Boundary values come from linear interpolation between the bracketing
    samples, or from constant extension when the window edge lies beyond the
    first/last sample by at most ``max_gap``.  Only the window's samples and
    the nearest one beyond each edge are read, so the cost does not grow
    with the length of the trace.

    Raises :class:`ValidationError` when ``max_gap`` is NaN or not positive
    (``inf`` turns the gap check off), :class:`NoSamplesError` on an empty
    trace, :class:`InvalidWindowError` when ``end <= start``, and
    :class:`CoverageGapError` when any stretch relevant to the window is
    wider than ``max_gap``.
    """
    _check_max_gap(max_gap)
    _check_window(start, end)
    if len(trace) == 0:
        raise NoSamplesError(
            f"device {trace.device_id!r}: trace holds no samples",
            device_id=trace.device_id,
        )
    times, watts = trace.times, trace.watts
    start, end = float(start), float(end)
    # times[i0:i1] lies strictly inside the window.
    i0 = int(times.searchsorted(start, side="right"))
    i1 = int(times.searchsorted(end, side="left"))
    lo, hi = max(i0 - 1, 0), min(i1 + 1, times.size)
    gap = _coverage_gap(times, lo, hi, start, end, float(max_gap))
    if gap is not None:
        gap_start, gap_end = gap
        raise CoverageGapError(
            f"device {trace.device_id!r}: no samples across [{gap_start}, {gap_end}] "
            f"({gap_end - gap_start:.3f} s > max_gap {max_gap} s)",
            gap=gap,
            device_id=trace.device_id,
        )
    p_start, p_end = np.interp((start, end), times[lo:hi], watts[lo:hi]).tolist()
    ts = np.concatenate(([start], times[i0:i1], [end]))
    ps = np.concatenate(([p_start], watts[i0:i1], [p_end]))
    return 0.5 * float(((ps[1:] + ps[:-1]) * (ts[1:] - ts[:-1])).sum())


def category_energy(
    traces: Sequence[PowerTrace],
    inventory: Inventory,
    start: float,
    end: float,
    max_gap: float = DEFAULT_MAX_GAP,
) -> EnergyWindow:
    """Integrate every trace over [start, end] and sum by facility category.

    Every trace's device must exist in the inventory, and every inventory
    device needs a trace: an unmetered device would count as 0 J.
    Integration errors propagate carrying the offending device_id.
    """
    _check_window(start, end)
    seen: set[str] = set()
    for trace in traces:
        if trace.device_id not in inventory:
            raise UnknownDeviceError(f"device {trace.device_id!r} not in inventory")
        if trace.device_id in seen:
            raise DuplicateDeviceError(
                f"multiple traces for device {trace.device_id!r}"
            )
        seen.add(trace.device_id)
    unmetered = [d.device_id for d in inventory.devices if d.device_id not in seen]
    if unmetered:
        device_id = min(unmetered)
        raise NoSamplesError(
            f"device {device_id!r} ({inventory.category_of(device_id).value}) has no telemetry",
            device_id=device_id,
        )
    energies: dict[DeviceCategory, list[float]] = {cat: [] for cat in DeviceCategory}
    for trace in sorted(traces, key=lambda t: t.device_id):
        joules = integrate_power(trace, start, end, max_gap)
        energies[inventory.category_of(trace.device_id)].append(joules)
    return EnergyWindow(
        start=start,
        end=end,
        energy_by_category={cat: math.fsum(parts) for cat, parts in energies.items()},
    )
