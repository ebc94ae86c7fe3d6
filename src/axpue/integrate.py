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
        if not np.all(times[1:] > times[:-1]):
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
    the nearest one beyond each edge are read, so the work grows with the
    span the window covers, not with the length of the trace.

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
    return _integrate_windows(trace, [float(start)], [float(end)], max_gap)[0]


def _integrate_windows(
    trace: PowerTrace, starts: Sequence[float], ends: Sequence[float], max_gap: float
) -> list[float]:
    """Energy of a non-empty trace over each window [starts[j], ends[j]].

    Windows are checked (finite, ``end > start``) by the caller and may
    overlap.  The result is bit for bit what one window at a time gives:
    window j's terms are ``(P[1:] + P[:-1]) * (T[1:] - T[:-1])`` over
    ``T = [start, times[i0:i1], end]`` and its powers ``P``, laid out in that
    order in one array per call, and each window's sum runs over its own
    contiguous slice, so numpy's pairwise summation adds the same values in
    the same order.  The edge powers come from ``np.interp`` over the span
    the windows cover, which reads the same bracketing pair of samples as
    an interpolation over the window's own samples.  So the work grows with
    the covered span and the number of windows, not with the trace.  Memory
    grows with the gathered length, the windows' samples plus two slots
    each: at most four arrays of it are alive at once.  Runs that share a
    device cannot overlap, so ``analyze``'s call for a device gathers no
    more than its report window holds plus two slots per run.

    A window fails when any stretch it needs is wider than ``max_gap``, and
    the first failing window in input order raises its
    :class:`CoverageGapError`.  ``analyze`` passes run windows that lie
    inside a report window this trace has already passed, so every stretch
    they need has passed too and they cannot fail; ``integrate_power``
    relies on the check.
    """
    times, watts = trace.times, trace.watts
    limit = float(max_gap)
    # times[i0[j]:i1[j]] lies strictly inside window j, which needs the
    # stretches from times[k] to times[k + 1] with i0[j] - 1 <= k < i1[j].
    # The span holds them all.
    i0 = times.searchsorted(starts, side="right")
    i1 = times.searchsorted(ends, side="left")
    span_lo = max(min(i0.tolist()) - 1, 0)
    span_hi = min(max(i1.tolist()) + 1, times.size)
    span = times[span_lo:span_hi]
    # Subtraction rounds monotonically, so the earliest start and the latest
    # end are the ones that can reach too far past the trace.
    if (
        ((span[1:] - span[:-1]) > limit).any()
        or times[0] - min(starts) > limit
        or max(ends) - times[-1] > limit
    ):
        _raise_first_gap(trace, starts, ends, i0, i1, max_gap)
    edges = np.interp(np.concatenate((starts, ends)), span, watts[span_lo:span_hi])
    # Window j takes ts[first[j]:last[j] + 1]: its start, its i1 - i0 samples
    # and its end.  Gathering times[i0 - 1 .. i1] fills the samples; the two
    # edge slots are then overwritten.
    sizes = i1 - i0 + 2
    last = sizes.cumsum() - 1
    first = last - sizes + 1
    index = np.arange(int(last[-1]) + 1) + np.repeat(i0 - 1 - first, sizes)
    ts = times.take(index, mode="clip")
    ps = watts.take(index, mode="clip")
    # Freed before the terms are built, so at most four arrays of the
    # gathered length are alive at once, as with one np.concatenate per side.
    del index
    ts[first], ts[last] = starts, ends
    ps[first], ps[last] = edges[: i0.size], edges[i0.size :]
    terms = (ps[1:] + ps[:-1]) * (ts[1:] - ts[:-1])
    return [0.5 * float(terms[a:b].sum()) for a, b in zip(first.tolist(), last.tolist())]


def _raise_first_gap(
    trace: PowerTrace,
    starts: Sequence[float],
    ends: Sequence[float],
    i0: np.ndarray,
    i1: np.ndarray,
    max_gap: float,
) -> None:
    """Raise the first window's :class:`CoverageGapError`, if any window fails."""
    times = trace.times
    for j, (start, end) in enumerate(zip(starts, ends)):
        lo, hi = max(int(i0[j]) - 1, 0), min(int(i1[j]) + 1, times.size)
        gap = _coverage_gap(times, lo, hi, float(start), float(end), float(max_gap))
        if gap is not None:
            gap_start, gap_end = gap
            raise CoverageGapError(
                f"device {trace.device_id!r}: no samples across [{gap_start}, {gap_end}] "
                f"({gap_end - gap_start:.3f} s > max_gap {max_gap} s)",
                gap=(gap_start, gap_end),
                device_id=trace.device_id,
            )


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
