"""Energy integration over timestamped power traces.

Power between samples is treated as piecewise-linear (trapezoidal rule),
which is exact for the simulator's piecewise-linear device models.  A window
edge may lie beyond the first or last sample by at most ``max_gap`` seconds,
in which case the nearest sample's value is extended as a constant; any
larger uncovered stretch is a data-quality error, never silently bridged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CoverageGapError,
    DuplicateDeviceError,
    InvalidPowerError,
    NoSamplesError,
    UnknownDeviceError,
    ValidationError,
)
from .model import DeviceCategory, EnergyWindow, Inventory, _check_window, _fsum

#: Default largest tolerated spacing between samples, in seconds.
DEFAULT_MAX_GAP = 60.0


@dataclass(frozen=True)
class PowerTrace:
    """Time-ordered power samples of a single device.

    Arrays are copied and frozen at construction; timestamps must be strictly
    increasing and all power values non-negative.  The traces that
    :func:`~axpue.io.parse_power_csv` returns hold the parser's own arrays,
    uncopied and read-only, and are not checked again: the parser checks
    each row as it reads it and each device's order as it builds the
    trace.  Devices sampled at the same instants, as a collector that polls
    every meter once per interval samples them, share one ``times`` array:
    their timestamps hold the same float64 bits.  A grid is left unshared
    only where a different grid of the same length and end times came
    first.
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

    @classmethod
    def _owning(cls, device_id: str, times: np.ndarray, watts: np.ndarray) -> PowerTrace:
        """A trace of float64 ``times`` and ``watts`` that nothing else writes
        to, held without the constructor's copies or checks; ``times`` may be
        shared with other traces.  The caller has checked them as the
        constructor checks its copies."""
        times.setflags(write=False)
        watts.setflags(write=False)
        trace = object.__new__(cls)
        object.__setattr__(trace, "device_id", device_id)
        object.__setattr__(trace, "times", times)
        object.__setattr__(trace, "watts", watts)
        return trace

    def __len__(self) -> int:
        return int(self.times.size)


def _check_max_gap(max_gap: float) -> None:
    """``max_gap`` must be > 0; ``inf`` means no stretch is too wide."""
    if not max_gap > 0:  # NaN compares false, so it is rejected too
        raise ValidationError(f"max_gap must be > 0 seconds, got {max_gap!r}")


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
    # One window's terms are the whole array.
    terms, _, _ = _window_terms(trace, [float(start)], [float(end)], max_gap)
    return 0.5 * float(terms.sum())


def _window_terms(
    trace: PowerTrace, starts: Sequence[float], ends: Sequence[float], max_gap: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trapezoid terms of a non-empty trace over each window [starts[j], ends[j]].

    Returns ``(terms, first, last)``: twice window j's energy is the sum of
    ``terms[first[j]:last[j]]``, the terms ``(P[1:] + P[:-1]) * (T[1:] -
    T[:-1])`` over ``T = [start, times[i0:i1], end]`` and its powers ``P``,
    in that order.  The windows' terms lie one after another in input
    order, one spare term apart.  Windows are checked (finite, ``end >
    start``) by the caller and may overlap.  The edge powers come from
    ``np.interp`` over the span the windows cover, which reads the same
    bracketing pair of samples as an interpolation over the window's own
    samples.  So the work grows with the covered span and the number of
    windows, not with the trace.  Memory grows with the gathered length, the
    windows' samples plus two slots each: at most four arrays of it are
    alive at once.  Runs that share a device cannot overlap, so
    ``analyze``'s call for a device gathers no more than its report window
    holds plus two slots per run.

    A window fails when any stretch it needs is wider than ``max_gap``, and
    the first failing window in input order raises its
    :class:`CoverageGapError`.  ``analyze`` passes run windows that lie
    inside a report window this trace has already passed, so every stretch
    they need has passed too and they cannot fail; ``integrate_power``
    relies on the check.
    """
    times, watts = trace.times, trace.watts
    limit = float(max_gap)
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    # Subtraction rounds monotonically, so the earliest start and the latest
    # end are the ones that can reach too far past the trace.
    reach = times[0] - starts.min() > limit or ends.max() - times[-1] > limit
    # times[i0[j]:i1[j]] lies strictly inside window j, which needs the
    # stretches from times[k] to times[k + 1] with i0[j] - 1 <= k < i1[j].
    # The span holds them all.
    i0 = times.searchsorted(starts, side="right")
    i1 = times.searchsorted(ends, side="left")
    span_lo = max(min(i0.tolist()) - 1, 0)
    span_hi = min(max(i1.tolist()) + 1, times.size)
    span = times[span_lo:span_hi]
    if reach or ((span[1:] - span[:-1]) > limit).any():
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
    return (ps[1:] + ps[:-1]) * (ts[1:] - ts[:-1]), first, last


#: Terms (8 bytes each) that ``_integrate_windows`` sums in one batch.  A
#: batch and its joined copy are alive together, so it is kept small: the
#: traces' memory, not the run windows', should set the peak.
_BATCH_TERMS = 1 << 15


def _window_energies(terms: np.ndarray, first: np.ndarray, last: np.ndarray) -> list[float]:
    """Half the sum of ``terms[first[j]:last[j]]`` for each window j.

    Each sum is bit for bit the slice's own ``.sum()``.  The windows of
    each term count are gathered as the rows of one C-contiguous 2-D array
    and summed with ``.sum(axis=1)``: numpy reduces each row on its own,
    with the same pairwise summation in the same order as the 1-D slice
    (``tests/test_integrate_properties.py`` pins this).  So many windows of
    a few counts take a few numpy calls.  Windows that share no term (the
    run windows of one trace) gather each term once at most.
    """
    groups: dict[int, list[int]] = {}
    for j, count in enumerate((last - first).tolist()):
        groups.setdefault(count, []).append(j)
    sums = np.empty(first.size)
    step = terms.itemsize
    for count, rows in groups.items():
        # Row i of this view is terms[i:i + count]; taking rows copies them.
        # The ndarray constructor builds the view at less cost per call than
        # sliding_window_view, whose checks dominate a group of a few windows.
        windows = np.ndarray((terms.size - count + 1, count), terms.dtype, terms, 0, (step, step))
        sums[rows] = windows[first[rows]].sum(axis=1)
    return (0.5 * sums).tolist()


def _integrate_windows(
    calls: Iterable[tuple[PowerTrace, Sequence[float], Sequence[float]]], max_gap: float
) -> list[list[float]]:
    """Energy of each window of each ``(trace, starts, ends)`` call, per call.

    Each call is one :func:`_window_terms` call, whose checks and errors it
    keeps, and each energy is bit for bit what that call's windows give
    one at a time.  The calls' terms are summed together, in batches of
    about ``_BATCH_TERMS`` terms, so that windows of equal term count on
    different traces share one gather while the joined terms stay small.
    """
    energies: list[list[float]] = []
    batch: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    held = 0
    for trace, starts, ends in calls:
        batch.append(_window_terms(trace, starts, ends, max_gap))
        held += batch[-1][0].size
        if held >= _BATCH_TERMS:
            energies += _batch_energies(batch)
            batch, held = [], 0
    if batch:
        energies += _batch_energies(batch)
    return energies


def _batch_energies(batch: list[tuple[np.ndarray, np.ndarray, np.ndarray]]) -> list[list[float]]:
    """:func:`_window_energies` of several calls' terms, joined, split per call."""
    terms, first, last = zip(*batch)
    windows = [bounds.size for bounds in first]
    # Each call's window bounds move by the terms of the calls before it.
    shift = np.repeat(np.cumsum([0, *[piece.size for piece in terms[:-1]]]), windows)
    energies = _window_energies(
        terms[0] if len(terms) == 1 else np.concatenate(terms),
        np.concatenate(first) + shift,
        np.concatenate(last) + shift,
    )
    ends = np.cumsum(windows).tolist()
    return [energies[b - n : b] for n, b in zip(windows, ends)]


def _raise_first_gap(
    trace: PowerTrace,
    starts: np.ndarray,
    ends: np.ndarray,
    i0: np.ndarray,
    i1: np.ndarray,
    max_gap: float,
) -> None:
    """Raise the first window's :class:`CoverageGapError`, if any window fails.

    A window is checked for its start's reach before the trace, its end's
    past it, and then the stretches overlapping it: those of
    ``times[lo:hi]``, its own samples and the nearest one beyond each edge.
    """
    times = trace.times
    first, final = float(times[0]), float(times[-1])
    for start, end, a, b in zip(starts.tolist(), ends.tolist(), i0.tolist(), i1.tolist()):
        lo, hi = max(a - 1, 0), min(b + 1, times.size)
        hits = (np.diff(times[lo:hi]) > max_gap).nonzero()[0]
        if first - start > max_gap:
            gap = start, first
        elif end - final > max_gap:
            gap = final, end
        elif hits.size:
            gap = float(times[lo + hits[0]]), float(times[lo + hits[0] + 1])
        else:
            continue
        raise CoverageGapError(
            f"device {trace.device_id!r}: no samples across [{gap[0]}, {gap[1]}] "
            f"({gap[1] - gap[0]:.3f} s > max_gap {max_gap} s)",
            gap=gap,
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
    Integration errors propagate carrying the offending device_id.  A
    category whose devices' energies sum past float range raises
    :class:`ValidationError`.
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
        energy_by_category={
            cat: _fsum(parts, f"{cat.value} energies") for cat, parts in energies.items()
        },
    )
