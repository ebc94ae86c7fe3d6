"""Property tests: window integration against the whole-trace rule it replaced.

``reference_integrate_power`` scans every sample of the trace for gaps and
interpolates over the whole trace, as ``integrate_power`` did before it read
only the samples a window needs.  It is kept here only as the reference: on
every generated trace and window ``integrate_power`` must return the same
energy, bit for bit, or raise the same error with the same message and gap.
The batched kernel must do the same for every window of a list, and raise
the error of the first window that fails.

The kernel sums windows of equal term count as the rows of one 2-D array.
That this gives the bits of each window's own 1-D sum is numpy's summation
order, not a rule of arithmetic, so it is pinned here too: a numpy whose
row sums differ from its slice sums fails these tests.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axpue import PowerTrace, integrate_power
from axpue.errors import CoverageGapError, NoSamplesError
from axpue import integrate
from axpue.integrate import _check_window, _integrate_windows, _window_energies, _window_terms


def reference_coverage_gap(times, start, end, max_gap):
    if times[0] - start > max_gap:
        return start, float(times[0])
    if end - times[-1] > max_gap:
        return float(times[-1]), end
    if times.size > 1:
        gaps = np.diff(times)
        bad = (gaps > max_gap) & (times[:-1] < end) & (times[1:] > start)
        hits = np.nonzero(bad)[0]
        if hits.size:
            i = int(hits[0])
            return float(times[i]), float(times[i + 1])
    return None


def reference_integrate_power(trace, start, end, max_gap):
    _check_window(start, end)
    if len(trace) == 0:
        raise NoSamplesError(
            f"device {trace.device_id!r}: trace holds no samples",
            device_id=trace.device_id,
        )
    times, watts = trace.times, trace.watts
    start, end = float(start), float(end)
    gap = reference_coverage_gap(times, start, end, float(max_gap))
    if gap is not None:
        lo, hi = gap
        raise CoverageGapError(
            f"device {trace.device_id!r}: no samples across [{lo}, {hi}] "
            f"({hi - lo:.3f} s > max_gap {max_gap} s)",
            gap=gap,
            device_id=trace.device_id,
        )
    p_start = float(np.interp(start, times, watts))
    p_end = float(np.interp(end, times, watts))
    i0 = int(np.searchsorted(times, start, side="right"))
    i1 = int(np.searchsorted(times, end, side="left"))
    ts = np.concatenate(([start], times[i0:i1], [end]))
    ps = np.concatenate(([p_start], watts[i0:i1], [p_end]))
    return 0.5 * float(np.sum((ps[1:] + ps[:-1]) * np.diff(ts)))


def outcome(integrate, trace, start, end, max_gap):
    """The energy's bits, or the (type, message, gap, device) raised."""
    try:
        return ("ok", integrate(trace, start, end, max_gap).hex())
    except Exception as exc:
        return ("error", type(exc), str(exc), getattr(exc, "gap", None))


@st.composite
def traces(draw, allow_empty=True):
    """Sample times with short and wide gaps, and their watts."""
    steps = draw(
        st.lists(
            st.one_of(st.floats(0.25, 20.0), st.floats(20.0, 300.0)), max_size=40
        )
    )
    origin = draw(st.floats(-1e6, 1e6))
    empty = allow_empty and not steps and draw(st.booleans())
    times = [] if empty else (origin + np.cumsum([0.0, *steps])).tolist()
    watts = draw(st.lists(st.floats(0.0, 1e4), min_size=len(times), max_size=len(times)))
    return origin, times, watts


def windows(draw, origin, times, max_gap):
    """A window that may pass the trace's ends, sit on samples or between two."""
    lo = (times[0] if times else origin) - 200.0
    hi = (times[-1] if times else origin) + 200.0
    point = st.floats(lo, hi)
    if times:
        point = st.one_of(
            point,
            st.sampled_from(times),
            # Beyond an end by less than max_gap: extended, not a gap.
            st.floats(times[0] - max_gap, times[0]),
            st.floats(times[-1], times[-1] + max_gap),
        )
    a, b = draw(point), draw(point)
    if times and draw(st.booleans()):
        # Both edges inside one stretch: no interior sample.
        k = draw(st.integers(0, len(times) - 1))
        left, right = times[k], times[k + 1] if k + 1 < len(times) else times[k] + 30.0
        a, b = draw(st.floats(left, right)), draw(st.floats(left, right))
    start, end = min(a, b), max(a, b)
    if start == end:
        end = start + draw(st.floats(0.5, 100.0))
    return start, end


MAX_GAPS = st.sampled_from([5.0, 30.0, 60.0, 150.0])


@st.composite
def cases(draw):
    """A trace with short and wide gaps, and a window that may pass its ends."""
    origin, times, watts = draw(traces())
    max_gap = draw(MAX_GAPS)
    start, end = windows(draw, origin, times, max_gap)
    return times, watts, start, end, max_gap


@settings(max_examples=500, deadline=None)
# Past both ends; a wide gap after, before, inside and exactly as the window;
# a window starting on the last sample; a single sample; no sample.
@example(([0.0, 10.0, 20.0], [1.0, 2.0, 3.0], -50.0, 75.0, 60.0))
@example(([0.0, 10.0, 200.0, 210.0], [1.0, 2.0, 3.0, 4.0], 0.0, 10.0, 60.0))
@example(([0.0, 100.0, 110.0, 120.0], [1.0, 2.0, 3.0, 4.0], 105.0, 120.0, 60.0))
@example(([0.0, 10.0, 200.0, 210.0], [1.0, 2.0, 3.0, 4.0], 5.0, 205.0, 60.0))
@example(([0.0, 10.0, 200.0, 210.0], [1.0, 2.0, 3.0, 4.0], 10.0, 200.0, 60.0))
@example(([0.0, 10.0], [1.0, 2.0], 10.0, 50.0, 60.0))
@example(([0.0], [3.0], -30.0, 30.0, 60.0))
@example(([], [], 0.0, 1.0, 60.0))
@given(cases())
def test_window_integration_matches_the_whole_trace_rule(case):
    times, watts, start, end, max_gap = case
    trace = PowerTrace("dev", times, watts)
    assert outcome(integrate_power, trace, start, end, max_gap) == outcome(
        reference_integrate_power, trace, start, end, max_gap
    )


@st.composite
def window_lists(draw):
    """A non-empty trace and 1-8 windows, which may overlap one another."""
    origin, times, watts = draw(traces(allow_empty=False))
    max_gap = draw(MAX_GAPS)
    count = draw(st.integers(1, 8))
    return times, watts, [windows(draw, origin, times, max_gap) for _ in range(count)], max_gap


@settings(max_examples=500, deadline=None)
# Overlapping and nested windows; edges on samples; no interior sample;
# edges beyond both ends by less than max_gap; a trace of one sample.
@example(([0.0, 10.0, 20.0], [1.0, 2.0, 3.0], [(-5.0, 15.0), (5.0, 25.0), (0.0, 20.0)], 60.0))
@example(([0.0, 10.0, 20.0], [1.0, 2.0, 3.0], [(11.0, 12.0), (10.0, 20.0), (12.5, 20.0)], 60.0))
@example(([0.0], [3.0], [(-30.0, 30.0), (-1.0, 0.0)], 60.0))
# The second and third windows fail; the second one's error is raised.
@example(
    ([0.0, 10.0, 200.0, 210.0], [1.0, 2.0, 3.0, 4.0], [(0.0, 10.0), (5.0, 205.0), (-100.0, 5.0)], 60.0)
)
@example(([0.0, 10.0, 200.0, 210.0], [1.0, 2.0, 3.0, 4.0], [(200.0, 210.0), (0.0, 300.0)], 60.0))
@given(window_lists())
def test_kernel_matches_the_reference_window_by_window(case):
    times, watts, spans, max_gap = case
    trace = PowerTrace("dev", times, watts)
    expected = [outcome(reference_integrate_power, trace, a, b, max_gap) for a, b in spans]
    failed = [o for o in expected if o[0] == "error"]
    try:
        starts, ends = zip(*spans)
        (energies,) = _integrate_windows([(trace, starts, ends)], max_gap)
        got = ("ok", [joules.hex() for joules in energies])
    except Exception as exc:
        got = ("error", type(exc), str(exc), getattr(exc, "gap", None))
    assert got == (failed[0] if failed else ("ok", [o[1] for o in expected]))


#: Term counts, with the edges of numpy's 8-way unrolled pairwise sum and
#: of its 128-term blocks.
TERM_COUNTS = st.one_of(st.integers(1, 300), st.sampled_from([8, 9, 128, 129, 256]))


@st.composite
def term_counts(draw):
    """Windows' term counts, each count taken by one to twelve windows."""
    groups = draw(st.lists(st.tuples(TERM_COUNTS, st.integers(1, 12)), min_size=1, max_size=5))
    return [count for count, windows in groups for _ in range(windows)]


def spread_terms(rng, size):
    """Terms of many magnitudes and both signs, whose sum's bits depend on the
    order it is taken in."""
    return rng.standard_normal(size) * 10.0 ** rng.uniform(-6.0, 6.0, size)


@settings(max_examples=300, deadline=None)
@example(counts=[8] * 8, seed=0)
@example(counts=[5], seed=0)
@example(counts=[129, 129, 7], seed=1)
@given(counts=term_counts(), seed=st.integers(0, 2**32 - 1))
def test_grouped_window_sums_are_the_slice_sums(counts, seed):
    rng = np.random.default_rng(seed)
    counts = rng.permutation(counts)
    terms = spread_terms(rng, int(counts.max()) + 50)
    first = rng.integers(0, terms.size - counts + 1)
    last = first + counts
    energies = _window_energies(terms, first, last)
    assert [joules.hex() for joules in energies] == [
        float(0.5 * terms[a:b].sum()).hex() for a, b in zip(first, last)
    ]


@settings(max_examples=100, deadline=None)
@example(per_trace=[[8] * 8, [8] * 8], seed=0, batch=1 << 16)
@given(
    per_trace=st.lists(term_counts(), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
    batch=st.sampled_from([1, 300, 1 << 16]),
)
def test_batched_energies_are_integrate_power_window_by_window(per_trace, seed, batch):
    rng = np.random.default_rng(seed)
    calls = []
    for k, counts in enumerate(per_trace):
        counts = np.array(counts)
        n = int(counts.max()) + 40
        times = np.cumsum(rng.uniform(1.0, 10.0, n))
        trace = PowerTrace(f"d{k}", times, rng.uniform(0.0, 1e4, n))
        # A window of c terms holds c - 1 samples: it starts a quarter of the
        # way past sample a and ends halfway past sample a + c - 1.
        a = rng.integers(0, n - counts)
        b = a + counts - 1
        starts = times[a] + 0.25 * (times[a + 1] - times[a])
        ends = times[b] + 0.5 * (times[b + 1] - times[b])
        calls.append((trace, starts.tolist(), ends.tolist(), counts.tolist()))
    with mock.patch.object(integrate, "_BATCH_TERMS", batch):
        energies = _integrate_windows([call[:3] for call in calls], 60.0)
    for (trace, starts, ends, counts), joules in zip(calls, energies, strict=True):
        terms, first, last = _window_terms(trace, starts, ends, 60.0)
        assert (last - first).tolist() == counts
        assert [j.hex() for j in joules] == [
            integrate_power(trace, start, end, 60.0).hex() for start, end in zip(starts, ends)
        ]
        assert [j.hex() for j in joules] == [
            float(0.5 * terms[a:b].sum()).hex() for a, b in zip(first, last)
        ]
