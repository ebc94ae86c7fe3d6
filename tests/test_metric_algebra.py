"""Metamorphic relations of the paper's metric algebra.

ApPUE is performance per kW of IT power, AoPUE performance per kW of
facility power, and the multi-application ApPUE their mean weighted by IT
power.  Those definitions fix how the report of a transformed input relates
to the report of the input itself, with no oracle: each relation below is
checked on small in-memory fleets, bit for bit, because every transform is
exact in float64 (permuting, scaling by a power of two, doubling an
integer).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from axpue import (
    ApplicationCategory,
    ApplicationRun,
    DeviceCategory,
    DeviceRecord,
    Inventory,
    PowerTrace,
    WorkMeasure,
    analyze,
)
from axpue.model import WORK_KIND_FOR_CATEGORY

#: Seconds between samples; every run window lies on this grid.
STEP = 10.0


@st.composite
def fleets(draw):
    """Runs of one category on 1-3 IT devices, one after another on each
    device, and the watts of each device (the IT ones and one cooling unit)
    on a shared grid that covers every run: ``(runs, watts_by_device)``."""
    category = draw(st.sampled_from(ApplicationCategory))
    n_it = draw(st.integers(1, 3))
    placements = draw(
        st.lists(
            st.tuples(st.integers(0, n_it - 1), st.integers(0, 2), st.integers(1, 3)),
            min_size=1,
            max_size=8,
        )
    )
    ends = [0] * n_it
    runs = []
    for i, (device, gap, length) in enumerate(placements):
        start = ends[device] + gap
        ends[device] = start + length
        amount = draw(st.integers(1, 10**12))
        runs.append(
            ApplicationRun(
                f"r{i}", category, start * STEP, ends[device] * STEP,
                WorkMeasure(WORK_KIND_FOR_CATEGORY[category], amount), {f"it-{device}"},
            )
        )
    n = max(ends) + 1 + draw(st.integers(0, 2))
    watts = {
        f"it-{d}": draw(st.lists(st.floats(1.0, 1000.0), min_size=n, max_size=n))
        for d in range(n_it)
    }
    watts["cooling"] = draw(st.lists(st.floats(0.0, 1000.0), min_size=n, max_size=n))
    return runs, watts


def report_of(runs, watts, scale=1.0):
    """``analyze`` of ``runs`` over traces of ``watts`` scaled by ``scale``."""
    inventory = Inventory(
        DeviceRecord(
            d, DeviceCategory.IT_EQUIPMENT if d.startswith("it-") else DeviceCategory.COOLING
        )
        for d in watts
    )
    times = STEP * np.arange(len(watts["cooling"]))
    traces = [PowerTrace(d, times, np.asarray(w) * scale) for d, w in watts.items()]
    return analyze(traces, inventory, runs)


@settings(max_examples=50, deadline=None)
@given(fleets(), st.integers(-8, 8), st.data())
def test_reports_of_transformed_fleets_relate_exactly(fleet, k, data):
    runs, watts = fleet
    base = report_of(runs, watts)
    rows = list(base.per_run)

    # Permuting the runs permutes the rows and leaves the aggregates.
    order = data.draw(st.permutations(range(len(runs))))
    permuted = report_of([runs[i] for i in order], watts)
    assert list(permuted.per_run) == [rows[i] for i in order]
    assert (permuted.pue, permuted.weighted_appue, permuted.aggregated_aopue) == (
        base.pue, base.weighted_appue, base.aggregated_aopue,
    )

    # Every watts value x 2^k: PUE and weights hold, powers scale by 2^k,
    # and ApPUE and AoPUE by 2^-k.
    scaled = report_of(runs, watts, 2.0**k)
    assert scaled.pue == base.pue
    for row, old in zip(scaled.per_run, rows, strict=True):
        assert (row.run_id, row.performance, row.weight) == (old.run_id, old.performance, old.weight)
        assert (row.it_power_kw, row.facility_power_kw) == (
            old.it_power_kw * 2.0**k, old.facility_power_kw * 2.0**k,
        )
        assert (row.appue, row.aopue) == (old.appue * 2.0**-k, old.aopue * 2.0**-k)
    assert (scaled.weighted_appue, scaled.aggregated_aopue) == (
        base.weighted_appue * 2.0**-k, base.aggregated_aopue * 2.0**-k,
    )

    # Doubling some runs' work doubles their performance, ApPUE and AoPUE,
    # and leaves every other row and every weight.
    twice = data.draw(st.sets(st.integers(0, len(runs) - 1), min_size=1))
    doubled = report_of(
        [
            ApplicationRun(
                run.run_id, run.category, run.start, run.end,
                WorkMeasure(run.work.kind, 2 * run.work.amount), run.attributed_devices,
            )
            if i in twice else run
            for i, run in enumerate(runs)
        ],
        watts,
    )
    assert doubled.pue == base.pue
    for i, (row, old) in enumerate(zip(doubled.per_run, rows, strict=True)):
        if i not in twice:
            assert row == old
            continue
        assert (row.it_power_kw, row.facility_power_kw, row.weight) == (
            old.it_power_kw, old.facility_power_kw, old.weight,
        )
        assert row.performance.value == 2 * old.performance.value
        assert (row.appue, row.aopue) == (2 * old.appue, 2 * old.aopue)
