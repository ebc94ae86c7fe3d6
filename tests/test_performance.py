"""Data processing rate per application category."""

from __future__ import annotations

import pytest

from axpue import (
    ApplicationCategory,
    ApplicationRun,
    RateUnit,
    WorkKind,
    WorkMeasure,
    compute_performance,
)


def make_run(category, kind, amount, duration, run_id="r"):
    return ApplicationRun(
        run_id=run_id,
        category=category,
        start=0.0,
        end=duration,
        work=WorkMeasure(kind, amount),
        attributed_devices=frozenset({"s1"}),
    )


GREP_DURATION_S = 1e8 / 24916.998  # 100 GB at the published rate


def test_grep_rate_in_kb_per_second():
    run = make_run(
        ApplicationCategory.DATA_ANALYSIS,
        WorkKind.BYTES_PROCESSED,
        100 * 10**9,
        GREP_DURATION_S,
    )
    rate = compute_performance(run)
    assert rate.unit is RateUnit.KB_PER_SECOND
    assert rate.value == pytest.approx(24916.998, rel=1e-12)
    # Cross-check: rate times duration returns the input volume in KB.
    assert rate.value * run.duration == pytest.approx(1e8, rel=1e-12)


def test_zero_work_is_zero_rate():
    run = make_run(ApplicationCategory.SERVICE, WorkKind.REQUESTS_ANSWERED, 0, 10.0)
    assert compute_performance(run).value == 0.0


def test_hpc_rate_reported_in_gflops():
    run = make_run(
        ApplicationCategory.HIGH_PERFORMANCE_COMPUTING,
        WorkKind.FLOATING_POINT_OPS,
        int(5.046e12),
        100.0,
    )
    rate = compute_performance(run)
    assert rate.unit is RateUnit.FLOPS_PER_SECOND
    magnitude, label = rate.reported()
    assert magnitude == pytest.approx(50.46, rel=1e-12)
    assert label == "GFLOPS"


def test_rate_invariant_under_joint_scaling():
    base = make_run(
        ApplicationCategory.DATA_ANALYSIS, WorkKind.BYTES_PROCESSED, 10**9, 500.0
    )
    scaled = make_run(
        ApplicationCategory.DATA_ANALYSIS, WorkKind.BYTES_PROCESSED, 7 * 10**9, 3500.0
    )
    assert compute_performance(base).value == pytest.approx(
        compute_performance(scaled).value, rel=1e-12
    )


def test_rate_monotone_in_work():
    values = [
        compute_performance(
            make_run(ApplicationCategory.SERVICE, WorkKind.REQUESTS_ANSWERED, n, 60.0)
        ).value
        for n in (10, 100, 1000)
    ]
    assert values == sorted(values)
    assert values[0] < values[1] < values[2]


def test_unit_follows_category():
    cases = [
        (ApplicationCategory.SERVICE, WorkKind.REQUESTS_ANSWERED, RateUnit.REQUESTS_PER_SECOND),
        (
            ApplicationCategory.INTERACTIVE_REALTIME,
            WorkKind.TRANSACTIONS_COMPLETED,
            RateUnit.TRANSACTIONS_PER_SECOND,
        ),
        (ApplicationCategory.DATA_ANALYSIS, WorkKind.BYTES_PROCESSED, RateUnit.KB_PER_SECOND),
        (
            ApplicationCategory.HIGH_PERFORMANCE_COMPUTING,
            WorkKind.FLOATING_POINT_OPS,
            RateUnit.FLOPS_PER_SECOND,
        ),
    ]
    for category, kind, unit in cases:
        run = make_run(category, kind, 1000, 10.0)
        assert compute_performance(run).unit is unit
