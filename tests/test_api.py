"""The public API: the names ``axpue`` exports are pinned, so it changes only on purpose."""

from __future__ import annotations

import axpue

PUBLIC_NAMES = [
    "ApplicationCategory",
    "ApplicationRun",
    "DeviceCategory",
    "DeviceKind",
    "DevicePowerModel",
    "DeviceRecord",
    "EnergyWindow",
    "FacilityOverheadModel",
    "Inventory",
    "MetricInputs",
    "MetricsReport",
    "PerformanceRate",
    "PowerTrace",
    "RateUnit",
    "RunInput",
    "RunMetrics",
    "ScenarioBundle",
    "SimOutput",
    "SimScenario",
    "WorkKind",
    "WorkMeasure",
    "analyze",
    "build_report",
    "builtin_scenario",
    "compute_performance",
    "errors",
    "integrate_power",
    "load_bundle",
    "parse_inventory_json",
    "parse_power_csv",
    "parse_runs_jsonl",
    "read_report",
    "simulate",
    "sort_comparison_scenarios",
    "write_report",
]


def test_all_is_pinned():
    assert len(PUBLIC_NAMES) == 35
    assert sorted(axpue.__all__) == PUBLIC_NAMES


def test_every_name_resolves():
    missing = [name for name in axpue.__all__ if not hasattr(axpue, name)]
    assert missing == []
