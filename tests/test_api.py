"""The public API: the names ``axpue`` exports are pinned, so it changes only on purpose."""

from __future__ import annotations

import axpue

PUBLIC_NAMES = [
    "ApplicationCategory",
    "ApplicationRun",
    "DEFAULT_MAX_GAP",
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
    "RATE_UNIT_FOR_CATEGORY",
    "RateUnit",
    "RunInput",
    "RunMetrics",
    "ScenarioBundle",
    "SimOutput",
    "SimScenario",
    "WORK_KIND_FOR_CATEGORY",
    "WorkKind",
    "WorkMeasure",
    "aggregate_appue",
    "analyze",
    "build_report",
    "builtin_scenario",
    "category_energy",
    "compute_aopue",
    "compute_appue",
    "compute_performance",
    "compute_pue",
    "compute_weights",
    "errors",
    "integrate_power",
    "load_bundle",
    "paper_scenarios",
    "parse_inventory_json",
    "parse_power_csv",
    "parse_runs_jsonl",
    "read_report",
    "scenario_from_manifest",
    "scenario_to_manifest",
    "simulate",
    "sort_comparison_scenarios",
    "stretch_duration",
    "verify_identity",
    "write_inventory_json",
    "write_power_csv",
    "write_report",
    "write_runs_jsonl",
]


def test_all_is_pinned():
    assert len(PUBLIC_NAMES) == 52
    assert sorted(axpue.__all__) == PUBLIC_NAMES


def test_every_name_resolves():
    missing = [name for name in axpue.__all__ if not hasattr(axpue, name)]
    assert missing == []
