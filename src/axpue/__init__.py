"""Application-level power usage effectiveness metrics.

Computes PUE (total facility energy over IT energy), ApPUE (application
performance per kW of IT power), AoPUE (performance per kW of facility
power), and the power-weighted multi-application ApPUE, from timestamped
power telemetry plus application run logs.  Ships a deterministic scenario
simulator and a batch CLI.
"""

from . import errors
from .engine import (
    MetricInputs,
    RunInput,
    aggregate_appue,
    analyze,
    build_report,
    compute_aopue,
    compute_appue,
    compute_performance,
    compute_pue,
    compute_weights,
)
from .integrate import (
    DEFAULT_MAX_GAP,
    PowerTrace,
    category_energy,
    integrate_power,
)
from .io import (
    ScenarioBundle,
    load_bundle,
    parse_inventory_json,
    parse_power_csv,
    parse_runs_jsonl,
    read_report,
    write_inventory_json,
    write_power_csv,
    write_report,
    write_runs_jsonl,
)
from .model import (
    RATE_UNIT_FOR_CATEGORY,
    WORK_KIND_FOR_CATEGORY,
    ApplicationCategory,
    ApplicationRun,
    DeviceCategory,
    DeviceRecord,
    EnergyWindow,
    Inventory,
    MetricsReport,
    PerformanceRate,
    RateUnit,
    RunMetrics,
    WorkKind,
    WorkMeasure,
    verify_identity,
)
from .simulate import (
    DeviceKind,
    DevicePowerModel,
    FacilityOverheadModel,
    SimOutput,
    SimScenario,
    builtin_scenario,
    paper_scenarios,
    scenario_from_manifest,
    scenario_to_manifest,
    simulate,
    sort_comparison_scenarios,
    stretch_duration,
)

__version__ = "0.1.0"

__all__ = [
    "ApplicationCategory",
    "ApplicationRun",
    "DEFAULT_MAX_GAP",
    "RATE_UNIT_FOR_CATEGORY",
    "WORK_KIND_FOR_CATEGORY",
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
