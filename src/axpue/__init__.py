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
    analyze,
    build_report,
    compute_performance,
)
from .integrate import PowerTrace, integrate_power
from .io import (
    ScenarioBundle,
    load_bundle,
    parse_inventory_json,
    parse_power_csv,
    parse_runs_jsonl,
    read_report,
    write_report,
)
from .model import (
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
)
from .simulate import (
    DeviceKind,
    DevicePowerModel,
    FacilityOverheadModel,
    SimOutput,
    SimScenario,
    builtin_scenario,
    simulate,
    sort_comparison_scenarios,
)

__version__ = "0.1.0"

__all__ = [
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
