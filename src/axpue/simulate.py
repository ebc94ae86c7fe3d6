"""Deterministic synthetic telemetry for data-center scenarios.

A scenario holds per-device power models (linear between an idle and a peak
wattage), per-device piecewise-linear utilization profiles, application runs,
and a facility overhead model realized as three synthetic non-IT devices:

* cooling, drawing ``cooling_coefficient`` times the instantaneous IT power;
* power transmission, drawing ``transmission_loss_fraction`` times IT power;
* a fixed "other" load (lighting etc.).

Output is exactly the telemetry file formats the ingestion layer accepts, so
``simulate`` output always feeds ``compute`` unchanged.  Generation is pure:
the same scenario yields byte-identical files on every call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import DuplicateDeviceError, ModelError, SchemaError
from .io import (
    _load_json,
    _run_from_obj,
    _run_to_obj,
    write_inventory_json,
    write_power_csv,
    write_runs_jsonl,
)
from .model import (
    ApplicationCategory,
    ApplicationRun,
    DeviceCategory,
    DeviceRecord,
    WorkKind,
    WorkMeasure,
)

SCENARIO_SCHEMA = "axpue-scenario/1"

# Measured single-machine anchor points: a loaded server climbs from 290 W
# idle to 300 W at full utilization, storage from 310 W to 390 W.
SERVER_IDLE_W, SERVER_PEAK_W = 290.0, 300.0
STORAGE_IDLE_W, STORAGE_PEAK_W = 310.0, 390.0

COOLING_DEVICE = DeviceRecord("facility-cooling", DeviceCategory.COOLING, "synthetic cooling plant")
TRANSMISSION_DEVICE = DeviceRecord(
    "facility-transmission", DeviceCategory.POWER_TRANSMISSION, "synthetic transmission loss"
)
OTHER_DEVICE = DeviceRecord("facility-other", DeviceCategory.OTHER, "lighting and other fixed loads")
_OVERHEAD_IDS = {d.device_id for d in (COOLING_DEVICE, TRANSMISSION_DEVICE, OTHER_DEVICE)}


class DeviceKind(str, Enum):
    SERVER = "server"
    STORAGE = "storage"
    FIXED = "fixed"


@dataclass(frozen=True)
class DevicePowerModel:
    """Linear utilization-to-power model: idle + u * (peak - idle)."""

    kind: DeviceKind
    idle_watts: float
    peak_watts: float

    def __post_init__(self):
        values = (self.idle_watts, self.peak_watts)
        if not all(math.isfinite(v) for v in values):
            raise ModelError(f"power model parameters must be finite, got {values!r}")
        if not 0 <= self.idle_watts <= self.peak_watts:
            raise ModelError(
                f"need 0 <= idle ({self.idle_watts}) <= peak ({self.peak_watts})"
            )
        if self.kind is DeviceKind.FIXED and self.idle_watts != self.peak_watts:
            raise ModelError("fixed models must have idle == peak")

    def power(self, utilization):
        """Watts at a utilization in [0, 1]; accepts scalars or arrays."""
        return self.idle_watts + utilization * (self.peak_watts - self.idle_watts)

    @property
    def constant_watts(self) -> float:
        if self.kind is not DeviceKind.FIXED:
            raise ModelError("constant_watts only applies to fixed models")
        return self.idle_watts

    @classmethod
    def server(cls) -> "DevicePowerModel":
        return cls(DeviceKind.SERVER, SERVER_IDLE_W, SERVER_PEAK_W)

    @classmethod
    def storage(cls) -> "DevicePowerModel":
        return cls(DeviceKind.STORAGE, STORAGE_IDLE_W, STORAGE_PEAK_W)

    @classmethod
    def fixed(cls, watts: float) -> "DevicePowerModel":
        return cls(DeviceKind.FIXED, watts, watts)


@dataclass(frozen=True)
class FacilityOverheadModel:
    """Non-IT facility power as a function of instantaneous IT power."""

    fixed_watts: float
    cooling_coefficient: float
    transmission_loss_fraction: float

    def __post_init__(self):
        values = (self.fixed_watts, self.cooling_coefficient, self.transmission_loss_fraction)
        if not all(math.isfinite(v) and v >= 0 for v in values):
            raise ModelError(f"overhead parameters must be finite and >= 0, got {values!r}")
        if self.transmission_loss_fraction >= 1:
            raise ModelError(
                f"transmission_loss_fraction must be < 1, got {self.transmission_loss_fraction}"
            )


Profile = tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class SimScenario:
    """Full description of one synthetic telemetry run."""

    name: str
    duration: float
    sample_period: float
    devices: tuple[tuple[DeviceRecord, DevicePowerModel], ...]
    utilization_profiles: Mapping[str, Profile]
    runs: tuple[ApplicationRun, ...]
    overhead: FacilityOverheadModel

    def __post_init__(self):
        object.__setattr__(self, "devices", tuple(self.devices))
        object.__setattr__(self, "runs", tuple(self.runs))
        object.__setattr__(
            self,
            "utilization_profiles",
            {d: tuple((float(t), float(u)) for t, u in p) for d, p in self.utilization_profiles.items()},
        )
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ModelError(f"duration must be > 0, got {self.duration!r}")
        if not (math.isfinite(self.sample_period) and self.sample_period > 0):
            raise ModelError(f"sample_period must be > 0, got {self.sample_period!r}")
        ids = set()
        for record, _ in self.devices:
            if record.device_id in ids:
                raise DuplicateDeviceError(f"duplicate device_id {record.device_id!r}")
            if record.device_id in _OVERHEAD_IDS:
                raise ModelError(
                    f"device_id {record.device_id!r} is reserved for overhead devices"
                )
            ids.add(record.device_id)
        for device_id, profile in self.utilization_profiles.items():
            if device_id not in ids:
                raise ModelError(f"profile for unknown device {device_id!r}")
            if not profile:
                raise ModelError(f"device {device_id!r}: empty utilization profile")
            ts = [t for t, _ in profile]
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise ModelError(
                    f"device {device_id!r}: profile breakpoints must strictly increase"
                )
            for t, u in profile:
                if not (math.isfinite(t) and math.isfinite(u) and 0 <= u <= 1):
                    raise ModelError(
                        f"device {device_id!r}: utilization must be in [0, 1], got {u!r}"
                    )
        it_ids = {
            r.device_id for r, _ in self.devices if r.category is DeviceCategory.IT_EQUIPMENT
        }
        run_ids = set()
        for run in self.runs:
            if run.run_id in run_ids:
                raise ModelError(f"duplicate run_id {run.run_id!r}")
            run_ids.add(run.run_id)
            if not (0 <= run.start and run.end <= self.duration):
                raise ModelError(
                    f"run {run.run_id!r} window [{run.start}, {run.end}] exceeds "
                    f"the scenario duration {self.duration}"
                )
            missing = run.attributed_devices - it_ids
            if missing:
                raise ModelError(
                    f"run {run.run_id!r} attributes non-IT or unknown devices "
                    f"{sorted(missing)!r}"
                )


@dataclass(frozen=True)
class SimOutput:
    """Byte-exact artifacts of one simulation."""

    power_csv: bytes
    runs_jsonl: bytes
    inventory_json: bytes
    manifest_json: bytes

    def write_to(self, directory: str | Path) -> dict[str, Path]:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = {
            "power": directory / "power.csv",
            "runs": directory / "runs.jsonl",
            "inventory": directory / "inventory.json",
            "manifest": directory / "manifest.json",
        }
        paths["power"].write_bytes(self.power_csv)
        paths["runs"].write_bytes(self.runs_jsonl)
        paths["inventory"].write_bytes(self.inventory_json)
        paths["manifest"].write_bytes(self.manifest_json)
        return paths


def _sample_grid(duration: float, period: float) -> np.ndarray:
    try:
        n = int(math.floor(duration / period + 1e-9))
        ts = np.arange(n + 1, dtype=np.float64) * period
    except (OverflowError, ValueError, MemoryError):
        raise ModelError(
            f"a duration of {duration!r} s sampled every {period!r} s is too many samples"
        ) from None
    if duration - ts[-1] > 1e-9 * max(1.0, duration):
        ts = np.append(ts, duration)
    else:
        ts[-1] = duration
    return ts


def _profile_utilization(profile: Profile | None, ts: np.ndarray) -> np.ndarray:
    if not profile:
        return np.zeros_like(ts)
    bp_t = np.array([t for t, _ in profile], dtype=np.float64)
    bp_u = np.array([u for _, u in profile], dtype=np.float64)
    return np.interp(ts, bp_t, bp_u)


def simulate(scenario: SimScenario) -> SimOutput:
    """Emit power CSV, runs JSONL, inventory, and manifest for a scenario.

    Samples land on every multiple of the sample period plus the scenario
    end, so trace coverage always spans every run window exactly.
    """
    ts = _sample_grid(scenario.duration, scenario.sample_period)
    device_watts: list[tuple[DeviceRecord, np.ndarray]] = []
    it_total = np.zeros_like(ts)
    for record, model in scenario.devices:
        if model.kind is DeviceKind.FIXED:
            watts = np.full_like(ts, model.constant_watts)
        else:
            u = _profile_utilization(
                scenario.utilization_profiles.get(record.device_id), ts
            )
            watts = model.power(u)
        device_watts.append((record, watts))
        if record.category is DeviceCategory.IT_EQUIPMENT:
            it_total = it_total + watts
    overhead = scenario.overhead
    device_watts.append((COOLING_DEVICE, overhead.cooling_coefficient * it_total))
    device_watts.append(
        (TRANSMISSION_DEVICE, overhead.transmission_loss_fraction * it_total)
    )
    device_watts.append((OTHER_DEVICE, np.full_like(ts, overhead.fixed_watts)))

    return SimOutput(
        power_csv=write_power_csv(ts, [(r.device_id, watts) for r, watts in device_watts]),
        runs_jsonl=write_runs_jsonl(scenario.runs),
        inventory_json=write_inventory_json([r for r, _ in device_watts]),
        manifest_json=scenario_to_manifest(scenario),
    )


def _model_to_obj(model: DevicePowerModel) -> dict:
    if model.kind is DeviceKind.FIXED:
        return {"kind": model.kind.value, "constant_watts": model.constant_watts}
    return {
        "kind": model.kind.value,
        "idle_watts": model.idle_watts,
        "peak_watts": model.peak_watts,
    }


def _model_from_obj(obj: dict) -> DevicePowerModel:
    try:
        kind = DeviceKind(obj["kind"])
        if kind is DeviceKind.FIXED:
            return DevicePowerModel.fixed(float(obj["constant_watts"]))
        return DevicePowerModel(kind, float(obj["idle_watts"]), float(obj["peak_watts"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed power model: {exc}") from exc


def scenario_to_manifest(scenario: SimScenario) -> bytes:
    """JSON manifest carrying every scenario field; inverse of the loader."""
    obj = {
        "schema": SCENARIO_SCHEMA,
        "name": scenario.name,
        "duration": scenario.duration,
        "sample_period": scenario.sample_period,
        "devices": [
            {
                "device_id": record.device_id,
                "category": record.category.value,
                "label": record.label,
                "model": _model_to_obj(model),
            }
            for record, model in scenario.devices
        ],
        "utilization_profiles": {
            device_id: [[t, u] for t, u in profile]
            for device_id, profile in sorted(scenario.utilization_profiles.items())
        },
        "runs": [_run_to_obj(run) for run in scenario.runs],
        "overhead": {
            "fixed_watts": scenario.overhead.fixed_watts,
            "cooling_coefficient": scenario.overhead.cooling_coefficient,
            "transmission_loss_fraction": scenario.overhead.transmission_loss_fraction,
        },
    }
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


def scenario_from_manifest(data: bytes | str) -> SimScenario:
    """Parse a scenario manifest produced by :func:`scenario_to_manifest`."""
    obj = _load_json(data, "invalid scenario manifest")
    if not isinstance(obj, dict) or obj.get("schema") != SCENARIO_SCHEMA:
        raise SchemaError(f"not a {SCENARIO_SCHEMA} document")
    try:
        devices = tuple(
            (
                DeviceRecord(
                    device_id=entry["device_id"],
                    category=DeviceCategory(entry["category"]),
                    label=entry.get("label", ""),
                ),
                _model_from_obj(entry["model"]),
            )
            for entry in obj["devices"]
        )
        profiles = {
            device_id: tuple((float(t), float(u)) for t, u in points)
            for device_id, points in obj.get("utilization_profiles", {}).items()
        }
        runs = tuple(
            _run_from_obj(entry, line=i + 1) for i, entry in enumerate(obj.get("runs", []))
        )
        overhead = FacilityOverheadModel(
            fixed_watts=float(obj["overhead"]["fixed_watts"]),
            cooling_coefficient=float(obj["overhead"]["cooling_coefficient"]),
            transmission_loss_fraction=float(
                obj["overhead"]["transmission_loss_fraction"]
            ),
        )
        return SimScenario(
            name=obj.get("name", "manifest"),
            duration=float(obj["duration"]),
            sample_period=float(obj["sample_period"]),
            devices=devices,
            utilization_profiles=profiles,
            runs=runs,
            overhead=overhead,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed scenario manifest: {exc}") from exc


# Published reference measurements for five workloads on one cluster:
# average IT power (kW), average total facility power (kW), throughput in
# reporting units, and input data size.  Durations follow from size / rate;
# the HPC row instead fixes a duration and derives its flop counter from the
# published GFLOPS rate.
_REFERENCE_ROWS: tuple[dict, ...] = (
    {"workload": "BigDataBench", "it_kw": 100.412, "total_kw": 147.323, "rate_kb_s": 563.271, "data_gb": 100},
    {"workload": "SVM", "it_kw": 103.766, "total_kw": 150.897, "rate_kb_s": 134.854, "data_gb": 20},
    {"workload": "Sort", "it_kw": 92.122, "total_kw": 138.481, "rate_kb_s": 1588.128, "data_gb": 100},
    {"workload": "Grep", "it_kw": 92.331, "total_kw": 138.636, "rate_kb_s": 24916.998, "data_gb": 100},
    {"workload": "Linpack", "it_kw": 122.679, "total_kw": 170.685, "gflops": 50.46, "duration_s": 3600.0},
)

# Overhead split used to realize the published total power: a fixed lighting
# load plus a transmission loss share, with the cooling coefficient absorbing
# the remainder so that IT + overhead reproduces the total exactly.
_REFERENCE_FIXED_WATTS = 2000.0
_REFERENCE_TRANSMISSION_FRACTION = 0.05
_REFERENCE_SAMPLE_PERIOD = 60.0

_AGGREGATE_IT_DEVICE = "it-aggregate"


def _reference_scenario(row: dict) -> SimScenario:
    it_watts = row["it_kw"] * 1000.0
    total_watts = row["total_kw"] * 1000.0
    if "gflops" in row:
        duration = row["duration_s"]
        flops = int(round(row["gflops"] * 1e9 * duration))
        work = WorkMeasure(WorkKind.FLOATING_POINT_OPS, flops)
        category = ApplicationCategory.HIGH_PERFORMANCE_COMPUTING
    else:
        data_bytes = int(row["data_gb"]) * 10**9
        duration = (data_bytes / 1000.0) / row["rate_kb_s"]
        work = WorkMeasure(WorkKind.BYTES_PROCESSED, data_bytes)
        category = ApplicationCategory.DATA_ANALYSIS
    overhead_watts = total_watts - it_watts
    cooling_coefficient = (
        overhead_watts
        - _REFERENCE_TRANSMISSION_FRACTION * it_watts
        - _REFERENCE_FIXED_WATTS
    ) / it_watts
    record = DeviceRecord(
        _AGGREGATE_IT_DEVICE, DeviceCategory.IT_EQUIPMENT, "aggregate IT equipment"
    )
    run = ApplicationRun(
        run_id=row["workload"],
        category=category,
        start=0.0,
        end=duration,
        work=work,
        attributed_devices=frozenset({_AGGREGATE_IT_DEVICE}),
    )
    return SimScenario(
        name=row["workload"].lower(),
        duration=duration,
        sample_period=_REFERENCE_SAMPLE_PERIOD,
        devices=((record, DevicePowerModel.fixed(it_watts)),),
        utilization_profiles={},
        runs=(run,),
        overhead=FacilityOverheadModel(
            fixed_watts=_REFERENCE_FIXED_WATTS,
            cooling_coefficient=cooling_coefficient,
            transmission_loss_fraction=_REFERENCE_TRANSMISSION_FRACTION,
        ),
    )


def paper_scenarios() -> list[SimScenario]:
    """The five pinned reference scenarios (BigDataBench, SVM, Sort, Grep, Linpack)."""
    return [_reference_scenario(row) for row in _REFERENCE_ROWS]


# Sort implementation comparison: sort1 partitions reducer ranges from random
# input samples and stays balanced; sort2 funnels every mapper's output into
# a single reducer, which runs hot while the rest idle, and the job takes
# longer.  Durations grow superlinearly with data size (I/O-bound shuffle),
# more steeply for the single-reducer variant.
_SORT_NODE_COUNT = 8
_SORT1_BASE_DURATION_S = 9000.0
_SORT2_BASE_DURATION_S = 13500.0
_SORT1_SIZE_EXPONENT = 1.05
_SORT2_SIZE_EXPONENT = 1.25
_SORT_OVERHEAD = FacilityOverheadModel(
    fixed_watts=100.0, cooling_coefficient=0.35, transmission_loss_fraction=0.03
)
_SORT_MAP_END_FRACTION = 11  # twentieths of the duration
_SORT_REDUCE_START_FRACTION = 12


def _sort_scenario(
    name: str,
    duration: float,
    data_bytes: int,
    node_reduce_u: dict[str, float],
    storage_reduce_u: float,
) -> SimScenario:
    # Grid: a multiple of 20 intervals no longer than 60 s each, so the
    # map/reduce profile breakpoints land exactly on sample instants and
    # trapezoidal integration of the emitted samples is exact.
    intervals = 20 * max(1, math.ceil(duration / (20 * 60.0)))
    period = duration / intervals
    t_map_end = (intervals * _SORT_MAP_END_FRACTION // 20) * period
    t_reduce = (intervals * _SORT_REDUCE_START_FRACTION // 20) * period

    def phase_profile(map_u: float, reduce_u: float) -> Profile:
        return (
            (0.0, map_u),
            (t_map_end, map_u),
            (t_reduce, reduce_u),
            (duration, reduce_u),
        )

    nodes = [f"node-{i:02d}" for i in range(1, _SORT_NODE_COUNT + 1)]
    devices = [
        (DeviceRecord(node, DeviceCategory.IT_EQUIPMENT, "worker server"), DevicePowerModel.server())
        for node in nodes
    ]
    devices.append(
        (
            DeviceRecord("storage-01", DeviceCategory.IT_EQUIPMENT, "shared storage array"),
            DevicePowerModel.storage(),
        )
    )
    profiles = {node: phase_profile(0.80, node_reduce_u[node]) for node in nodes}
    profiles["storage-01"] = phase_profile(0.60, storage_reduce_u)
    run = ApplicationRun(
        run_id=name,
        category=ApplicationCategory.DATA_ANALYSIS,
        start=0.0,
        end=duration,
        work=WorkMeasure(WorkKind.BYTES_PROCESSED, data_bytes),
        attributed_devices=frozenset(nodes) | {"storage-01"},
    )
    return SimScenario(
        name=name,
        duration=duration,
        sample_period=period,
        devices=tuple(devices),
        utilization_profiles=profiles,
        runs=(run,),
        overhead=_SORT_OVERHEAD,
    )


def sort_comparison_scenarios(data_gb: float = 100.0) -> tuple[SimScenario, SimScenario]:
    """Balanced vs single-reducer sort over the same data size and overhead."""
    if not (math.isfinite(data_gb) and data_gb > 0):
        raise ModelError(f"data_gb must be > 0, got {data_gb!r}")
    scale = data_gb / 100.0
    try:
        durations = (
            _SORT1_BASE_DURATION_S * scale**_SORT1_SIZE_EXPONENT,
            _SORT2_BASE_DURATION_S * scale**_SORT2_SIZE_EXPONENT,
        )
    except OverflowError:  # a float power beyond float range raises; a product is inf
        durations = (math.inf,)
    if not (math.isfinite(data_gb * 1e9) and all(map(math.isfinite, durations))):
        raise ModelError(f"data_gb is too large to simulate, got {data_gb!r}")
    data_bytes = int(round(data_gb * 1e9))
    nodes = [f"node-{i:02d}" for i in range(1, _SORT_NODE_COUNT + 1)]
    sort1 = _sort_scenario(
        "sort1",
        durations[0],
        data_bytes,
        node_reduce_u={node: 0.70 for node in nodes},
        storage_reduce_u=0.50,
    )
    hot = {node: 0.15 for node in nodes}
    hot["node-01"] = 1.00
    sort2 = _sort_scenario(
        "sort2",
        durations[1],
        data_bytes,
        node_reduce_u=hot,
        storage_reduce_u=0.50,
    )
    return sort1, sort2


def builtin_scenario(name: str, data_gb: float | None = None) -> SimScenario:
    """Resolve a built-in scenario name (case-insensitive).

    ``data_gb`` rescales the sort comparison scenarios and is rejected for
    the pinned reference workloads.
    """
    key = name.lower()
    if key in ("sort1", "sort2"):
        sort1, sort2 = sort_comparison_scenarios(
            100.0 if data_gb is None else data_gb
        )
        return sort1 if key == "sort1" else sort2
    if data_gb is not None:
        raise ModelError(f"scenario {name!r} does not take a data size override")
    for scenario in paper_scenarios():
        if scenario.name == key:
            return scenario
    raise ModelError(f"unknown built-in scenario {name!r}")
