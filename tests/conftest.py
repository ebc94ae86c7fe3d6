"""Shared oracles, generators, and pipeline helpers for the test suite."""

from __future__ import annotations

import io
import math
import operator

import numpy as np
import pytest

from axpue import (
    ApplicationCategory,
    ApplicationRun,
    DeviceCategory,
    DeviceRecord,
    DevicePowerModel,
    EnergyWindow,
    FacilityOverheadModel,
    Inventory,
    MetricInputs,
    MetricsReport,
    PowerTrace,
    RunInput,
    SimScenario,
    WorkMeasure,
    analyze,
    compute_performance,
    parse_inventory_json,
    parse_power_csv,
    parse_runs_jsonl,
    simulate,
)
from axpue.errors import (
    CategoryMismatchError,
    InvalidWindowError,
    SchemaError,
    ValidationError,
)
from axpue.io import _load_json, _parse_timestamp
from axpue.model import WORK_KIND_FOR_CATEGORY, WorkKind

# Published reference measurements: IT power (kW), total facility power (kW),
# performance (reporting units), PUE, ApPUE, AoPUE.
PUBLISHED_TABLE = {
    "BigDataBench": (100.412, 147.323, 563.271, 1.467, 5.6096, 3.823),
    "SVM": (103.766, 150.897, 134.854, 1.454, 1.2996, 0.894),
    "Sort": (92.122, 138.481, 1588.128, 1.503, 17.2394, 11.468),
    "Grep": (92.331, 138.636, 24916.998, 1.502, 269.866, 179.730),
    "Linpack": (122.679, 170.685, 50.46, 1.391, 0.411, 0.295),
}


_REFERENCE_CATEGORIES = {category.value: category for category in ApplicationCategory}
_REFERENCE_WORK_KINDS = {kind.value: kind for kind in WorkKind}
_REFERENCE_RUN_KEYS = ("run_id", "category", "start", "end", "work", "devices")
_reference_run_fields = operator.itemgetter(*_REFERENCE_RUN_KEYS)


def _reference_work_measure(kind, amount) -> WorkMeasure:
    """``WorkMeasure(kind, amount)``, with the checks its constructor made
    when every parsed run was one."""
    if isinstance(amount, bool) or not isinstance(amount, int):
        raise ValidationError(f"work amount must be an integer, got {amount!r}")
    if amount < 0:
        raise ValidationError(f"work amount must be >= 0, got {amount}")
    try:
        float(amount)
    except OverflowError:
        raise ValidationError("work amount is beyond float range") from None
    return WorkMeasure(kind, amount)


def _reference_application_run(run_id, category, start, end, work, devices) -> ApplicationRun:
    """``ApplicationRun(...)``, with the checks its constructor made when
    every parsed run was one."""
    devices = frozenset(devices)
    if not run_id:
        raise ValidationError("run_id must be non-empty")
    if not devices:
        raise ValidationError(f"run {run_id!r}: attributed_devices is empty")
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ValidationError(f"run {run_id!r}: window bounds must be finite")
    if end <= start:
        raise InvalidWindowError(f"run {run_id!r}: end ({end}) must be > start ({start})")
    expected = WORK_KIND_FOR_CATEGORY[category]
    if work.kind is not expected:
        raise CategoryMismatchError(
            f"run {run_id!r}: category {category.value} requires "
            f"{expected.value} work, got {work.kind.value}"
        )
    return ApplicationRun(run_id, category, start, end, work, devices)


def _reference_run_from_obj(obj: dict, line: int) -> ApplicationRun:
    try:
        run_id, category, start, end, work, devices = _reference_run_fields(obj)
    except (KeyError, TypeError):
        for key in _REFERENCE_RUN_KEYS:
            if key not in obj:
                raise SchemaError(f"missing key {key!r}", line=line) from None
        raise
    if type(run_id) is not str:
        raise SchemaError(f"run_id must be a string, got {run_id!r}", line=line)
    if type(category) is not str or category not in _REFERENCE_CATEGORIES:
        raise SchemaError(f"unknown category {category!r}", line=line)
    category = _REFERENCE_CATEGORIES[category]
    if type(work) is not dict or "type" not in work or "value" not in work:
        raise SchemaError("work must be an object with 'type' and 'value'", line=line)
    kind, value = work["type"], work["value"]
    if type(kind) is not str or kind not in _REFERENCE_WORK_KINDS:
        raise SchemaError(f"unknown work type {kind!r}", line=line)
    kind = _REFERENCE_WORK_KINDS[kind]
    if type(value) is float and value.is_integer():
        value = int(value)
    elif type(value) is not int:
        raise SchemaError(f"work value must be an integer, got {value!r}", line=line)
    if type(devices) is not list or not {str}.issuperset(map(type, devices)):
        raise SchemaError("devices must be a list of device ids", line=line)
    if type(start) is bool or type(end) is bool:
        raise SchemaError("bad start/end timestamp", line=line)
    try:
        start = float(start) if type(start) in (int, float) else _parse_timestamp(start)
        end = float(end) if type(end) in (int, float) else _parse_timestamp(end)
    except (ValueError, OverflowError, TypeError):
        raise SchemaError("bad start/end timestamp", line=line) from None
    if end <= start:
        raise InvalidWindowError(
            f"run {run_id!r}: end ({end}) must be > start ({start})", line=line
        )
    try:
        work = _reference_work_measure(kind, value)
        return _reference_application_run(run_id, category, start, end, work, devices)
    except ValidationError as exc:
        raise SchemaError(str(exc), line=line) from exc


def reference_parse_runs_jsonl(lines) -> list[ApplicationRun]:
    """The runs parse that built one :class:`ApplicationRun` per line, each
    checked by its own constructor, kept only as the reference that
    ``parse_runs_jsonl`` is compared against: on every input both must
    give equal runs, or raise the same error type with the same message
    and line."""
    runs = []
    run_ids = set()
    for line_no, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        obj = _load_json(raw, "invalid JSON", line=line_no)
        if not isinstance(obj, dict):
            raise SchemaError("each line must be a JSON object", line=line_no)
        run = _reference_run_from_obj(obj, line_no)
        if run.run_id in run_ids:
            raise SchemaError(f"duplicate run_id {run.run_id!r}", line=line_no)
        run_ids.add(run.run_id)
        runs.append(run)
    return runs


def riemann_energy(trace: PowerTrace, start: float, end: float, steps: int = 10**6) -> float:
    """Brute-force midpoint Riemann sum over the trace's interpolated power.

    Independent oracle: it never touches the trapezoid kernel, only
    ``np.interp`` sampling of the piecewise-linear power signal (with the
    same constant extension beyond the first/last sample).
    """
    h = (end - start) / steps
    mids = start + (np.arange(steps, dtype=np.float64) + 0.5) * h
    return float(np.interp(mids, trace.times, trace.watts).sum() * h)


def random_trace(
    rng: np.random.Generator,
    device_id: str = "dev",
    n_min: int = 4,
    n_max: int = 60,
    t0: float = 0.0,
    dt_max: float = 50.0,
    w_min: float = 10.0,
    w_max: float = 1000.0,
) -> PowerTrace:
    """Random piecewise-linear power trace with strictly increasing times."""
    n = int(rng.integers(n_min, n_max + 1))
    dts = rng.uniform(0.5, dt_max, size=n - 1)
    times = t0 + np.concatenate(([0.0], np.cumsum(dts)))
    watts = rng.uniform(w_min, w_max, size=n)
    return PowerTrace(device_id, times, watts)


def interior_window(rng: np.random.Generator, trace: PowerTrace) -> tuple[float, float]:
    """A random window strictly inside the trace's sampled span."""
    lo, hi = float(trace.times[0]), float(trace.times[-1])
    a = rng.uniform(lo, lo + 0.4 * (hi - lo))
    b = rng.uniform(hi - 0.4 * (hi - lo), hi)
    return a, b


def run_pipeline(scenario: SimScenario, max_gap: float = 60.0) -> MetricsReport:
    """simulate -> parse -> analyze, exactly as the CLI wires it."""
    out = simulate(scenario)
    traces = parse_power_csv(io.BytesIO(out.power_csv))
    runs = parse_runs_jsonl(io.StringIO(out.runs_jsonl.decode("utf-8")))
    inventory = Inventory(parse_inventory_json(out.inventory_json.decode("utf-8")))
    return analyze(traces, inventory, runs, max_gap=max_gap)


def random_scenario(rng: np.random.Generator, name: str = "random") -> SimScenario:
    """Random valid scenario: IT devices with on-grid profiles plus overhead."""
    period = float(rng.choice([10.0, 20.0, 30.0, 60.0]))
    n_intervals = int(rng.integers(30, 200))
    duration = period * n_intervals
    n_devices = int(rng.integers(1, 4))
    devices = []
    profiles = {}
    for i in range(n_devices):
        device_id = f"it-{i:02d}"
        kind = rng.choice(["server", "storage", "fixed"])
        if kind == "fixed":
            model = DevicePowerModel.fixed(float(rng.uniform(50.0, 5000.0)))
        else:
            model = DevicePowerModel.server() if kind == "server" else DevicePowerModel.storage()
            n_breaks = int(rng.integers(2, 6))
            idxs = np.sort(rng.choice(np.arange(1, n_intervals), size=n_breaks - 1, replace=False))
            bp_t = [0.0] + [float(j * period) for j in idxs]
            bp_u = [float(u) for u in rng.uniform(0.0, 1.0, size=n_breaks)]
            profiles[device_id] = tuple(zip(bp_t, bp_u))
        devices.append(
            (DeviceRecord(device_id, DeviceCategory.IT_EQUIPMENT, "synthetic"), model)
        )
    it_ids = frozenset(d.device_id for d, _ in devices)
    n_runs = int(rng.integers(1, 3))
    # One slot per run keeps windows disjoint: every run attributes all
    # IT devices, so overlap would be a shared-device conflict.  One
    # category per scenario keeps the performance units aggregatable.
    slot = duration / n_runs
    category = ApplicationCategory(rng.choice([c.value for c in ApplicationCategory]))
    runs = []
    for i in range(n_runs):
        start = i * slot + float(rng.uniform(0.0, 0.3 * slot))
        end = (i + 1) * slot - float(rng.uniform(0.0, 0.3 * slot))
        runs.append(
            ApplicationRun(
                run_id=f"{name}-run-{i}",
                category=category,
                start=start,
                end=end,
                work=WorkMeasure(WORK_KIND_FOR_CATEGORY[category], int(rng.integers(1, 10**12))),
                attributed_devices=it_ids,
            )
        )
    overhead = FacilityOverheadModel(
        fixed_watts=float(rng.uniform(0.0, 3000.0)),
        cooling_coefficient=float(rng.uniform(0.0, 1.0)),
        transmission_loss_fraction=float(rng.uniform(0.0, 0.3)),
    )
    return SimScenario(
        name=name,
        duration=duration,
        sample_period=period,
        devices=tuple(devices),
        utilization_profiles=profiles,
        runs=tuple(runs),
        overhead=overhead,
    )


def random_metric_inputs(rng: np.random.Generator) -> MetricInputs:
    """Random valid inputs for report building: one window plus 1-5 runs."""
    start = float(rng.uniform(0.0, 1e6))
    duration = float(rng.uniform(100.0, 1e5))
    end = start + duration
    it_energy = float(rng.uniform(1e4, 1e10))
    window = EnergyWindow(
        start=start,
        end=end,
        energy_by_category={
            DeviceCategory.IT_EQUIPMENT: it_energy,
            DeviceCategory.COOLING: float(rng.uniform(0.0, it_energy)),
            DeviceCategory.POWER_TRANSMISSION: float(rng.uniform(0.0, 0.2 * it_energy)),
            DeviceCategory.OTHER: float(rng.uniform(0.0, 0.1 * it_energy)),
        },
    )
    n_runs = int(rng.integers(1, 6))
    category = ApplicationCategory(rng.choice([c.value for c in ApplicationCategory]))
    shares = rng.dirichlet(np.ones(n_runs)) * float(rng.uniform(0.3, 0.999))
    run_inputs = []
    for i, share in enumerate(shares):
        run_start = start + float(rng.uniform(0.0, 0.5 * duration))
        run_end = run_start + float(rng.uniform(1.0, 0.5 * duration))
        run = ApplicationRun(
            run_id=f"run-{i}",
            category=category,
            start=run_start,
            end=run_end,
            work=WorkMeasure(WORK_KIND_FOR_CATEGORY[category], int(rng.integers(1, 10**13))),
            attributed_devices=frozenset({"it-00"}),
        )
        run_inputs.append(
            RunInput(
                run=run,
                it_energy_joules=max(float(share) * it_energy, 1e-3),
                rate=compute_performance(run),
            )
        )
    return MetricInputs(window=window, runs=tuple(run_inputs))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)
