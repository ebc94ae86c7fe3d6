"""Power usage effectiveness metrics.

PUE is total facility energy over IT equipment energy for a window.  ApPUE
is an application's performance rate over its average IT power; AoPUE is the
same rate over average total facility power, which makes AoPUE = ApPUE / PUE
an identity every report must satisfy row-wise.  Multi-application ApPUE is
the weight-averaged per-run value, with weights proportional to per-run IT
power.

Performance is a data processing rate: each application category has one
meaningful counter and rate unit.  Data analysis reports KB/s (decimal, 1 KB
= 1000 bytes), services requests/s, interactive workloads transactions/s, and
HPC flop/s (quoted as GFLOPS in reports).

Powers are carried in kilowatts and rates in reporting units so that ApPUE
and AoPUE are numerically the plain quotients a reader would form from a
results table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    InvalidWindowError,
    NoRunsError,
    SharedDeviceConflictError,
    ShapeMismatchError,
    UnitMismatchError,
    UnknownDeviceError,
    ValidationError,
    ZeroITEnergyError,
    ZeroITPowerError,
)
from .integrate import (
    DEFAULT_MAX_GAP,
    PowerTrace,
    _check_max_gap,
    _check_window,
    _integrate_windows,
    category_energy,
)
from .model import (
    RATE_UNIT_FOR_CATEGORY,
    WEIGHT_SUM_TOL,
    ApplicationRun,
    DeviceCategory,
    EnergyWindow,
    Inventory,
    MetricsReport,
    PerformanceRate,
    RunMetrics,
    WorkKind,
)

#: Allowed relative overshoot of summed per-run IT energy vs. the window's.
ATTRIBUTION_SLACK = 1e-6


@dataclass(frozen=True)
class RunInput:
    """One run plus its attributed IT energy and measured performance."""

    run: ApplicationRun
    it_energy_joules: float
    rate: PerformanceRate

    def __post_init__(self):
        if self.it_energy_joules < 0 or not math.isfinite(self.it_energy_joules):
            raise ValidationError(
                f"run {self.run.run_id!r}: IT energy must be finite and >= 0"
            )

    @property
    def it_power_kw(self) -> float:
        return self.it_energy_joules / self.run.duration / 1000.0


@dataclass(frozen=True)
class MetricInputs:
    """Everything needed to build one report: a window plus per-run inputs."""

    window: EnergyWindow
    runs: tuple[RunInput, ...]

    def __post_init__(self):
        object.__setattr__(self, "runs", tuple(self.runs))
        attributed = math.fsum(r.it_energy_joules for r in self.runs)
        budget = self.window.it_energy * (1.0 + ATTRIBUTION_SLACK)
        if attributed > budget:
            raise ValidationError(
                f"per-run IT energy ({attributed} J) exceeds the window's "
                f"IT energy ({self.window.it_energy} J)"
            )


def compute_performance(run: ApplicationRun) -> PerformanceRate:
    """Rate of work over the run's window: counter / (end - start).

    Byte counters are converted to decimal kilobytes before division so that
    data-analysis rates come out in KB/s.
    """
    amount = float(run.work.amount)
    if run.work.kind is WorkKind.BYTES_PROCESSED:
        amount /= 1000.0
    return PerformanceRate(
        value=amount / run.duration, unit=RATE_UNIT_FOR_CATEGORY[run.category]
    )


def compute_weights(it_powers_kw: Sequence[float]) -> list[float]:
    """Per-run weights: each run's share of the summed IT power."""
    if len(it_powers_kw) == 0:
        raise NoRunsError("cannot weight an empty run list")
    for p in it_powers_kw:
        if p < 0 or not math.isfinite(p):
            raise ValidationError(f"IT power must be finite and >= 0, got {p!r}")
    total = math.fsum(it_powers_kw)
    if total == 0:
        raise ZeroITPowerError("all runs have zero IT power")
    return [p / total for p in it_powers_kw]


def aggregate_appue(
    appues: Sequence[float], weights: Sequence[float], units: Sequence[str]
) -> float:
    """Weighted ApPUE across runs: sum of ApPUE_i * weight_i.

    All runs must share one performance unit; mixing units makes the
    aggregate meaningless.
    """
    if len(appues) != len(weights):
        raise ShapeMismatchError(
            f"{len(appues)} ApPUE values vs {len(weights)} weights"
        )
    if len(units) != len(appues):
        raise ShapeMismatchError(f"{len(appues)} ApPUE values vs {len(units)} units")
    if not appues:
        raise NoRunsError("cannot aggregate an empty run list")
    if len(set(units)) > 1:
        raise UnitMismatchError(
            f"cannot aggregate across performance units {sorted(set(units))!r}"
        )
    for w in weights:
        if w < 0 or not math.isfinite(w):
            raise ValidationError(f"weights must be finite and >= 0, got {w!r}")
    total = math.fsum(weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValidationError(
            f"weights sum to {total!r}, expected 1 +/- {WEIGHT_SUM_TOL}"
        )
    value = math.fsum(a * w for a, w in zip(appues, weights))
    # A convex combination lies in [min, max] mathematically; clamp the
    # one-ulp rounding spill so the invariant holds for the float too.
    return min(max(value, min(appues)), max(appues))


def build_report(
    inputs: MetricInputs, provenance: dict[str, object] | None = None
) -> MetricsReport:
    """Assemble a full report from one window plus per-run inputs.

    Per-run facility power is the run's IT power scaled by the window PUE
    (facility overhead attributed proportionally to IT power), which makes
    the AoPUE = ApPUE / PUE identity exact row-wise and equals the measured
    facility power whenever a run spans the whole window.
    """
    window = inputs.window
    if window.it_energy == 0:
        raise ZeroITEnergyError("window holds no IT equipment energy")
    pue = window.total_facility_energy / window.it_energy
    it_kws = [r.it_power_kw for r in inputs.runs]
    reported = [r.rate.reported() for r in inputs.runs]
    weights = compute_weights(it_kws) if inputs.runs else []
    rows = []
    for run_input, it_kw, (magnitude, _), weight in zip(
        inputs.runs, it_kws, reported, weights
    ):
        if it_kw <= 0:
            raise ZeroITPowerError(f"IT power must be > 0 kW, got {it_kw!r}")
        facility_kw = it_kw * pue
        appue = magnitude / it_kw
        aopue = magnitude / facility_kw
        rows.append(
            RunMetrics(
                run_id=run_input.run.run_id,
                category=run_input.run.category,
                it_power_kw=it_kw,
                facility_power_kw=facility_kw,
                performance=run_input.rate,
                appue=appue,
                aopue=aopue,
                weight=weight,
            )
        )
    weighted_appue = None
    aggregated_aopue = None
    if rows:
        weighted_appue = aggregate_appue(
            [r.appue for r in rows],
            weights,
            units=[unit for _, unit in reported],
        )
        aggregated_aopue = weighted_appue / pue
    base_provenance: dict[str, object] = {
        "integration_method": "trapezoidal",
        "kb_convention": "1 KB = 1000 bytes",
        "appue_units": "performance rate per kW of average IT power",
    }
    if provenance:
        base_provenance.update(provenance)
    return MetricsReport(
        window=window,
        pue=pue,
        per_run=tuple(rows),
        weighted_appue=weighted_appue,
        aggregated_aopue=aggregated_aopue,
        provenance=base_provenance,
    )


def _check_run_devices(runs: Sequence[ApplicationRun], inventory: Inventory) -> None:
    it_ids = inventory.ids_in(DeviceCategory.IT_EQUIPMENT)
    for run in runs:
        if it_ids.issuperset(run.attributed_devices):
            continue
        for device_id in sorted(run.attributed_devices):
            if device_id not in inventory:
                raise UnknownDeviceError(
                    f"run {run.run_id!r} attributes unknown device {device_id!r}"
                )
            if device_id not in it_ids:
                raise ValidationError(
                    f"run {run.run_id!r} attributes non-IT device {device_id!r}"
                )


def _check_shared_devices(
    runs: Sequence[ApplicationRun], devices: Sequence[list[str]]
) -> None:
    """Reject two runs that overlap in time and share a device.

    ``devices[i]`` is ``sorted(runs[i].attributed_devices)``.

    One sweep over the runs sorted by (start, input index) keeps, per device,
    the earlier run that ends last; a run starting before that end overlaps
    it.  With several conflicts the one reported is the first met by the
    sweep: the conflicting run that starts earliest (ties: input order), on
    its smallest conflicting device id, against the earlier run on that
    device that ends last (ties: the first in sweep order).  The two runs are
    named in input order, with every device they share.
    """
    latest: dict[str, tuple[float, int]] = {}  # device -> (end, index)
    for _, j in sorted(zip([run.start for run in runs], range(len(runs)))):
        run = runs[j]
        for device_id in devices[j]:
            end, i = latest.get(device_id, (-math.inf, -1))
            if end > run.start:
                a, b = runs[min(i, j)], runs[max(i, j)]
                shared = a.attributed_devices & b.attributed_devices
                raise SharedDeviceConflictError(
                    f"runs {a.run_id!r} and {b.run_id!r} overlap in time and "
                    f"share device(s) {sorted(shared)!r}"
                )
            if run.end > end:
                latest[device_id] = (run.end, j)


def analyze(
    traces: Sequence[PowerTrace],
    inventory: Inventory,
    runs: Sequence[ApplicationRun],
    window: tuple[float, float] | None = None,
    max_gap: float = DEFAULT_MAX_GAP,
) -> MetricsReport:
    """End-to-end computation: telemetry + runs -> metrics report.

    The report window defaults to the tightest interval covering all runs;
    with no runs an explicit window is required.  Per-run IT energy is the
    summed integral over the run's attributed devices within the run's own
    window.  Overlapping runs must not share devices, and every run must lie
    inside the report window.  ``max_gap`` must be > 0; ``inf`` turns the
    coverage check off.
    """
    _check_max_gap(max_gap)
    _check_run_devices(runs, inventory)
    devices = [sorted(run.attributed_devices) for run in runs]
    _check_shared_devices(runs, devices)
    if window is None:
        if not runs:
            raise InvalidWindowError("no runs given; an explicit window is required")
        window = (min(r.start for r in runs), max(r.end for r in runs))
    start, end = window
    _check_window(start, end)
    for run in runs:
        if run.start < start or run.end > end:
            raise InvalidWindowError(
                f"run {run.run_id!r} [{run.start}, {run.end}] lies outside "
                f"the report window [{start}, {end}]"
            )
    energy_window = category_energy(traces, inventory, start, end, max_gap)
    # category_energy has checked that every inventory device has a trace,
    # and each run lies inside the window it integrated: one kernel call per
    # device covers all of that device's run windows.
    trace_by_device = {t.device_id: t for t in traces}
    runs_by_device: dict[str, list[ApplicationRun]] = {}
    for run in runs:
        for device_id in run.attributed_devices:
            runs_by_device.setdefault(device_id, []).append(run)
    device_ids = sorted(runs_by_device)
    energies = _integrate_windows(
        (
            (
                trace_by_device[device_id],
                [run.start for run in runs_by_device[device_id]],
                [run.end for run in runs_by_device[device_id]],
            )
            for device_id in device_ids
        ),
        max_gap,
    )
    # Each device's energies come back in run order, and are taken so.
    joules_by_device = dict(zip(device_ids, map(iter, energies)))
    run_inputs = [
        RunInput(
            run=run,
            it_energy_joules=math.fsum([next(joules_by_device[d]) for d in run_devices]),
            rate=compute_performance(run),
        )
        for run, run_devices in zip(runs, devices)
    ]
    inputs = MetricInputs(window=energy_window, runs=tuple(run_inputs))
    return build_report(
        inputs,
        provenance={
            "window": [start, end],
            "max_gap_seconds": max_gap,
            "trace_count": len(traces),
            "device_count": len(inventory),
        },
    )
