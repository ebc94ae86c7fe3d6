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

This module turns telemetry and runs into a report's primary fields: the
window's energies and each run's IT power and performance.  Every other
field comes from one rule, ``axpue.model._derive_report``:
:func:`build_report` takes a report's fields from it, and every
:class:`~axpue.model.MetricsReport` is checked against it when constructed,
so :func:`~axpue.io.read_report` rejects a report whose fields disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    InvalidWindowError,
    SharedDeviceConflictError,
    UnknownDeviceError,
    ValidationError,
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
    ApplicationRun,
    DeviceCategory,
    EnergyWindow,
    Inventory,
    MetricsReport,
    PerformanceRate,
    RunMetrics,
    WorkKind,
    _derive_report,
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


def build_report(
    inputs: MetricInputs, provenance: dict[str, object] | None = None
) -> MetricsReport:
    """Assemble a full report from one window plus per-run inputs, with
    every derived field from :func:`~axpue.model._derive_report`."""
    runs = inputs.runs
    run_ids = [r.run.run_id for r in runs]
    categories = [r.run.category for r in runs]
    it_kws = [r.it_power_kw for r in runs]
    rates = [r.rate for r in runs]
    pue, (facility_kws, appues, aopues, weights), weighted_appue, aggregated_aopue = (
        _derive_report(inputs.window, run_ids, categories, it_kws, rates)
    )
    base_provenance: dict[str, object] = {
        "integration_method": "trapezoidal",
        "kb_convention": "1 KB = 1000 bytes",
        "appue_units": "performance rate per kW of average IT power",
    }
    if provenance:
        base_provenance.update(provenance)
    return MetricsReport(
        window=inputs.window,
        pue=pue,
        per_run=tuple(
            map(RunMetrics, run_ids, categories, it_kws, facility_kws, rates, appues, aopues, weights)
        ),
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
