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
:class:`~axpue.model.MetricsReport`, built or read, is checked against it
when constructed, so :func:`~axpue.io.read_report` rejects a report whose
fields disagree.  A stated performance unit must be its run's category's;
it is checked where a :class:`RunInput` or a
:class:`~axpue.model.RunMetrics` is constructed.

Runs stay columns from the parse to the report's rows (a
:class:`~axpue.model.RunTable`, then a :class:`~axpue.model.ReportRows`):
:func:`analyze` checks them and computes each run's energy and performance
a column at a time, and builds no per-run object.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

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
    _integrate_windows,
    category_energy,
)
from .model import (
    _KIND_OF_CODE,
    _UNIT_OF_CODE,
    RATE_UNIT_FOR_CATEGORY,
    ApplicationRun,
    DeviceCategory,
    EnergyWindow,
    Inventory,
    MetricsReport,
    PerformanceRate,
    ReportRows,
    RunTable,
    WorkKind,
    _check_fixed,
    _check_rate,
    _check_window,
    _column,
    _Columns,
    _derive_report,
    _float_column,
)

#: Allowed relative overshoot of summed per-run IT energy vs. the window's.
ATTRIBUTION_SLACK = 1e-6


def _check_it_energy(run_id: str, joules: float) -> None:
    """A run's attributed IT energy is finite and >= 0."""
    if joules < 0 or not math.isfinite(joules):
        raise ValidationError(f"run {run_id!r}: IT energy must be finite and >= 0")


def _it_power_kw(joules: float, start: float, end: float) -> float:
    """Average power in kW of ``joules`` over [start, end]."""
    return joules / (end - start) / 1000.0


@dataclass(frozen=True)
class RunInput:
    """One run plus its attributed IT energy and measured performance, in
    its category's unit."""

    run: ApplicationRun
    it_energy_joules: float
    rate: PerformanceRate

    def __post_init__(self):
        _check_fixed(self.run.run_id, self.run.category, RATE_UNIT_FOR_CATEGORY, self.rate.unit)
        _check_it_energy(self.run.run_id, self.it_energy_joules)

    @property
    def it_power_kw(self) -> float:
        return _it_power_kw(self.it_energy_joules, self.run.start, self.run.end)


class _RunInputs(_Columns):
    """The :class:`RunInput` of each run of a :class:`~axpue.model.RunTable`,
    held as the table plus a column of IT energies and one of rate values
    (see :class:`~axpue.model._Columns`); a rate's unit is its run's
    category's.  :meth:`_of` takes inputs that have checked themselves, and
    :func:`analyze` checks each energy and rate as it goes."""

    __slots__ = ("table", "joules", "rates")

    @classmethod
    def _of(cls, runs: Iterable[RunInput]) -> _RunInputs:
        runs = tuple(runs)
        return cls(
            RunTable.from_runs(r.run for r in runs),
            _column([r.it_energy_joules for r in runs]),
            _column([r.rate.value for r in runs]),
        )

    def _item(self, index: int) -> RunInput:
        return RunInput(
            self.table[index],
            self.joules[index],
            PerformanceRate(self.rates[index], _UNIT_OF_CODE[self.table.categories[index]]),
        )

    def it_power_kws(self) -> list[float]:
        return list(map(_it_power_kw, self.joules, self.table.starts, self.table.ends))


@dataclass(frozen=True)
class MetricInputs:
    """Everything needed to build one report: a window plus per-run inputs.

    ``runs`` may be any iterable of :class:`RunInput`; it is held as a
    sequence that builds them from columns.
    """

    window: EnergyWindow
    runs: Sequence[RunInput]

    def __post_init__(self):
        if not isinstance(self.runs, _RunInputs):
            object.__setattr__(self, "runs", _RunInputs._of(self.runs))
        attributed = math.fsum(self.runs.joules)
        budget = self.window.it_energy * (1.0 + ATTRIBUTION_SLACK)
        if attributed > budget:
            raise ValidationError(
                f"per-run IT energy ({attributed} J) exceeds the window's "
                f"IT energy ({self.window.it_energy} J)"
            )


def _rate_value(kind: WorkKind, amount: int, start: float, end: float) -> float:
    """Rate of ``amount`` work over [start, end]; bytes count as decimal KB."""
    value = float(amount)
    if kind is WorkKind.BYTES_PROCESSED:
        value /= 1000.0
    return value / (end - start)


def compute_performance(run: ApplicationRun) -> PerformanceRate:
    """Rate of work over the run's window: counter / (end - start).

    Byte counters are converted to decimal kilobytes before division so that
    data-analysis rates come out in KB/s.
    """
    return PerformanceRate(
        value=_rate_value(run.work.kind, run.work.amount, run.start, run.end),
        unit=RATE_UNIT_FOR_CATEGORY[run.category],
    )


def build_report(
    inputs: MetricInputs, provenance: dict[str, object] | None = None
) -> MetricsReport:
    """Assemble a full report from one window plus per-run inputs, with
    every derived field from :func:`~axpue.model._derive_report`; the
    report checks them against the rule, as every report does.  Its rows
    are columns that share the run table's ids and category codes; no
    per-run object is built."""
    runs = inputs.runs
    table = runs.table
    it_kws = _float_column(runs.it_power_kws())
    pue, (facility_kws, *derived), weighted_appue, aggregated_aopue = _derive_report(
        inputs.window, table.run_ids, table.categories, it_kws, runs.rates
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
        per_run=ReportRows(
            table.run_ids, table.categories, it_kws, _float_column(facility_kws), runs.rates,
            *map(_float_column, derived),
        ),
        weighted_appue=weighted_appue,
        aggregated_aopue=aggregated_aopue,
        provenance=base_provenance,
    )


def _check_run_devices(table: RunTable, inventory: Inventory) -> None:
    it_ids = inventory.ids_in(DeviceCategory.IT_EQUIPMENT)
    if it_ids.issuperset(itertools.chain.from_iterable(set(table.devices))):
        return
    for run_id, devices in zip(table.run_ids, table.devices):
        for device_id in devices:
            if device_id not in inventory:
                raise UnknownDeviceError(
                    f"run {run_id!r} attributes unknown device {device_id!r}"
                )
            if device_id not in it_ids:
                raise ValidationError(
                    f"run {run_id!r} attributes non-IT device {device_id!r}"
                )


def _check_shared_devices(table: RunTable) -> None:
    """Reject two runs that overlap in time and share a device.

    One sweep over the runs sorted by (start, input index) keeps, per device,
    the earlier run that ends last; a run starting before that end overlaps
    it.  With several conflicts the one reported is the first met by the
    sweep: the conflicting run that starts earliest (ties: input order), on
    its smallest conflicting device id, against the earlier run on that
    device that ends last (ties: the first in sweep order).  The two runs are
    named in input order, with every device they share.
    """
    starts, ends, devices = table.starts, table.ends, table.devices
    latest: dict[str, tuple[float, int]] = {}  # device -> (end, index)
    for j in sorted(range(len(starts)), key=starts.__getitem__):
        start = starts[j]
        for device_id in devices[j]:
            end, i = latest.get(device_id, (-math.inf, -1))
            if end > start:
                a, b = min(i, j), max(i, j)
                shared = sorted(set(devices[a]).intersection(devices[b]))
                raise SharedDeviceConflictError(
                    f"runs {table.run_ids[a]!r} and {table.run_ids[b]!r} overlap in time and "
                    f"share device(s) {shared!r}"
                )
            if ends[j] > end:
                latest[device_id] = (ends[j], j)


def _run_energies(
    traces: Sequence[PowerTrace], table: RunTable, max_gap: float
) -> Iterator[list[float]]:
    """Each run's IT energies: its devices' integrals over its window, in
    its device order.  One kernel call per device covers all of that
    device's run windows, in run order; the caller has checked that each
    window lies inside one that every trace covers."""
    runs_by_device: dict[str, list[int]] = {}
    for j, devices in enumerate(table.devices):
        for device_id in devices:
            runs_by_device.setdefault(device_id, []).append(j)
    device_ids = sorted(runs_by_device)
    starts = np.asarray(table.starts, dtype=np.float64)
    ends = np.asarray(table.ends, dtype=np.float64)
    trace_by_device = {t.device_id: t for t in traces}
    energies = _integrate_windows(
        (
            (trace_by_device[device_id], starts[runs], ends[runs])
            for device_id, runs in zip(device_ids, map(runs_by_device.get, device_ids))
        ),
        max_gap,
    )
    # Each device's energies come back in run order, and are taken so.
    joules_by_device = dict(zip(device_ids, map(iter, energies)))
    return ([next(joules_by_device[d]) for d in devices] for devices in table.devices)


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
    coverage check off.  ``runs`` may be any sequence of runs; a
    :class:`~axpue.model.RunTable`, as :func:`~axpue.io.parse_runs_jsonl`
    returns, is used as it is, and no per-run object is built before the
    report's rows.
    """
    _check_max_gap(max_gap)
    table = runs if isinstance(runs, RunTable) else RunTable.from_runs(runs)
    _check_run_devices(table, inventory)
    _check_shared_devices(table)
    if window is None:
        if not table:
            raise InvalidWindowError("no runs given; an explicit window is required")
        window = (min(table.starts), max(table.ends))
    start, end = window
    _check_window(start, end)
    if table and (min(table.starts) < start or max(table.ends) > end):
        for run_id, run_start, run_end in zip(table.run_ids, table.starts, table.ends):
            if run_start < start or run_end > end:
                raise InvalidWindowError(
                    f"run {run_id!r} [{run_start}, {run_end}] lies outside "
                    f"the report window [{start}, {end}]"
                )
    energy_window = category_energy(traces, inventory, start, end, max_gap)
    # category_energy has checked that every inventory device has a trace,
    # and each run lies inside the window it integrated.  Each run's energy
    # is summed, its rate computed and both checked before the next run's.
    joules, rates = np.empty(len(table)), np.empty(len(table))
    for i, (run_id, code, amount, run_start, run_end, energies) in enumerate(
        zip(
            table.run_ids, table.categories, table.amounts, table.starts, table.ends,
            _run_energies(traces, table, max_gap),
        )
    ):
        joules[i] = run_joules = math.fsum(energies)
        rates[i] = rate = _rate_value(_KIND_OF_CODE[code], amount, run_start, run_end)
        _check_rate(rate)
        _check_it_energy(run_id, run_joules)
    inputs = MetricInputs(
        window=energy_window,
        runs=_RunInputs(table, _float_column(joules), _float_column(rates)),
    )
    return build_report(
        inputs,
        provenance={
            "window": [start, end],
            "max_gap_seconds": max_gap,
            "trace_count": len(traces),
            "device_count": len(inventory),
        },
    )
