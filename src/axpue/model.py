"""Domain types shared by every other module.

All types are immutable value objects: they validate their invariants at
construction time and are safe to share across threads without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import (
    CategoryMismatchError,
    DuplicateDeviceError,
    InvalidDeviceError,
    InvalidWindowError,
    ValidationError,
)

#: Tolerance on the sum of per-run weights in a report.
WEIGHT_SUM_TOL = 1e-12
#: Relative tolerance on a report's PUE, facility power and AoPUE identities.
IDENTITY_REL_TOL = 1e-9


def verify_identity(appue: float, pue: float, aopue: float) -> bool:
    """Check AoPUE = ApPUE / PUE within the report tolerance (pue must be > 0)."""
    if pue <= 0:
        return False
    return abs(aopue - appue / pue) <= IDENTITY_REL_TOL * max(1.0, abs(aopue))


class DeviceCategory(str, Enum):
    """Facility category of a metered device.

    The four categories are exhaustive and disjoint; IT equipment is itself a
    facility component, so total facility energy includes IT energy.
    """

    POWER_TRANSMISSION = "power_transmission"
    COOLING = "cooling"
    IT_EQUIPMENT = "it_equipment"
    OTHER = "other"


class ApplicationCategory(str, Enum):
    """Workload class; determines which performance counter is meaningful."""

    SERVICE = "service"
    DATA_ANALYSIS = "data_analysis"
    INTERACTIVE_REALTIME = "interactive_realtime"
    HIGH_PERFORMANCE_COMPUTING = "hpc"


class WorkKind(str, Enum):
    """Kind of accumulated work counter carried by a run."""

    BYTES_PROCESSED = "bytes_processed"
    REQUESTS_ANSWERED = "requests_answered"
    TRANSACTIONS_COMPLETED = "transactions_completed"
    FLOATING_POINT_OPS = "floating_point_ops"


class RateUnit(str, Enum):
    """Unit tag of a performance rate; uniquely determined by the category."""

    KB_PER_SECOND = "kb_per_second"
    REQUESTS_PER_SECOND = "requests_per_second"
    TRANSACTIONS_PER_SECOND = "transactions_per_second"
    FLOPS_PER_SECOND = "flops_per_second"


WORK_KIND_FOR_CATEGORY: Mapping[ApplicationCategory, WorkKind] = MappingProxyType(
    {
        ApplicationCategory.SERVICE: WorkKind.REQUESTS_ANSWERED,
        ApplicationCategory.DATA_ANALYSIS: WorkKind.BYTES_PROCESSED,
        ApplicationCategory.INTERACTIVE_REALTIME: WorkKind.TRANSACTIONS_COMPLETED,
        ApplicationCategory.HIGH_PERFORMANCE_COMPUTING: WorkKind.FLOATING_POINT_OPS,
    }
)

RATE_UNIT_FOR_CATEGORY: Mapping[ApplicationCategory, RateUnit] = MappingProxyType(
    {
        ApplicationCategory.SERVICE: RateUnit.REQUESTS_PER_SECOND,
        ApplicationCategory.DATA_ANALYSIS: RateUnit.KB_PER_SECOND,
        ApplicationCategory.INTERACTIVE_REALTIME: RateUnit.TRANSACTIONS_PER_SECOND,
        ApplicationCategory.HIGH_PERFORMANCE_COMPUTING: RateUnit.FLOPS_PER_SECOND,
    }
)

#: Report labels of the units that :meth:`PerformanceRate.reported` keeps as is.
_REPORTED_LABELS: Mapping[RateUnit, str] = MappingProxyType(
    {
        RateUnit.KB_PER_SECOND: "KB/s",
        RateUnit.REQUESTS_PER_SECOND: "requests/s",
        RateUnit.TRANSACTIONS_PER_SECOND: "transactions/s",
    }
)


@dataclass(frozen=True)
class DeviceRecord:
    """Identity and facility category of one metered device."""

    device_id: str
    category: DeviceCategory
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.device_id, str) or not self.device_id:
            raise InvalidDeviceError("device_id must be a non-empty string")
        if not isinstance(self.category, DeviceCategory):
            raise InvalidDeviceError(f"unknown device category: {self.category!r}")


@dataclass(frozen=True)
class WorkMeasure:
    """Accumulated work counter of one run (non-negative integer)."""

    kind: WorkKind
    amount: int

    def __post_init__(self):
        if isinstance(self.amount, bool) or not isinstance(self.amount, int):
            raise ValidationError(f"work amount must be an integer, got {self.amount!r}")
        if self.amount < 0:
            raise ValidationError(f"work amount must be >= 0, got {self.amount}")
        try:
            float(self.amount)
        except OverflowError:
            raise ValidationError("work amount is beyond float range") from None


@dataclass(frozen=True)
class ApplicationRun:
    """One application execution with its time window and work counter.

    ``attributed_devices`` names the IT devices whose power is charged to this
    run; membership against a concrete inventory is checked at analysis time.
    """

    run_id: str
    category: ApplicationCategory
    start: float
    end: float
    work: WorkMeasure
    attributed_devices: frozenset[str]

    def __post_init__(self):
        if not self.run_id:
            raise ValidationError("run_id must be non-empty")
        object.__setattr__(self, "attributed_devices", frozenset(self.attributed_devices))
        if not self.attributed_devices:
            raise ValidationError(f"run {self.run_id!r}: attributed_devices is empty")
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValidationError(f"run {self.run_id!r}: window bounds must be finite")
        if self.end <= self.start:
            raise InvalidWindowError(
                f"run {self.run_id!r}: end ({self.end}) must be > start ({self.start})"
            )
        expected = WORK_KIND_FOR_CATEGORY[self.category]
        if self.work.kind is not expected:
            raise CategoryMismatchError(
                f"run {self.run_id!r}: category {self.category.value} requires "
                f"{expected.value} work, got {self.work.kind.value}"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class PerformanceRate:
    """A work rate plus its unit tag.

    ``value`` is the raw rate in the tagged unit (KB/s, requests/s,
    transactions/s, or flop/s).  Reports quote flop rates in GFLOPS, so
    :meth:`reported` is what ApPUE/AoPUE quotients and human-facing output
    use; for all other units it is the raw value unchanged.
    """

    value: float
    unit: RateUnit

    def __post_init__(self):
        if not math.isfinite(self.value) or self.value < 0:
            raise ValidationError(f"rate must be finite and >= 0, got {self.value!r}")

    def reported(self) -> tuple[float, str]:
        """Magnitude and label in reporting units."""
        if self.unit is RateUnit.FLOPS_PER_SECOND:
            return self.value / 1e9, "GFLOPS"
        return self.value, _REPORTED_LABELS[self.unit]


@dataclass(frozen=True)
class EnergyWindow:
    """Integrated energy in joules per facility category over [start, end].

    Total facility energy is always the sum over the four categories (IT
    included), never stored independently, which forces PUE >= 1 downstream.
    Both bounds are finite, and ``end > start``.
    """

    start: float
    end: float
    energy_by_category: Mapping[DeviceCategory, float]

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise InvalidWindowError(
                f"window start ({self.start}) and end ({self.end}) must be finite"
            )
        if self.end <= self.start:
            raise InvalidWindowError(
                f"window end ({self.end}) must be > start ({self.start})"
            )
        energies = {}
        for cat in DeviceCategory:
            joules = float(self.energy_by_category.get(cat, 0.0))
            if not math.isfinite(joules) or joules < 0:
                raise ValidationError(
                    f"{cat.value} energy must be finite and >= 0 J, got {joules!r}"
                )
            energies[cat] = joules
        unknown = set(self.energy_by_category) - set(DeviceCategory)
        if unknown:
            raise ValidationError(f"unknown energy categories: {sorted(unknown)!r}")
        object.__setattr__(self, "energy_by_category", MappingProxyType(energies))

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def it_energy(self) -> float:
        return self.energy_by_category[DeviceCategory.IT_EQUIPMENT]

    @property
    def total_facility_energy(self) -> float:
        return math.fsum(self.energy_by_category.values())


class Inventory:
    """Validated device collection with unique ids, indexed by category."""

    def __init__(self, devices: Iterable[DeviceRecord]):
        self.devices: tuple[DeviceRecord, ...] = tuple(devices)
        by_id: dict[str, DeviceRecord] = {}
        for dev in self.devices:
            if dev.device_id in by_id:
                raise DuplicateDeviceError(f"duplicate device_id {dev.device_id!r}")
            by_id[dev.device_id] = dev
        self._by_id = by_id

    def __len__(self) -> int:
        return len(self.devices)

    def __contains__(self, device_id: str) -> bool:
        return device_id in self._by_id

    def __getitem__(self, device_id: str) -> DeviceRecord:
        return self._by_id[device_id]

    def category_of(self, device_id: str) -> DeviceCategory:
        return self._by_id[device_id].category

    def ids_in(self, category: DeviceCategory) -> frozenset[str]:
        return frozenset(
            d.device_id for d in self.devices if d.category is category
        )


@dataclass(frozen=True)
class RunMetrics:
    """Per-run row of a metrics report."""

    run_id: str
    category: ApplicationCategory
    it_power_kw: float
    facility_power_kw: float
    performance: PerformanceRate
    appue: float
    aopue: float
    weight: float


@dataclass(frozen=True)
class MetricsReport:
    """PUE plus per-run ApPUE/AoPUE rows, weights, and aggregates.

    Construction re-checks the report-level invariants: PUE >= 1 and equals
    the window's total facility energy over its IT energy, weights sum to
    one, and every row has a finite IT power above zero and satisfies
    facility power = IT power * PUE and AoPUE = ApPUE / PUE.  The
    equalities hold within ``IDENTITY_REL_TOL``.
    """

    window: EnergyWindow
    pue: float
    per_run: tuple[RunMetrics, ...]
    weighted_appue: float | None
    aggregated_aopue: float | None
    provenance: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "per_run", tuple(self.per_run))
        if not (math.isfinite(self.pue) and self.pue >= 1):
            raise ValidationError(f"pue must be finite and >= 1, got {self.pue!r}")
        it_energy = self.window.it_energy
        measured = self.window.total_facility_energy / it_energy if it_energy else math.inf
        if not math.isclose(self.pue, measured, rel_tol=IDENTITY_REL_TOL):
            raise ValidationError(
                f"pue {self.pue!r} != total facility energy / IT energy {measured!r}"
            )
        if self.per_run:
            total = math.fsum(row.weight for row in self.per_run)
            if not abs(total - 1.0) <= WEIGHT_SUM_TOL:  # NaN compares false, so it fails
                raise ValidationError(f"weights sum to {total!r}, expected 1")
        for row in self.per_run:
            if not (math.isfinite(row.it_power_kw) and row.it_power_kw > 0):
                raise ValidationError(
                    f"run {row.run_id!r}: it_power_kw must be finite and > 0, "
                    f"got {row.it_power_kw!r}"
                )
            facility_kw = row.it_power_kw * self.pue
            if not math.isclose(row.facility_power_kw, facility_kw, rel_tol=IDENTITY_REL_TOL):
                raise ValidationError(
                    f"run {row.run_id!r}: facility_power_kw {row.facility_power_kw!r} != "
                    f"it_power_kw * pue {facility_kw!r}"
                )
            if not verify_identity(row.appue, self.pue, row.aopue):
                raise ValidationError(
                    f"run {row.run_id!r}: aopue {row.aopue!r} != "
                    f"appue/pue {row.appue / self.pue!r}"
                )
