"""Domain types shared by every other module.

All types are immutable value objects: they validate their invariants at
construction time and are safe to share across threads without coordination.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Collection, Iterable, Mapping

from .errors import (
    CategoryMismatchError,
    DuplicateDeviceError,
    InvalidDeviceError,
    InvalidWindowError,
    UnitMismatchError,
    ValidationError,
    ZeroITEnergyError,
    ZeroITPowerError,
)

#: Tolerance on the sum of per-run weights in a report.
WEIGHT_SUM_TOL = 1e-12
#: Relative tolerance between a report's stored derived fields and the values
#: :func:`_derive_report` derives from its primary fields.
IDENTITY_REL_TOL = 1e-9


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
            raise InvalidDeviceError(
                f"device_id must be a non-empty string, got {self.device_id!r}"
            )
        if not isinstance(self.category, DeviceCategory):
            raise InvalidDeviceError(f"unknown device category: {self.category!r}")


def _check_work_amount(amount: int) -> None:
    """A work counter is an integer, >= 0 and within float range."""
    if isinstance(amount, bool) or not isinstance(amount, int):
        raise ValidationError(f"work amount must be an integer, got {amount!r}")
    if amount < 0:
        raise ValidationError(f"work amount must be >= 0, got {amount}")
    try:
        float(amount)
    except OverflowError:
        raise ValidationError("work amount is beyond float range") from None


def _check_run(
    run_id: str,
    category: ApplicationCategory,
    start: float,
    end: float,
    kind: WorkKind,
    devices: Collection[str],
) -> None:
    """A run has an id, at least one device, a finite window with ``end >
    start`` and the work kind of its category."""
    if not run_id:
        raise ValidationError("run_id must be non-empty")
    if not devices:
        raise ValidationError(f"run {run_id!r}: attributed_devices is empty")
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ValidationError(f"run {run_id!r}: window bounds must be finite")
    if end <= start:
        raise InvalidWindowError(f"run {run_id!r}: end ({end}) must be > start ({start})")
    expected = WORK_KIND_FOR_CATEGORY[category]
    if kind is not expected:
        raise CategoryMismatchError(
            f"run {run_id!r}: category {category.value} requires "
            f"{expected.value} work, got {kind.value}"
        )


@dataclass(frozen=True)
class WorkMeasure:
    """Accumulated work counter of one run (non-negative integer)."""

    kind: WorkKind
    amount: int

    def __post_init__(self):
        _check_work_amount(self.amount)


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
        object.__setattr__(self, "attributed_devices", frozenset(self.attributed_devices))
        _check_run(
            self.run_id, self.category, self.start, self.end, self.work.kind,
            self.attributed_devices,
        )

    @property
    def duration(self) -> float:
        return self.end - self.start


#: The members that a :class:`RunTable`'s one-byte codes stand for.
_CATEGORY_OF_CODE = tuple(ApplicationCategory)
_KIND_OF_CODE = tuple(WorkKind)
_CATEGORY_CODES = {category: code for code, category in enumerate(_CATEGORY_OF_CODE)}
_KIND_CODES = {kind: code for code, kind in enumerate(_KIND_OF_CODE)}


class RunTable(Sequence):
    """Application runs held as columns, one item per run, in input order.

    The columns are ``run_ids``; ``categories`` and ``kinds``, the one-byte
    codes of each run's :class:`ApplicationCategory` and :class:`WorkKind`
    (their members' positions); ``starts`` and ``ends``; ``amounts``, the
    work counters; and ``devices``, each run's sorted device ids as a tuple.
    A parsed table holds its bounds as read-only float64 buffers, and runs
    with the same devices share one tuple.

    It is an immutable sequence of :class:`ApplicationRun`: indexing or
    iterating builds one run per access and keeps none.  It equals a list,
    tuple or table of equal runs.  The constructor takes columns that hold
    valid runs and checks nothing; :meth:`from_runs` builds a table from
    runs.
    """

    __slots__ = ("run_ids", "categories", "starts", "ends", "kinds", "amounts", "devices")

    def __init__(
        self,
        run_ids: Sequence[str],
        categories: bytes,
        starts: Sequence[float],
        ends: Sequence[float],
        kinds: bytes,
        amounts: Sequence[int],
        devices: Sequence[tuple[str, ...]],
    ):
        columns = (run_ids, categories, starts, ends, kinds, amounts, devices)
        for name, column in zip(self.__slots__, columns):
            object.__setattr__(self, name, column)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable RunTable")

    @classmethod
    def from_runs(cls, runs: Iterable[ApplicationRun]) -> RunTable:
        """The table of ``runs``; their bounds keep their own types."""
        runs = tuple(runs)
        return cls(
            tuple(run.run_id for run in runs),
            bytes(_CATEGORY_CODES[run.category] for run in runs),
            tuple(run.start for run in runs),
            tuple(run.end for run in runs),
            bytes(_KIND_CODES[run.work.kind] for run in runs),
            tuple(run.work.amount for run in runs),
            tuple(tuple(sorted(run.attributed_devices)) for run in runs),
        )

    def __len__(self) -> int:
        return len(self.run_ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RunTable(*(getattr(self, name)[index] for name in self.__slots__))
        return ApplicationRun(
            self.run_ids[index],
            _CATEGORY_OF_CODE[self.categories[index]],
            self.starts[index],
            self.ends[index],
            WorkMeasure(_KIND_OF_CODE[self.kinds[index]], self.amounts[index]),
            frozenset(self.devices[index]),
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, (RunTable, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"RunTable({list(self)!r})"

    def __reduce__(self):
        # A parsed table's bounds are memoryviews, which do not pickle.
        return RunTable.from_runs, (tuple(self),)


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


def _fsum(values: Iterable[float], name: str) -> float:
    """``math.fsum(values)``; a sum past float range raises a
    :class:`ValidationError` that names the values as ``name``."""
    try:
        return math.fsum(values)
    except OverflowError:
        raise ValidationError(f"{name} sum past float range") from None


def _power_weighted(it_kws: list[float], values: list[float]) -> tuple[list[float], float]:
    """Each IT power's share of their sum, and the mean of ``values`` under
    those weights.

    A convex combination lies in [min, max] mathematically; the mean is
    clamped there, so the one-ulp rounding spill cannot break that for the
    float too.
    """
    total = _fsum(it_kws, "IT powers")
    weights = [p / total for p in it_kws]
    mean = math.fsum(v * w for v, w in zip(values, weights))
    return weights, min(max(mean, min(values)), max(values))


def _derive_report(
    window: EnergyWindow,
    run_ids: list[str],
    categories: list[ApplicationCategory],
    it_kws: list[float],
    performances: list[PerformanceRate],
) -> tuple[float, tuple[list[float], ...], float | None, float | None]:
    """Every derived field of a report, from its primary fields: the
    window's energies and the rows' run ids, categories, IT powers (kW) and
    performances, a list each.

    Returns the PUE; the rows' facility powers, ApPUEs, AoPUEs and weights,
    a list each; and the weighted ApPUE and aggregated AoPUE (None with no
    rows).  A run's facility power is its IT power scaled by the window PUE
    (facility overhead attributed in proportion to IT power), so AoPUE =
    ApPUE / PUE holds row-wise, and the facility power equals the measured
    one whenever a run spans the whole window.  A run's weight is its share
    of the summed IT power.

    Every row needs an IT power that is finite and > 0, and the performance
    unit of its category; the rows must share one performance unit.
    """
    if window.it_energy == 0:
        raise ZeroITEnergyError("window holds no IT equipment energy")
    pue = window.total_facility_energy / window.it_energy
    if not run_ids:
        return pue, ([], [], [], []), None, None
    magnitudes, labels = [], set()
    for run_id, category, it_kw, performance in zip(run_ids, categories, it_kws, performances):
        if not (math.isfinite(it_kw) and it_kw > 0):
            raise ZeroITPowerError(
                f"run {run_id!r}: it_power_kw must be finite and > 0, got {it_kw!r}"
            )
        if performance.unit is not (expected := RATE_UNIT_FOR_CATEGORY[category]):
            raise CategoryMismatchError(
                f"run {run_id!r}: category {category.value} requires "
                f"{expected.value} performance, got {performance.unit.value}"
            )
        magnitude, label = performance.reported()
        magnitudes.append(magnitude)
        labels.add(label)
    if len(labels) > 1:
        raise UnitMismatchError(f"cannot aggregate across performance units {sorted(labels)!r}")
    facility_kws = [it_kw * pue for it_kw in it_kws]
    appues = [m / it_kw for m, it_kw in zip(magnitudes, it_kws)]
    aopues = [m / facility_kw for m, facility_kw in zip(magnitudes, facility_kws)]
    weights, weighted_appue = _power_weighted(it_kws, appues)
    return pue, (facility_kws, appues, aopues, weights), weighted_appue, weighted_appue / pue


#: A row's derived fields, in the order :func:`_derive_report` returns
#: them, and the rule that derives each.
_ROW_RULES = (
    ("facility_power_kw", "it_power_kw * pue"),
    ("appue", "performance / it_power_kw"),
    ("aopue", "performance / facility_power_kw"),
    ("weight", "it_power_kw / summed it_power_kw"),
)


#: A row's derived fields, as a tuple.
_row_derived = operator.attrgetter(*(name for name, _ in _ROW_RULES))


@dataclass(frozen=True)
class MetricsReport:
    """PUE plus per-run ApPUE/AoPUE rows, weights, and aggregates.

    The primary fields are the window's energies and each row's run id,
    category, IT power and performance; every other field is derived from
    them by one rule, :func:`_derive_report`.  Construction checks that PUE
    is finite and >= 1, that the weights sum to one, that every row's IT
    power is finite and > 0 and its facility power, ApPUE and AoPUE are
    finite, and that every derived field equals the rule's value within
    ``IDENTITY_REL_TOL``.  A violation raises a :class:`ValidationError`
    that names the field, and the run for a row's field.  Rows of mixed
    performance units raise :class:`UnitMismatchError`, and a window
    without IT energy :class:`ZeroITEnergyError`.  A report that
    :func:`~axpue.engine.build_report` builds from the rule's own values is
    not derived again (see :meth:`_derived`).
    """

    window: EnergyWindow
    pue: float
    per_run: tuple[RunMetrics, ...]
    weighted_appue: float | None
    aggregated_aopue: float | None
    provenance: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "per_run", tuple(self.per_run))
        _check_pue(self.pue)
        rows = self.per_run
        pue, columns, weighted_appue, aggregated_aopue = _derive_report(
            self.window,
            [r.run_id for r in rows],
            [r.category for r in rows],
            [r.it_power_kw for r in rows],
            [r.performance for r in rows],
        )
        if not math.isclose(self.pue, pue, rel_tol=IDENTITY_REL_TOL):
            raise ValidationError(f"pue {self.pue!r} != total facility energy / IT energy {pue!r}")
        _check_weight_sum(rows)
        for row, *derived in zip(rows, *columns):
            for (name, rule), expected in zip(_ROW_RULES, derived):
                value = _finite_field(row, name)
                if not math.isclose(value, expected, rel_tol=IDENTITY_REL_TOL):
                    raise ValidationError(
                        f"run {row.run_id!r}: {name} {value!r} != {rule} {expected!r}"
                    )
        for name, value, rule, derived in (
            ("weighted_appue", self.weighted_appue, "IT-power-weighted appue", weighted_appue),
            ("aggregated_aopue", self.aggregated_aopue, "weighted_appue / pue", aggregated_aopue),
        ):
            if value is None or derived is None:
                agrees = value is derived
            else:
                agrees = math.isclose(value, derived, rel_tol=IDENTITY_REL_TOL)
            if not agrees:
                raise ValidationError(f"{name} {value!r} != {rule} {derived!r}")

    @classmethod
    def _derived(
        cls,
        window: EnergyWindow,
        pue: float,
        per_run: tuple[RunMetrics, ...],
        weighted_appue: float | None,
        aggregated_aopue: float | None,
        provenance: Mapping[str, object],
    ) -> MetricsReport:
        """A report whose derived fields are the values :func:`_derive_report`
        gave for its primary fields, held without deriving them again: only
        the checks that the rule does not make are run (PUE finite and >=
        1, the weights' sum, and every row's derived field finite)."""
        _check_pue(pue)
        _check_weight_sum(per_run)
        if not all(map(math.isfinite, itertools.chain.from_iterable(map(_row_derived, per_run)))):
            for row in per_run:
                for name, _ in _ROW_RULES:
                    _finite_field(row, name)
        report = object.__new__(cls)
        for name, value in (
            ("window", window),
            ("pue", pue),
            ("per_run", per_run),
            ("weighted_appue", weighted_appue),
            ("aggregated_aopue", aggregated_aopue),
            ("provenance", provenance),
        ):
            object.__setattr__(report, name, value)
        return report


def _check_pue(pue: float) -> None:
    if not (math.isfinite(pue) and pue >= 1):
        raise ValidationError(f"pue must be finite and >= 1, got {pue!r}")


def _check_weight_sum(rows: tuple[RunMetrics, ...]) -> None:
    if rows:
        total = math.fsum(row.weight for row in rows)
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:  # NaN compares false, so it fails
            raise ValidationError(f"weights sum to {total!r}, expected 1")


def _finite_field(row: RunMetrics, name: str) -> float:
    """The row's field ``name``, which must be finite."""
    # isclose(inf, inf) holds, so an overflow needs its own check.
    if not math.isfinite(value := getattr(row, name)):
        raise ValidationError(f"run {row.run_id!r}: {name} must be finite, got {value!r}")
    return value
