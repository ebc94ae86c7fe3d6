"""Domain types shared by every other module.

All types are immutable value objects: they validate their invariants at
construction time and are safe to share across threads without coordination.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Collection, Iterable, Mapping

import numpy as np

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

#: The label of each unit in reports, which quote flop rates in GFLOPS.
_REPORTED_LABELS: Mapping[RateUnit, str] = MappingProxyType(
    {
        RateUnit.KB_PER_SECOND: "KB/s",
        RateUnit.REQUESTS_PER_SECOND: "requests/s",
        RateUnit.TRANSACTIONS_PER_SECOND: "transactions/s",
        RateUnit.FLOPS_PER_SECOND: "GFLOPS",
    }
)


def _reported(unit: RateUnit, value):
    """The magnitude of a rate of ``value`` (a float or an array of them) in
    ``unit``, in reporting units, and its label."""
    if unit is RateUnit.FLOPS_PER_SECOND:
        value = value / 1e9
    return value, _REPORTED_LABELS[unit]


def _check_rate(value: float) -> None:
    """A rate is finite and >= 0."""
    if not math.isfinite(value) or value < 0:
        raise ValidationError(f"rate must be finite and >= 0, got {value!r}")


def _check_fixed(run_id: str, category: ApplicationCategory, fixed: Mapping, stated) -> None:
    """A run's ``stated`` work kind or performance unit is the one that
    ``fixed`` (:data:`WORK_KIND_FOR_CATEGORY` or :data:`RATE_UNIT_FOR_CATEGORY`)
    gives its category."""
    expected = fixed[category]
    if stated is not expected:
        what = "work" if isinstance(expected, WorkKind) else "performance"
        raise CategoryMismatchError(
            f"run {run_id!r}: category {category.value} requires "
            f"{expected.value} {what}, got {stated.value}"
        )


def _check_window(start: float, end: float) -> None:
    """A window's bounds are finite, and ``end > start``."""
    if not (math.isfinite(start) and math.isfinite(end)):
        raise InvalidWindowError(f"window start ({start}) and end ({end}) must be finite")
    if end <= start:
        raise InvalidWindowError(f"window end ({end}) must be > start ({start})")


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
    """A run has an id, a non-empty string, at least one device, a finite
    window with ``end > start`` and the work kind of its category."""
    if not isinstance(run_id, str):
        raise ValidationError(f"run_id must be a string, got {run_id!r}")
    if not run_id:
        raise ValidationError("run_id must be non-empty")
    if not devices:
        raise ValidationError(f"run {run_id!r}: attributed_devices is empty")
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ValidationError(f"run {run_id!r}: window bounds must be finite")
    if end <= start:
        raise InvalidWindowError(f"run {run_id!r}: end ({end}) must be > start ({start})")
    _check_fixed(run_id, category, WORK_KIND_FOR_CATEGORY, kind)


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


#: The categories that the one-byte codes of a :class:`RunTable` or
#: :class:`ReportRows` stand for, and the work kind and rate unit of each.
_CATEGORY_OF_CODE = tuple(ApplicationCategory)
_CATEGORY_CODES = {category: code for code, category in enumerate(_CATEGORY_OF_CODE)}
_KIND_OF_CODE = tuple(WORK_KIND_FOR_CATEGORY[category] for category in _CATEGORY_OF_CODE)
_UNIT_OF_CODE = tuple(RATE_UNIT_FOR_CATEGORY[category] for category in _CATEGORY_OF_CODE)


def _float_column(values) -> memoryview:
    """``values``, floats, as a read-only float64 buffer, whose items are
    ``float``."""
    return memoryview(np.asarray(values, dtype=np.float64)).toreadonly()


def _column(values: Sequence) -> Sequence:
    """``values`` as a column: a read-only float64 buffer when every one is
    a ``float`` (no subclass), else a tuple, so that each keeps its type."""
    if all(type(value) is float for value in values):
        return _float_column(values)
    return tuple(values)


class _Columns(Sequence):
    """An immutable sequence held as columns, one per slot, in item order.

    Indexing or iterating builds one item per access (:meth:`_item`) and
    keeps none.  It equals a list, tuple or table of its own class that
    holds equal items, and it pickles and copies as its items (:attr:`_of`
    builds a table from them).  The constructor takes the columns, in slot
    order, and checks nothing.
    """

    __slots__ = ()

    def __init__(self, *columns):
        for name, column in zip(self.__slots__, columns, strict=True):
            object.__setattr__(self, name, column)

    def __setattr__(self, name, value):
        raise AttributeError(
            f"cannot assign to field {name!r} of an immutable {type(self).__name__}"
        )

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return type(self)(*(getattr(self, name)[index] for name in self.__slots__))
        return self._item(index)

    def __iter__(self):
        return map(self._item, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, (type(self), list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"

    def __reduce__(self):
        # A buffer column does not pickle.
        return self._of, (tuple(self),)


class RunTable(_Columns):
    """Application runs held as columns, one item per run, in input order.

    The columns are ``run_ids``; ``categories``, the one-byte codes of each
    run's :class:`ApplicationCategory` (its member's position), which fix
    its :class:`WorkKind`; ``starts`` and ``ends``; ``amounts``, the work
    counters; and ``devices``, each run's sorted device ids as a tuple.
    A parsed table holds its bounds as read-only float64 buffers, and runs
    with the same devices share one tuple.

    It is an immutable sequence of :class:`ApplicationRun` (see
    :class:`_Columns`), equal to a list or tuple of equal runs;
    :meth:`from_runs` builds a table from runs.
    """

    __slots__ = ("run_ids", "categories", "starts", "ends", "amounts", "devices")

    @classmethod
    def from_runs(cls, runs: Iterable[ApplicationRun]) -> RunTable:
        """The table of ``runs``; their bounds keep their own types."""
        runs = tuple(runs)
        return cls(
            tuple(run.run_id for run in runs),
            bytes(_CATEGORY_CODES[run.category] for run in runs),
            tuple(run.start for run in runs),
            tuple(run.end for run in runs),
            tuple(run.work.amount for run in runs),
            tuple(tuple(sorted(run.attributed_devices)) for run in runs),
        )

    _of = from_runs

    def _item(self, index: int) -> ApplicationRun:
        code = self.categories[index]
        return ApplicationRun(
            self.run_ids[index],
            _CATEGORY_OF_CODE[code],
            self.starts[index],
            self.ends[index],
            WorkMeasure(_KIND_OF_CODE[code], self.amounts[index]),
            frozenset(self.devices[index]),
        )


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
        _check_rate(self.value)
        if not isinstance(self.unit, RateUnit):
            raise ValidationError(f"performance unit must be a RateUnit, got {self.unit!r}")

    def reported(self) -> tuple[float, str]:
        """Magnitude and label in reporting units."""
        return _reported(self.unit, self.value)


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
        _check_window(self.start, self.end)
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

    def __reduce__(self):
        # A mapping proxy does not pickle.
        return EnergyWindow, (self.start, self.end, dict(self.energy_by_category))

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
    """Per-run row of a metrics report; its performance is in its
    category's unit."""

    run_id: str
    category: ApplicationCategory
    it_power_kw: float
    facility_power_kw: float
    performance: PerformanceRate
    appue: float
    aopue: float
    weight: float

    def __post_init__(self):
        _check_fixed(self.run_id, self.category, RATE_UNIT_FOR_CATEGORY, self.performance.unit)


class ReportRows(_Columns):
    """A report's rows held as columns, one item per run, in report order.

    The columns are ``run_ids``; ``categories``, the one-byte codes of each
    run's :class:`ApplicationCategory`; and ``it_power_kws``,
    ``facility_power_kws``, ``performances`` (each rate's value, in its
    category's unit), ``appues``, ``aopues`` and ``weights``.  A column of
    floats is a read-only float64 buffer, and any other a tuple, so that
    each value keeps its type.  The rows that
    :func:`~axpue.engine.build_report` builds share the run table's ids
    and category codes.

    It is an immutable sequence of :class:`RunMetrics` (see
    :class:`_Columns`), equal to a list or tuple of equal rows;
    :meth:`from_rows` builds one from rows.
    """

    __slots__ = (
        "run_ids", "categories", "it_power_kws", "facility_power_kws", "performances", "appues",
        "aopues", "weights",
    )

    @classmethod
    def from_rows(cls, rows: Iterable[RunMetrics]) -> ReportRows:
        """The columns of ``rows``; a rate's unit is not kept, as its
        category gives it."""
        rows = tuple(rows)
        return cls(
            tuple(row.run_id for row in rows),
            bytes(_CATEGORY_CODES[row.category] for row in rows),
            *(
                _column(list(map(operator.attrgetter(name), rows)))
                for name in (
                    "it_power_kw", "facility_power_kw", "performance.value", "appue", "aopue",
                    "weight",
                )
            ),
        )

    _of = from_rows

    def _item(self, index: int) -> RunMetrics:
        code = self.categories[index]
        return RunMetrics(
            self.run_ids[index],
            _CATEGORY_OF_CODE[code],
            self.it_power_kws[index],
            self.facility_power_kws[index],
            PerformanceRate(self.performances[index], _UNIT_OF_CODE[code]),
            self.appues[index],
            self.aopues[index],
            self.weights[index],
        )


def _fsum(values: Iterable[float], name: str) -> float:
    """``math.fsum(values)``; a sum past float range raises a
    :class:`ValidationError` that names the values as ``name``."""
    try:
        return math.fsum(values)
    except OverflowError:
        raise ValidationError(f"{name} sum past float range") from None


def _power_weighted(it_kws: Sequence[float], values: Sequence[float]) -> tuple[np.ndarray, float]:
    """Each IT power's share of their sum, and the mean of ``values`` under
    those weights.

    A convex combination lies in [min, max] mathematically; the mean is
    clamped there, so the one-ulp rounding spill cannot break that for the
    float too.
    """
    it_kws = np.asarray(it_kws, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    total = _fsum(it_kws, "IT powers")
    with np.errstate(over="ignore", invalid="ignore"):
        weights = it_kws / total
        mean = math.fsum(values * weights)
    return weights, float(min(max(mean, values.min()), values.max()))


def _derive_report(
    window: EnergyWindow,
    run_ids: Sequence[str],
    categories: bytes,
    it_kws: Sequence[float],
    performances: Sequence[float],
) -> tuple[float, tuple[np.ndarray, ...], float | None, float | None]:
    """Every derived field of a report, from its primary fields: the
    window's energies and the rows' columns of run ids, category codes, IT
    powers (kW) and performance values.

    Returns the PUE; the rows' facility powers, ApPUEs, AoPUEs and weights,
    a float64 array each; and the weighted ApPUE and aggregated AoPUE (None
    with no rows).  A run's facility power is its IT power scaled by the
    window PUE (facility overhead attributed in proportion to IT power), so
    AoPUE = ApPUE / PUE holds row-wise, and the facility power equals the
    measured one whenever a run spans the whole window.  A run's weight is
    its share of the summed IT power.  Elementwise float64 ``*`` and ``/``
    give the bits of the same expressions on Python floats.

    Every row needs an IT power that is finite and > 0, and a performance
    that is finite and >= 0; the first row that breaks either raises.  The
    rows must share one performance unit.
    """
    if window.it_energy == 0:
        raise ZeroITEnergyError("window holds no IT equipment energy")
    pue = window.total_facility_energy / window.it_energy
    if not run_ids:
        empty = np.empty(0)
        return pue, (empty, empty, empty, empty), None, None
    powers = np.asarray(it_kws, dtype=np.float64)
    bad = ~(np.isfinite(powers) & (powers > 0))
    if bad.any():
        i = int(bad.argmax())
        raise ZeroITPowerError(
            f"run {run_ids[i]!r}: it_power_kw must be finite and > 0, got {it_kws[i]!r}"
        )
    rates = np.asarray(performances, dtype=np.float64)
    bad = ~(np.isfinite(rates) & (rates >= 0))
    if bad.any():
        _check_rate(performances[int(bad.argmax())])
    units_present = {_UNIT_OF_CODE[code] for code in set(categories)}
    if len(units_present) > 1:
        labels = sorted(_REPORTED_LABELS[unit] for unit in units_present)
        raise UnitMismatchError(f"cannot aggregate across performance units {labels!r}")
    magnitudes, _ = _reported(units_present.pop(), rates)
    with np.errstate(over="ignore"):
        facility_kws = powers * pue
        appues = magnitudes / powers
        aopues = magnitudes / facility_kws
    weights, weighted_appue = _power_weighted(powers, appues)
    return pue, (facility_kws, appues, aopues, weights), weighted_appue, weighted_appue / pue


#: A row's derived fields, in the order :func:`_derive_report` returns
#: them: the column, the field and the rule that derives it.
_ROW_RULES = (
    ("facility_power_kws", "facility_power_kw", "it_power_kw * pue"),
    ("appues", "appue", "performance / it_power_kw"),
    ("aopues", "aopue", "performance / facility_power_kw"),
    ("weights", "weight", "it_power_kw / summed it_power_kw"),
)


def _check_row_fields(rows: ReportRows, derived: tuple[np.ndarray, ...]) -> None:
    """Every row's facility power, ApPUE, AoPUE and weight is finite and
    within ``IDENTITY_REL_TOL`` of the rule's value in ``derived``.

    The columns are screened as arrays, and only the rows that fail are
    checked value by value, so the first violation in row and field order
    raises a :class:`ValidationError` that names the run and the field.
    ``np.isclose`` scales the tolerance by ``|expected|``, not by
    ``math.isclose``'s larger ``max(|value|, |expected|)``, so it screens out
    every value that the check by value rejects.
    """
    stored = [getattr(rows, column) for column, _, _ in _ROW_RULES]
    suspects = np.zeros(len(rows), dtype=bool)
    for k, column in enumerate(stored):
        values = np.asarray(column, dtype=np.float64)
        with np.errstate(over="ignore"):
            close = np.isclose(values, derived[k], rtol=IDENTITY_REL_TOL, atol=0.0)
        suspects |= ~(np.isfinite(values) & close)
    for i in np.flatnonzero(suspects).tolist():
        for k, ((_, name, rule), column) in enumerate(zip(_ROW_RULES, stored)):
            # isclose(inf, inf) holds, so an overflow needs its own check.
            if not math.isfinite(value := column[i]):
                raise ValidationError(
                    f"run {rows.run_ids[i]!r}: {name} must be finite, got {value!r}"
                )
            expected = float(derived[k][i])
            if not math.isclose(value, expected, rel_tol=IDENTITY_REL_TOL):
                raise ValidationError(
                    f"run {rows.run_ids[i]!r}: {name} {value!r} != {rule} {expected!r}"
                )


@dataclass(frozen=True)
class MetricsReport:
    """PUE plus per-run ApPUE/AoPUE rows, weights, and aggregates.

    ``per_run`` is a :class:`ReportRows`: the rows held as columns, a
    read-only sequence of :class:`RunMetrics`.  Any iterable of rows given
    to the constructor is turned into one.

    The primary fields are the window's energies and each row's run id,
    category, IT power and performance; every other field is derived from
    them by one rule, :func:`_derive_report`.  Construction checks that the
    rows' run ids are distinct, that PUE is finite and >= 1, that the
    weights sum to one, that every row's IT power is finite and > 0, its
    performance finite and >= 0 and its facility power, ApPUE and AoPUE
    finite, and that every derived field equals the rule's value within
    ``IDENTITY_REL_TOL``.  A violation raises a :class:`ValidationError`
    that names the field, and the run for a row's field.  Rows of mixed
    performance units raise :class:`UnitMismatchError`, and a window
    without IT energy :class:`ZeroITEnergyError`.  Every report, built by
    :func:`~axpue.engine.build_report`, read by :func:`~axpue.io.read_report`
    or constructed directly, is checked so.  A row's performance unit is
    checked where its :class:`RunMetrics` is constructed.
    """

    window: EnergyWindow
    pue: float
    per_run: Sequence[RunMetrics]
    weighted_appue: float | None
    aggregated_aopue: float | None
    provenance: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.per_run, ReportRows):
            object.__setattr__(self, "per_run", ReportRows.from_rows(self.per_run))
        rows = self.per_run
        seen = set()
        for run_id in rows.run_ids:
            if run_id in seen:
                raise ValidationError(f"duplicate run_id {run_id!r}")
            seen.add(run_id)
        if not (math.isfinite(self.pue) and self.pue >= 1):
            raise ValidationError(f"pue must be finite and >= 1, got {self.pue!r}")
        pue, derived, weighted_appue, aggregated_aopue = _derive_report(
            self.window, rows.run_ids, rows.categories, rows.it_power_kws, rows.performances
        )
        if not math.isclose(self.pue, pue, rel_tol=IDENTITY_REL_TOL):
            raise ValidationError(f"pue {self.pue!r} != total facility energy / IT energy {pue!r}")
        if rows:
            total = math.fsum(rows.weights)
            if not abs(total - 1.0) <= WEIGHT_SUM_TOL:  # NaN compares false, so it fails
                raise ValidationError(f"weights sum to {total!r}, expected 1")
        _check_row_fields(rows, derived)
        for name, value, rule, derived_value in (
            ("weighted_appue", self.weighted_appue, "IT-power-weighted appue", weighted_appue),
            ("aggregated_aopue", self.aggregated_aopue, "weighted_appue / pue", aggregated_aopue),
        ):
            if value is None or derived_value is None:
                agrees = value is derived_value
            else:
                agrees = math.isclose(value, derived_value, rel_tol=IDENTITY_REL_TOL)
            if not agrees:
                raise ValidationError(f"{name} {value!r} != {rule} {derived_value!r}")
