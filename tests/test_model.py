"""Domain type invariants and inventory validation."""

from __future__ import annotations

import dataclasses
import math

import pytest

from axpue import (
    ApplicationCategory,
    ApplicationRun,
    DeviceCategory,
    DeviceRecord,
    EnergyWindow,
    Inventory,
    MetricsReport,
    PerformanceRate,
    RateUnit,
    RunInput,
    RunMetrics,
    WorkKind,
    WorkMeasure,
)
from axpue.errors import (
    CategoryMismatchError,
    DuplicateDeviceError,
    InvalidDeviceError,
    InvalidWindowError,
    ValidationError,
)


def _run(**overrides) -> ApplicationRun:
    kwargs = dict(
        run_id="r1",
        category=ApplicationCategory.DATA_ANALYSIS,
        start=0.0,
        end=100.0,
        work=WorkMeasure(WorkKind.BYTES_PROCESSED, 10**9),
        attributed_devices=frozenset({"s1"}),
    )
    kwargs.update(overrides)
    return ApplicationRun(**kwargs)


class TestInventory:
    def test_well_formed(self):
        inv = Inventory(
            [
                DeviceRecord("s1", DeviceCategory.IT_EQUIPMENT),
                DeviceRecord("crac1", DeviceCategory.COOLING),
            ]
        )
        assert len(inv) == 2
        assert inv.category_of("s1") is DeviceCategory.IT_EQUIPMENT
        assert "crac1" in inv and "nope" not in inv

    def test_duplicate_id_rejected(self):
        with pytest.raises(DuplicateDeviceError):
            Inventory(
                [
                    DeviceRecord("s1", DeviceCategory.IT_EQUIPMENT),
                    DeviceRecord("s1", DeviceCategory.OTHER),
                ]
            )

    def test_empty_is_valid(self):
        assert len(Inventory([])) == 0

    def test_empty_id_rejected(self):
        with pytest.raises(InvalidDeviceError):
            DeviceRecord("", DeviceCategory.IT_EQUIPMENT)

    def test_category_index(self):
        inv = Inventory(
            [
                DeviceRecord("a", DeviceCategory.IT_EQUIPMENT),
                DeviceRecord("b", DeviceCategory.IT_EQUIPMENT),
                DeviceRecord("c", DeviceCategory.POWER_TRANSMISSION),
            ]
        )
        assert inv.ids_in(DeviceCategory.IT_EQUIPMENT) == {"a", "b"}
        assert inv.ids_in(DeviceCategory.OTHER) == frozenset()


class TestWorkMeasure:
    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            WorkMeasure(WorkKind.REQUESTS_ANSWERED, -1)

    def test_non_integer_rejected(self):
        with pytest.raises(ValidationError):
            WorkMeasure(WorkKind.REQUESTS_ANSWERED, 1.5)

    def test_zero_allowed(self):
        assert WorkMeasure(WorkKind.REQUESTS_ANSWERED, 0).amount == 0

    def test_beyond_float_range_rejected(self):
        with pytest.raises(ValidationError, match="beyond float range"):
            WorkMeasure(WorkKind.REQUESTS_ANSWERED, 10**400)


class TestApplicationRun:
    def test_inverted_window_rejected(self):
        with pytest.raises(InvalidWindowError):
            _run(start=100.0, end=100.0)

    def test_empty_devices_rejected(self):
        with pytest.raises(ValidationError):
            _run(attributed_devices=frozenset())

    def test_work_kind_must_match_category(self):
        with pytest.raises(CategoryMismatchError):
            _run(
                category=ApplicationCategory.SERVICE,
                work=WorkMeasure(WorkKind.FLOATING_POINT_OPS, 10),
            )

    def test_devices_coerced_to_frozenset(self):
        run = _run(attributed_devices=["s1", "s2", "s1"])
        assert run.attributed_devices == frozenset({"s1", "s2"})


class TestEnergyWindow:
    def test_total_is_sum_of_categories(self):
        window = EnergyWindow(
            0.0,
            3600.0,
            {
                DeviceCategory.IT_EQUIPMENT: 100.0,
                DeviceCategory.COOLING: 40.0,
                DeviceCategory.POWER_TRANSMISSION: 5.0,
                DeviceCategory.OTHER: 2.0,
            },
        )
        assert window.total_facility_energy == pytest.approx(147.0, rel=1e-15)
        assert window.it_energy == 100.0
        assert window.total_facility_energy >= window.it_energy >= 0

    def test_missing_categories_default_to_zero(self):
        window = EnergyWindow(0.0, 60.0, {DeviceCategory.IT_EQUIPMENT: 10.0})
        assert window.energy_by_category[DeviceCategory.COOLING] == 0.0
        assert window.total_facility_energy == 10.0

    def test_negative_energy_rejected(self):
        with pytest.raises(ValidationError):
            EnergyWindow(0.0, 60.0, {DeviceCategory.COOLING: -1.0})

    def test_inverted_window_rejected(self):
        with pytest.raises(InvalidWindowError):
            EnergyWindow(60.0, 60.0, {})


class TestPerformanceRate:
    def test_flops_reported_as_gflops(self):
        magnitude, label = PerformanceRate(5.046e10, RateUnit.FLOPS_PER_SECOND).reported()
        assert magnitude == pytest.approx(50.46, rel=1e-12)
        assert label == "GFLOPS"

    def test_kb_reported_unchanged(self):
        magnitude, label = PerformanceRate(24916.998, RateUnit.KB_PER_SECOND).reported()
        assert magnitude == 24916.998
        assert label == "KB/s"

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            PerformanceRate(-1.0, RateUnit.KB_PER_SECOND)

    @pytest.mark.parametrize("unit", ["kb_per_second", None, "GFLOPS"])
    def test_unit_that_is_not_a_rate_unit_rejected(self, unit):
        # A string that spells a member is still not one: the unit checks
        # compare members by identity.
        with pytest.raises(ValidationError, match=f"got {unit!r}"):
            PerformanceRate(1.0, unit)
        with pytest.raises(ValidationError, match=f"got {unit!r}"):
            RunInput(_run(), 1e7, PerformanceRate(1.0, unit))


def _row(appue: float, aopue: float, weight: float) -> RunMetrics:
    return RunMetrics(
        run_id="r",
        category=ApplicationCategory.DATA_ANALYSIS,
        it_power_kw=100.0,
        facility_power_kw=150.0,
        performance=PerformanceRate(500.0, RateUnit.KB_PER_SECOND),
        appue=appue,
        aopue=aopue,
        weight=weight,
    )


class TestMetricsReport:
    WINDOW = EnergyWindow(
        0.0,
        3600.0,
        {DeviceCategory.IT_EQUIPMENT: 100.0, DeviceCategory.COOLING: 50.0},
    )

    def test_identity_enforced_rowwise(self):
        with pytest.raises(ValidationError):
            MetricsReport(
                window=self.WINDOW,
                pue=1.5,
                per_run=(_row(appue=5.0, aopue=4.0, weight=1.0),),
                weighted_appue=5.0,
                aggregated_aopue=4.0,
            )

    def test_weight_sum_enforced(self):
        rows = (_row(5.0, 5.0 / 1.5, 0.6), _row(5.0, 5.0 / 1.5, 0.6))
        with pytest.raises(ValidationError):
            MetricsReport(
                window=self.WINDOW,
                pue=1.5,
                per_run=rows,
                weighted_appue=5.0,
                aggregated_aopue=5.0 / 1.5,
            )

    @pytest.mark.parametrize(
        "pue, facility_kw, message",
        [
            (0.5, 50.0, "pue must be finite and >= 1, got 0.5"),
            (2.0, 200.0, "pue 2.0 != total facility energy / IT energy 1.5"),
            (1.5, 151.0, "run 'r': facility_power_kw 151.0 != it_power_kw * pue 150.0"),
        ],
        ids=["below-one", "not-the-energy-quotient", "facility-power"],
    )
    def test_derived_fields_are_checked(self, pue, facility_kw, message):
        row = dataclasses.replace(
            _row(appue=5.0, aopue=5.0 / pue, weight=1.0), facility_power_kw=facility_kw
        )
        with pytest.raises(ValidationError) as excinfo:
            MetricsReport(
                window=self.WINDOW,
                pue=pue,
                per_run=(row,),
                weighted_appue=5.0,
                aggregated_aopue=5.0 / pue,
            )
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("it_power_kw", [math.inf, math.nan, -1.0, 0.0])
    def test_it_power_must_be_finite_and_positive(self, it_power_kw):
        row = dataclasses.replace(
            _row(appue=5.0, aopue=5.0 / 1.5, weight=1.0),
            it_power_kw=it_power_kw,
            facility_power_kw=it_power_kw * 1.5,
        )
        with pytest.raises(ValidationError) as excinfo:
            MetricsReport(
                window=self.WINDOW,
                pue=1.5,
                per_run=(row,),
                weighted_appue=5.0,
                aggregated_aopue=5.0 / 1.5,
            )
        assert str(excinfo.value) == (
            f"run 'r': it_power_kw must be finite and > 0, got {it_power_kw!r}"
        )

    def test_valid_report_passes(self):
        report = MetricsReport(
            window=self.WINDOW,
            pue=1.5,
            per_run=(_row(appue=5.0, aopue=5.0 / 1.5, weight=1.0),),
            weighted_appue=5.0,
            aggregated_aopue=5.0 / 1.5,
        )
        assert report.pue == 1.5
