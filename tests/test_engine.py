"""Metric formulas, weighting, report assembly, and the analysis pipeline."""

from __future__ import annotations

import dataclasses
import io
import math

import numpy as np
import pytest

from axpue import (
    ApplicationCategory,
    ApplicationRun,
    DeviceCategory,
    DeviceRecord,
    EnergyWindow,
    Inventory,
    MetricInputs,
    PerformanceRate,
    PowerTrace,
    RateUnit,
    RunInput,
    WorkKind,
    WorkMeasure,
    analyze,
    build_report,
    builtin_scenario,
    integrate_power,
    parse_inventory_json,
    parse_power_csv,
    parse_runs_jsonl,
    simulate,
)
from axpue import MetricsReport, RunMetrics, integrate
from axpue.integrate import category_energy
from axpue.errors import (
    CategoryMismatchError,
    InvalidWindowError,
    SharedDeviceConflictError,
    UnitMismatchError,
    UnknownDeviceError,
    ValidationError,
    ZeroITEnergyError,
    ZeroITPowerError,
)
from conftest import random_metric_inputs


def window_for_powers(it_kw: float, total_kw: float, duration: float = 3600.0) -> EnergyWindow:
    """Window whose energy ratio equals the given power ratio."""
    it_joules = it_kw * 1000.0 * duration
    overhead_joules = (total_kw - it_kw) * 1000.0 * duration
    return EnergyWindow(
        0.0,
        duration,
        {
            DeviceCategory.IT_EQUIPMENT: it_joules,
            DeviceCategory.COOLING: overhead_joules,
        },
    )


def kb_rate(value: float) -> PerformanceRate:
    return PerformanceRate(value, RateUnit.KB_PER_SECOND)


def one_run_report(it_kw: float, total_kw: float, rate: PerformanceRate):
    """Report of one run that spans an hour at the given average powers."""
    window = window_for_powers(it_kw, total_kw)
    if rate.unit is RateUnit.FLOPS_PER_SECOND:
        run = ApplicationRun(
            run_id="hpc",
            category=ApplicationCategory.HIGH_PERFORMANCE_COMPUTING,
            start=0.0,
            end=3600.0,
            work=WorkMeasure(WorkKind.FLOATING_POINT_OPS, 1),
            attributed_devices=frozenset({"it-00"}),
        )
    else:
        run = data_run("r", 0.0, 3600.0, 1.0)
    return build_report(MetricInputs(window, (RunInput(run, window.it_energy, rate),)))


def window_pue(window: EnergyWindow) -> float:
    return build_report(MetricInputs(window, ())).pue


class TestComputePue:
    def test_published_comprehensive_row(self):
        assert window_pue(window_for_powers(100.412, 147.323)) == pytest.approx(
            1.467, abs=1e-3
        )

    def test_no_overhead_gives_one(self):
        assert window_pue(window_for_powers(100.0, 100.0)) == pytest.approx(1.0, rel=1e-15)

    def test_published_hpc_row(self):
        assert window_pue(window_for_powers(122.679, 170.685)) == pytest.approx(
            1.391, abs=1e-3
        )

    def test_zero_it_energy_rejected(self):
        window = EnergyWindow(0.0, 60.0, {DeviceCategory.COOLING: 100.0})
        with pytest.raises(ZeroITEnergyError, match="window holds no IT equipment energy"):
            window_pue(window)


class TestComputeAppue:
    def test_published_comprehensive_row(self):
        report = one_run_report(100.412, 147.323, kb_rate(563.271))
        assert report.per_run[0].appue == pytest.approx(5.6096, abs=1e-3)

    def test_published_grep_row(self):
        report = one_run_report(92.331, 138.636, kb_rate(24916.998))
        assert report.per_run[0].appue == pytest.approx(269.866, abs=1e-3)

    def test_zero_rate(self):
        assert one_run_report(50.0, 75.0, kb_rate(0.0)).per_run[0].appue == 0.0

    def test_zero_power_rejected(self):
        window = window_for_powers(100.0, 150.0)
        inputs = MetricInputs(
            window,
            (
                RunInput(data_run("idle", 0.0, 3600.0, 1.0), 0.0, kb_rate(1.0)),
                RunInput(data_run("busy", 0.0, 3600.0, 1.0), window.it_energy, kb_rate(1.0)),
            ),
        )
        with pytest.raises(
            ZeroITPowerError, match=r"run 'idle': it_power_kw must be finite and > 0, got 0\.0"
        ):
            build_report(inputs)

    def test_gflops_magnitude_used_for_hpc(self):
        rate = PerformanceRate(50.46e9, RateUnit.FLOPS_PER_SECOND)
        report = one_run_report(122.679, 170.685, rate)
        assert report.per_run[0].appue == pytest.approx(0.411, abs=1e-3)


def report_of_powers(it_kws, appues=None) -> MetricsReport:
    """Report of data-analysis runs over [0, 1000] s at the given IT powers
    (kW), each at ApPUE 1 unless ``appues`` are given.  An integer-valued
    power and an ApPUE with few significant bits are derived back exactly."""
    appues = [1.0] * len(it_kws) if appues is None else appues
    window = window_for_powers(math.fsum(it_kws), 1.5 * math.fsum(it_kws), duration=1000.0)
    return build_report(
        MetricInputs(
            window,
            tuple(
                RunInput(data_run(f"r{i}", 0.0, 1000.0, 1.0), p * 1e6, kb_rate(a * p))
                for i, (p, a) in enumerate(zip(it_kws, appues))
            ),
        )
    )


def weights_of(it_kws) -> list[float]:
    return [row.weight for row in report_of_powers(it_kws).per_run]


class TestComputeWeights:
    def test_symmetric(self):
        assert weights_of([100.0, 100.0]) == [0.5, 0.5]

    def test_published_sort_grep_pair(self):
        weights = weights_of([92.122, 92.331])
        total = 92.122 + 92.331
        assert weights == pytest.approx([92.122 / total, 92.331 / total], rel=1e-12)
        assert weights == pytest.approx([0.499434, 0.500566], abs=1e-6)

    def test_single_run(self):
        assert weights_of([42.0]) == [1.0]

    def test_sum_is_one(self, rng):
        for _ in range(50):
            powers = rng.uniform(0.01, 500.0, size=rng.integers(1, 8)).tolist()
            assert math.fsum(weights_of(powers)) == pytest.approx(1.0, abs=1e-12)

    def test_all_zero_rejected(self):
        window = window_for_powers(100.0, 150.0)
        runs = tuple(RunInput(data_run(r, 0.0, 3600.0, 1.0), 0.0, kb_rate(1.0)) for r in "ab")
        with pytest.raises(ZeroITPowerError):
            build_report(MetricInputs(window, runs))

    def test_it_power_sum_past_float_range_rejected(self):
        # 1e8 J over 1e-300 s is 1e305 kW, near the most a run's IT energy
        # over its duration can give; 2,000 such runs sum past float range.
        window = EnergyWindow(0.0, 1e-300, {DeviceCategory.IT_EQUIPMENT: 2e11})
        runs = tuple(RunInput(data_run(f"r{i}", 0.0, 1e-300, 1.0), 1e8, kb_rate(1.0)) for i in range(2000))
        assert runs[0].it_power_kw == 1e305
        with pytest.raises(ValidationError, match="^IT powers sum past float range$"):
            build_report(MetricInputs(window, runs))


def report_with_rows(*rows: RunMetrics, **fields) -> MetricsReport:
    """A report at PUE 1.5 (IT energy 2, cooling 1) holding ``rows``."""
    window = EnergyWindow(0.0, 1.0, {DeviceCategory.IT_EQUIPMENT: 2.0, DeviceCategory.COOLING: 1.0})
    return MetricsReport(**{"window": window, "pue": 1.5, "per_run": rows, **fields})


def kb_row(run_id: str, it_kw: float, rate: float, weight: float) -> RunMetrics:
    """A data-analysis row at PUE 1.5 whose ApPUE and AoPUE fit its inputs."""
    return RunMetrics(
        run_id, ApplicationCategory.DATA_ANALYSIS, it_kw, it_kw * 1.5, kb_rate(rate),
        rate / it_kw, rate / (it_kw * 1.5), weight,
    )


class TestAggregateAppue:
    def test_hand_summed_pair(self):
        report = report_of_powers([50.0, 50.0], appues=[17.2394, 269.866])
        assert report.weighted_appue == pytest.approx(143.5527, abs=1e-9)

    def test_degenerate_single(self):
        assert report_of_powers([3.0], appues=[7.25]).weighted_appue == 7.25

    def test_equal_values_fixed_point(self, rng):
        for _ in range(20):
            powers = rng.integers(1, 1000, size=4).astype(float).tolist()
            assert report_of_powers(powers, appues=[3.75] * 4).weighted_appue == 3.75

    def test_convex_bounds(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 8))
            appues = rng.uniform(0.01, 300.0, size=n).tolist()
            report = report_of_powers(rng.uniform(0.1, 10.0, size=n).tolist(), appues)
            derived = [row.appue for row in report.per_run]
            assert min(derived) <= report.weighted_appue <= max(derived)

    def test_mixed_units_rejected(self):
        hpc = RunMetrics(
            "hpc", ApplicationCategory.HIGH_PERFORMANCE_COMPUTING, 1.0, 1.5,
            PerformanceRate(2e9, RateUnit.FLOPS_PER_SECOND), 2.0, 2.0 / 1.5, 0.5,
        )
        with pytest.raises(UnitMismatchError, match=r"\['GFLOPS', 'KB/s'\]"):
            report_with_rows(
                kb_row("da", 1.0, 2.0, 0.5), hpc, weighted_appue=2.0, aggregated_aopue=2.0 / 1.5
            )

    def test_bad_weight_sum_rejected(self):
        rows = (kb_row("a", 1.0, 1.0, 0.4), kb_row("b", 1.0, 2.0, 0.4))
        with pytest.raises(ValidationError, match=r"weights sum to 0\.8, expected 1"):
            report_with_rows(*rows, weighted_appue=1.5, aggregated_aopue=1.0)

    def test_weight_sum_held_to_the_report_tolerance(self):
        # 1e-10 off is inside IDENTITY_REL_TOL but outside WEIGHT_SUM_TOL.
        rows = (kb_row("a", 1.0, 1.0, 0.5), kb_row("b", 1.0, 2.0, 0.5 + 1e-10))
        with pytest.raises(ValidationError, match=r"weights sum to 1\.0000000001, expected 1$"):
            report_with_rows(*rows, weighted_appue=1.5, aggregated_aopue=1.0)


class TestComputeAopue:
    def test_published_comprehensive_row(self):
        report = one_run_report(100.412, 147.323, kb_rate(563.271))
        assert report.per_run[0].aopue == pytest.approx(3.823, abs=1e-3)

    def test_published_hpc_row(self):
        rate = PerformanceRate(50.46e9, RateUnit.FLOPS_PER_SECOND)
        report = one_run_report(122.679, 170.685, rate)
        assert report.per_run[0].aopue == pytest.approx(0.295, abs=1e-3)

    def test_published_sort_row(self):
        report = one_run_report(92.122, 138.481, kb_rate(1588.128))
        assert report.per_run[0].aopue == pytest.approx(11.468, abs=1e-3)


class TestVerifyIdentity:
    """AoPUE = ApPUE / PUE row-wise, checked when a report is constructed."""

    def test_published_row_consistency(self):
        report = report_with_rows(
            kb_row("BigDataBench", 100.412, 563.271, 1.0),
            weighted_appue=563.271 / 100.412,
            aggregated_aopue=563.271 / 100.412 / 1.5,
        )
        row = report.per_run[0]
        assert row.aopue == pytest.approx(row.appue / report.pue, rel=1e-15)

    def test_trivial_true(self):
        window = EnergyWindow(0.0, 1.0, {DeviceCategory.IT_EQUIPMENT: 1.0})
        row = RunMetrics("r", ApplicationCategory.DATA_ANALYSIS, 1.0, 1.0, kb_rate(1.0), 1.0, 1.0, 1.0)
        report = MetricsReport(window, 1.0, (row,), 1.0, 1.0)
        assert report.per_run[0].aopue == 1.0

    def test_violation_detected(self):
        row = dataclasses.replace(kb_row("r", 1.0, 2.0, 1.0), aopue=3.0)
        with pytest.raises(ValidationError, match=r"^run 'r': aopue 3\.0 != performance / facility_power_kw"):
            report_with_rows(row, weighted_appue=2.0, aggregated_aopue=2.0 / 1.5)


def data_run(run_id: str, start: float, end: float, kb: float, devices={"it-00"}):
    return ApplicationRun(
        run_id=run_id,
        category=ApplicationCategory.DATA_ANALYSIS,
        start=start,
        end=end,
        work=WorkMeasure(WorkKind.BYTES_PROCESSED, int(kb * 1000)),
        attributed_devices=frozenset(devices),
    )


class TestBuildReport:
    def test_pue_one_means_appue_equals_aopue(self):
        window = window_for_powers(100.0, 100.0)
        run = data_run("r", 0.0, 3600.0, 1e6)
        inputs = MetricInputs(
            window,
            (RunInput(run, it_energy_joules=window.it_energy, rate=kb_rate(100.0)),),
        )
        report = build_report(inputs)
        assert report.pue == pytest.approx(1.0, rel=1e-15)
        assert report.per_run[0].appue == pytest.approx(report.per_run[0].aopue, rel=1e-12)

    def test_matches_straight_line_recomputation(self, rng):
        # Independent recomputation of every cell with plain arithmetic.
        duration = 1000.0
        window = EnergyWindow(
            0.0,
            duration,
            {
                DeviceCategory.IT_EQUIPMENT: 8.0e8,
                DeviceCategory.COOLING: 2.5e8,
                DeviceCategory.POWER_TRANSMISSION: 4.0e7,
                DeviceCategory.OTHER: 1.0e7,
            },
        )
        runs = [
            (data_run("a", 0.0, 400.0, 5e5), 2.0e8),
            (data_run("b", 500.0, 1000.0, 9e5), 3.0e8),
        ]
        inputs = MetricInputs(
            window,
            tuple(
                RunInput(run, joules, kb_rate(run.work.amount / 1000.0 / run.duration))
                for run, joules in runs
            ),
        )
        report = build_report(inputs)

        total_e = 8.0e8 + 2.5e8 + 4.0e7 + 1.0e7
        pue = total_e / 8.0e8
        assert report.pue == pytest.approx(pue, rel=1e-12)
        it_powers = [2.0e8 / 400.0 / 1000.0, 3.0e8 / 500.0 / 1000.0]
        rates = [5e5 / 400.0, 9e5 / 500.0]
        appues = [r / p for r, p in zip(rates, it_powers)]
        weights = [p / sum(it_powers) for p in it_powers]
        weighted = sum(a * w for a, w in zip(appues, weights))
        for row, appue, weight, it_kw in zip(report.per_run, appues, weights, it_powers):
            assert row.it_power_kw == pytest.approx(it_kw, rel=1e-12)
            assert row.appue == pytest.approx(appue, rel=1e-12)
            assert row.weight == pytest.approx(weight, rel=1e-12)
            assert row.facility_power_kw == pytest.approx(it_kw * pue, rel=1e-12)
            assert row.aopue == pytest.approx(appue / pue, rel=1e-12)
        assert report.weighted_appue == pytest.approx(weighted, rel=1e-12)
        assert report.aggregated_aopue == pytest.approx(weighted / pue, rel=1e-12)

    def test_identity_holds_on_random_inputs(self, rng):
        for _ in range(100):
            report = build_report(random_metric_inputs(rng))
            for row in report.per_run:
                assert row.aopue == pytest.approx(row.appue / report.pue, rel=1e-12)

    def test_mixed_units_rejected(self):
        window = window_for_powers(100.0, 150.0)
        hpc_run = ApplicationRun(
            run_id="hpc",
            category=ApplicationCategory.HIGH_PERFORMANCE_COMPUTING,
            start=0.0,
            end=100.0,
            work=WorkMeasure(WorkKind.FLOATING_POINT_OPS, 10**12),
            attributed_devices=frozenset({"it-00"}),
        )
        inputs = MetricInputs(
            window,
            (
                RunInput(data_run("da", 0.0, 100.0, 1e5), 1e7, kb_rate(1000.0)),
                RunInput(hpc_run, 1e7, PerformanceRate(1e10, RateUnit.FLOPS_PER_SECOND)),
            ),
        )
        with pytest.raises(UnitMismatchError):
            build_report(inputs)

    def test_rate_unit_must_match_category(self):
        rate = PerformanceRate(5.0, RateUnit.REQUESTS_PER_SECOND)
        with pytest.raises(CategoryMismatchError) as info:
            RunInput(data_run("da", 0.0, 100.0, 1e5), 1e7, rate)
        assert str(info.value) == (
            "run 'da': category data_analysis requires kb_per_second performance, "
            "got requests_per_second"
        )

    def test_attribution_budget_enforced(self):
        window = window_for_powers(100.0, 150.0, duration=100.0)
        run = data_run("r", 0.0, 100.0, 1e5)
        with pytest.raises(ValidationError):
            MetricInputs(
                window,
                (RunInput(run, window.it_energy * 1.01, kb_rate(1.0)),),
            )


class TestAnalyze:
    @staticmethod
    def flat_trace(device_id: str, watts: float, t_end: float = 1000.0):
        times = np.arange(0.0, t_end + 50.0, 50.0)
        return PowerTrace(device_id, times, np.full_like(times, watts))

    @staticmethod
    def inventory():
        return Inventory(
            [
                DeviceRecord("it-00", DeviceCategory.IT_EQUIPMENT),
                DeviceRecord("it-01", DeviceCategory.IT_EQUIPMENT),
                DeviceRecord("cool", DeviceCategory.COOLING),
            ]
        )

    def traces(self):
        return [
            self.flat_trace("it-00", 200.0),
            self.flat_trace("it-01", 300.0),
            self.flat_trace("cool", 250.0),
        ]

    def test_end_to_end_values(self):
        runs = [data_run("r", 0.0, 1000.0, 1e5, devices={"it-00", "it-01"})]
        report = analyze(self.traces(), self.inventory(), runs)
        assert report.pue == pytest.approx(750.0 / 500.0, rel=1e-12)
        row = report.per_run[0]
        assert row.it_power_kw == pytest.approx(0.5, rel=1e-12)
        assert row.appue == pytest.approx((1e5 / 1000.0) / 0.5, rel=1e-12)

    def test_overlapping_runs_sharing_device_rejected(self):
        runs = [
            data_run("a", 0.0, 600.0, 1e5, devices={"it-00"}),
            data_run("b", 500.0, 1000.0, 1e5, devices={"it-00"}),
        ]
        with pytest.raises(SharedDeviceConflictError):
            analyze(self.traces(), self.inventory(), runs)

    def test_overlapping_runs_disjoint_devices_allowed(self):
        runs = [
            data_run("a", 0.0, 600.0, 1e5, devices={"it-00"}),
            data_run("b", 500.0, 1000.0, 1e5, devices={"it-01"}),
        ]
        report = analyze(self.traces(), self.inventory(), runs)
        assert len(report.per_run) == 2

    def test_unknown_device_rejected(self):
        runs = [data_run("r", 0.0, 1000.0, 1e5, devices={"ghost"})]
        with pytest.raises(UnknownDeviceError):
            analyze(self.traces(), self.inventory(), runs)

    def test_non_it_attribution_rejected(self):
        runs = [data_run("r", 0.0, 1000.0, 1e5, devices={"cool"})]
        with pytest.raises(ValidationError):
            analyze(self.traces(), self.inventory(), runs)

    def test_no_runs_requires_window(self):
        with pytest.raises(InvalidWindowError):
            analyze(self.traces(), self.inventory(), [])

    @pytest.mark.parametrize("max_gap", [float("nan"), 0.0, -60.0])
    def test_max_gap_must_be_positive(self, max_gap):
        with pytest.raises(ValidationError, match="max_gap must be > 0 seconds"):
            analyze(self.traces(), self.inventory(), [], window=(0.0, 1000.0), max_gap=max_gap)

    def test_no_runs_with_window(self):
        report = analyze(self.traces(), self.inventory(), [], window=(0.0, 1000.0))
        assert report.per_run == ()
        assert report.weighted_appue is None
        assert report.pue == pytest.approx(1.5, rel=1e-12)

    def test_run_bounds_compared_exactly_with_the_window(self):
        # 2**53 + 1 has no float64; rounded, it would lie inside the window.
        runs = [data_run("r", 0, 2**53 + 1, 1e5)]
        with pytest.raises(
            InvalidWindowError,
            match=rf"^run 'r' \[0, {2**53 + 1}\] lies outside the report window",
        ):
            analyze(self.traces(), self.inventory(), runs, window=(0.0, 2.0**53))

    @staticmethod
    def count_kernel_calls(monkeypatch):
        """Record (device, window count) for every call of the integration kernel."""
        calls = []

        def counted(trace, starts, ends, max_gap):
            calls.append((trace.device_id, len(starts)))
            return kernel(trace, starts, ends, max_gap)

        kernel = integrate._window_terms
        monkeypatch.setattr(integrate, "_window_terms", counted)
        return calls

    def test_one_kernel_call_per_device_with_runs(self, monkeypatch):
        runs = [
            data_run("a", 0.0, 210.0, 1e5, devices={"it-00", "it-01"}),
            data_run("b", 260.0, 400.0, 1e5, devices={"it-00"}),
            data_run("c", 400.0, 725.5, 1e5, devices={"it-00", "it-01"}),
            data_run("d", 800.0, 1000.0, 1e5, devices={"it-01"}),
        ]
        traces = [
            PowerTrace(t.device_id, t.times, t.watts + np.arange(t.times.size))
            for t in self.traces()
        ]
        calls = self.count_kernel_calls(monkeypatch)
        report = analyze(traces, self.inventory(), runs)
        # One report window per trace (category_energy), then one call per
        # device that has runs, not one per (run, device) pair.
        assert calls == [("cool", 1), ("it-00", 1), ("it-01", 1), ("it-00", 3), ("it-01", 3)]
        by_id = {t.device_id: t for t in traces}
        for run, row in zip(runs, report.per_run):
            devices = sorted(run.attributed_devices)
            joules = math.fsum(integrate_power(by_id[d], run.start, run.end) for d in devices)
            assert row.it_power_kw.hex() == (joules / run.duration / 1000.0).hex()

    def test_no_runs_makes_no_run_window_call(self, monkeypatch):
        window = category_energy(self.traces(), self.inventory(), 0.0, 1000.0)
        calls = self.count_kernel_calls(monkeypatch)
        report = analyze(self.traces(), self.inventory(), [], window=(0.0, 1000.0))
        assert calls == [("cool", 1), ("it-00", 1), ("it-01", 1)]
        assert report.window == window
        assert report.per_run == ()

    def test_many_runs_one_late_conflict_named(self):
        devices = [f"d{i}" for i in range(8)]
        inventory = Inventory(
            [DeviceRecord(d, DeviceCategory.IT_EQUIPMENT) for d in devices]
        )
        traces = [self.flat_trace(d, 100.0, t_end=2500.0) for d in devices]
        # 2,000 back-to-back runs; touching windows do not overlap.
        runs = [
            data_run(f"run-{k}", (k // 8) * 10.0, (k // 8) * 10.0 + 10.0, 1.0, {f"d{k % 8}"})
            for k in range(2000)
        ]
        assert len(analyze(traces, inventory, runs).per_run) == 2000
        runs.insert(1990, data_run("late", 2405.0, 2407.0, 1.0, {"d3"}))
        expected = (
            "runs 'run-1923' and 'late' overlap in time and share device(s) ['d3']"
        )
        with pytest.raises(SharedDeviceConflictError) as info:
            analyze(traces, inventory, runs)
        assert str(info.value) == expected

    def test_first_conflict_is_the_earliest_starting(self):
        # Two conflicts: the one whose later run starts first is reported,
        # even though the other pair comes first in input order.
        runs = [
            data_run("x", 50.0, 60.0, 1.0, {"it-00"}),
            data_run("y", 55.0, 70.0, 1.0, {"it-00"}),
            data_run("p", 0.0, 20.0, 1.0, {"it-01"}),
            data_run("q", 10.0, 30.0, 1.0, {"it-01"}),
        ]
        with pytest.raises(SharedDeviceConflictError) as info:
            analyze(self.traces(), self.inventory(), runs)
        assert str(info.value) == (
            "runs 'p' and 'q' overlap in time and share device(s) ['it-01']"
        )

    def test_conflict_names_runs_in_input_order(self):
        runs = [
            data_run("late", 5.0, 15.0, 1.0, {"it-00", "it-01"}),
            data_run("early", 0.0, 10.0, 1.0, {"it-00", "it-01"}),
        ]
        with pytest.raises(SharedDeviceConflictError) as info:
            analyze(self.traces(), self.inventory(), runs)
        assert str(info.value) == (
            "runs 'late' and 'early' overlap in time and share device(s) "
            "['it-00', 'it-01']"
        )

    def test_run_outside_explicit_window_rejected(self):
        runs = [
            data_run("a", 0.0, 500.0, 1e5, devices={"it-00"}),
            data_run("b", 600.0, 1000.0, 1e5, devices={"it-01"}),
        ]
        with pytest.raises(InvalidWindowError, match="'b'"):
            analyze(self.traces(), self.inventory(), runs, window=(0.0, 500.0))

    def test_run_wider_than_explicit_window_names_the_run(self):
        runs = [data_run("r", 0.0, 1000.0, 1e5, devices={"it-00"})]
        with pytest.raises(InvalidWindowError, match="'r'"):
            analyze(self.traces(), self.inventory(), runs, window=(0.0, 500.0))

    def test_inverted_window_rejected_before_runs_are_placed(self):
        out = simulate(builtin_scenario("grep"))
        traces = parse_power_csv(io.BytesIO(out.power_csv))
        runs = parse_runs_jsonl(io.StringIO(out.runs_jsonl.decode("utf-8")))
        inventory = Inventory(parse_inventory_json(out.inventory_json.decode("utf-8")))
        with pytest.raises(InvalidWindowError) as excinfo:
            analyze(traces, inventory, runs, window=(5000.0, 100.0))
        assert str(excinfo.value) == "window end (100.0) must be > start (5000.0)"

    def test_scaling_traces_preserves_pue_and_divides_appue(self):
        runs = [data_run("r", 0.0, 1000.0, 1e5, devices={"it-00", "it-01"})]
        base = analyze(self.traces(), self.inventory(), runs)
        for k in (0.5, 2.0, 10.0):
            scaled_traces = [
                PowerTrace(t.device_id, t.times, t.watts * k) for t in self.traces()
            ]
            scaled = analyze(scaled_traces, self.inventory(), runs)
            assert scaled.pue == pytest.approx(base.pue, rel=1e-9)
            assert scaled.per_run[0].appue == pytest.approx(
                base.per_run[0].appue / k, rel=1e-9
            )
            assert scaled.per_run[0].aopue == pytest.approx(
                base.per_run[0].aopue / k, rel=1e-9
            )
