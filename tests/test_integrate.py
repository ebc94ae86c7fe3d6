"""Trapezoidal energy integration: values, properties, and error paths."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from axpue import (
    DeviceCategory,
    DeviceRecord,
    Inventory,
    PowerTrace,
    integrate_power,
)
from axpue.errors import (
    CoverageGapError,
    DuplicateDeviceError,
    InvalidPowerError,
    InvalidWindowError,
    NoSamplesError,
    UnknownDeviceError,
    ValidationError,
)
from axpue.integrate import _integrate_windows, category_energy
from conftest import interior_window, random_trace, riemann_energy


def constant_trace(watts: float, t_end: float = 120.0, step: float = 10.0) -> PowerTrace:
    times = np.arange(0.0, t_end + step, step)
    return PowerTrace("dev", times, np.full_like(times, watts))


class TestIntegratePower:
    def test_constant_power(self):
        energy = integrate_power(constant_trace(100.0), 0.0, 60.0)
        assert energy == pytest.approx(6000.0, rel=1e-12)

    def test_linear_ramp_triangle(self):
        trace = PowerTrace("dev", [0.0, 10.0], [0.0, 100.0])
        assert integrate_power(trace, 0.0, 10.0, max_gap=10.0) == pytest.approx(
            500.0, rel=1e-12
        )

    def test_matches_riemann_oracle(self, rng):
        for _ in range(10):
            trace = random_trace(rng)
            start, end = interior_window(rng, trace)
            energy = integrate_power(trace, start, end, max_gap=100.0)
            oracle = riemann_energy(trace, start, end)
            assert energy == pytest.approx(oracle, rel=1e-6)

    def test_split_linearity(self, rng):
        for _ in range(10):
            trace = random_trace(rng)
            start, end = interior_window(rng, trace)
            mid = rng.uniform(start, end)
            whole = integrate_power(trace, start, end, max_gap=100.0)
            parts = integrate_power(trace, start, mid, max_gap=100.0) + integrate_power(
                trace, mid, end, max_gap=100.0
            )
            assert whole == pytest.approx(parts, rel=1e-9)

    def test_power_scaling_scales_energy(self, rng):
        trace = random_trace(rng)
        start, end = interior_window(rng, trace)
        base = integrate_power(trace, start, end, max_gap=100.0)
        for k in (0.5, 2.0, 10.0):
            scaled = PowerTrace(trace.device_id, trace.times, trace.watts * k)
            assert integrate_power(scaled, start, end, max_gap=100.0) == pytest.approx(
                k * base, rel=1e-12
            )

    def test_boundary_interpolation(self):
        # Power ramps 0 -> 100 over [0, 10]; window [2.5, 7.5] is a trapezoid
        # with parallel sides 25 W and 75 W.
        trace = PowerTrace("dev", [0.0, 10.0], [0.0, 100.0])
        energy = integrate_power(trace, 2.5, 7.5, max_gap=10.0)
        assert energy == pytest.approx(0.5 * (25.0 + 75.0) * 5.0, rel=1e-12)

    def test_constant_extension_at_edges(self):
        trace = PowerTrace("dev", [10.0, 20.0], [100.0, 100.0])
        # Window extends 5 s before the first and after the last sample.
        energy = integrate_power(trace, 5.0, 25.0, max_gap=10.0)
        assert energy == pytest.approx(100.0 * 20.0, rel=1e-12)

    def test_single_sample_extends_both_ways(self):
        trace = PowerTrace("dev", [10.0], [250.0])
        assert integrate_power(trace, 5.0, 15.0, max_gap=10.0) == pytest.approx(2500.0)

    def test_empty_trace_rejected(self):
        with pytest.raises(NoSamplesError):
            integrate_power(PowerTrace("dev", [], []), 0.0, 10.0)

    def test_inverted_window_rejected(self):
        with pytest.raises(InvalidWindowError):
            integrate_power(constant_trace(100.0), 60.0, 60.0)

    @pytest.mark.parametrize("max_gap", [float("nan"), 0.0, -1.0])
    def test_max_gap_must_be_positive(self, max_gap):
        trace = PowerTrace("dev", [0.0, 100000.0], [100.0, 100.0])
        with pytest.raises(ValidationError, match="max_gap must be > 0 seconds"):
            integrate_power(trace, 0.0, 100000.0, max_gap=max_gap)

    def test_infinite_max_gap_never_rejects(self):
        trace = PowerTrace("dev", [10.0, 100000.0], [100.0, 100.0])
        energy = integrate_power(trace, 0.0, 200000.0, max_gap=float("inf"))
        assert energy == pytest.approx(100.0 * 200000.0)

    def test_interior_gap_rejected(self):
        trace = PowerTrace("dev", [0.0, 10.0, 700.0], [100.0, 100.0, 100.0])
        with pytest.raises(CoverageGapError) as excinfo:
            integrate_power(trace, 0.0, 700.0, max_gap=60.0)
        assert excinfo.value.gap == (10.0, 700.0)
        assert excinfo.value.device_id == "dev"

    def test_gap_outside_window_is_ignored(self):
        trace = PowerTrace("dev", [0.0, 10.0, 700.0, 710.0], [100.0] * 4)
        assert integrate_power(trace, 0.0, 10.0, max_gap=60.0) == pytest.approx(1000.0)
        assert integrate_power(trace, 700.0, 710.0, max_gap=60.0) == pytest.approx(1000.0)

    def test_window_clipping_a_gap_is_rejected(self):
        # Even a short window is uncovered if it sits inside a wide gap.
        trace = PowerTrace("dev", [0.0, 1000.0], [100.0, 100.0])
        with pytest.raises(CoverageGapError):
            integrate_power(trace, 10.0, 40.0, max_gap=60.0)

    def test_constant_exact(self):
        times = np.arange(0.0, 130.0, 10.0)
        trace = PowerTrace("dev", times, np.full_like(times, 42.0))
        energy = integrate_power(trace, 0.0, 120.0, max_gap=60.0)
        assert energy == pytest.approx(42.0 * 120.0, rel=1e-12)

    def test_gap_reported_with_location(self):
        trace = PowerTrace("dev", [0.0, 10.0, 500.0], [1.0, 1.0, 1.0])
        with pytest.raises(CoverageGapError) as excinfo:
            integrate_power(trace, 0.0, 500.0, max_gap=60.0)
        assert excinfo.value.gap == (10.0, 500.0)
        assert str(excinfo.value) == (
            "device 'dev': no samples across [10.0, 500.0] (490.000 s > max_gap 60.0 s)"
        )

    @pytest.mark.parametrize("n_windows", [1, 100])
    def test_memory_is_four_arrays_of_the_gathered_length(self, n_windows):
        # Windows tiling a long trace gather about one trace's worth of
        # samples; the kernel keeps at most four such arrays alive at once.
        n = 250_000
        times = np.arange(float(n))
        trace = PowerTrace("dev", times, np.full(n, 100.0))
        edges = np.linspace(0.0, n - 1.0, n_windows + 1)
        tracemalloc.start()
        try:
            _integrate_windows([(trace, edges[:-1], edges[1:])], 60.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * times.nbytes

    def test_edge_beyond_max_gap_rejected(self):
        trace = PowerTrace("dev", [100.0, 200.0], [50.0, 50.0])
        with pytest.raises(CoverageGapError) as excinfo:
            integrate_power(trace, 0.0, 200.0, max_gap=60.0)
        assert excinfo.value.gap == (0.0, 100.0)
        with pytest.raises(CoverageGapError) as excinfo:
            integrate_power(trace, 100.0, 300.0, max_gap=60.0)
        assert excinfo.value.gap == (200.0, 300.0)


class TestAveragePower:
    """Average power in watts: the window's energy over its length."""

    def test_zero_energy(self):
        assert integrate_power(constant_trace(0.0), 0.0, 10.0) / 10.0 == 0.0

    def test_oracle_mean(self, rng):
        trace = random_trace(rng)
        start, end = interior_window(rng, trace)
        mean = integrate_power(trace, start, end, max_gap=100.0) / (end - start)
        oracle_mean = riemann_energy(trace, start, end) / (end - start)
        assert mean == pytest.approx(oracle_mean, rel=1e-6)

    def test_constant_round_trip(self):
        trace = constant_trace(314.0)
        mean = integrate_power(trace, 0.0, 120.0) / 120.0
        assert mean == pytest.approx(314.0, rel=1e-12)


class TestCategoryEnergy:
    INVENTORY = Inventory(
        [
            DeviceRecord("it-agg", DeviceCategory.IT_EQUIPMENT),
            DeviceRecord("overhead", DeviceCategory.COOLING),
        ]
    )

    def test_published_hourly_energies(self):
        # 100.412 kW of IT plus 46.911 kW of combined overhead for one hour.
        traces = [
            constant_trace_for("it-agg", 100412.0),
            constant_trace_for("overhead", 46911.0),
        ]
        window = category_energy(traces, self.INVENTORY, 0.0, 3600.0)
        assert window.it_energy == pytest.approx(361.4832e6, rel=1e-9)
        assert window.total_facility_energy == pytest.approx(530.3628e6, rel=1e-9)

    def test_empty_category_is_zero(self):
        inventory = Inventory([DeviceRecord("it-agg", DeviceCategory.IT_EQUIPMENT)])
        window = category_energy([constant_trace_for("it-agg", 1000.0)], inventory, 0.0, 3600.0)
        assert window.energy_by_category[DeviceCategory.OTHER] == 0.0
        assert window.energy_by_category[DeviceCategory.COOLING] == 0.0

    def test_sums_per_device_oracles(self, rng):
        devices = [DeviceRecord(f"it-{i}", DeviceCategory.IT_EQUIPMENT) for i in range(3)]
        inventory = Inventory(devices)
        traces = [random_trace(rng, device_id=d.device_id, t0=0.0) for d in devices]
        start = max(float(t.times[0]) for t in traces) + 1.0
        end = min(float(t.times[-1]) for t in traces) - 1.0
        window = category_energy(traces, inventory, start, end, max_gap=100.0)
        oracle = sum(riemann_energy(t, start, end) for t in traces)
        assert window.it_energy == pytest.approx(oracle, rel=1e-6)

    def test_unknown_device_rejected(self):
        with pytest.raises(UnknownDeviceError):
            category_energy(
                [constant_trace_for("mystery", 100.0)], self.INVENTORY, 0.0, 60.0
            )

    def test_duplicate_trace_rejected(self):
        traces = [constant_trace_for("it-agg", 1.0), constant_trace_for("it-agg", 2.0)]
        with pytest.raises(DuplicateDeviceError):
            category_energy(traces, self.INVENTORY, 0.0, 60.0)

    def test_gap_error_carries_device(self):
        traces = [
            PowerTrace("it-agg", [0.0, 5000.0], [1.0, 1.0]),
            PowerTrace("overhead", np.arange(0.0, 5060.0, 60.0), np.ones(85)),
        ]
        with pytest.raises(CoverageGapError) as excinfo:
            category_energy(traces, self.INVENTORY, 0.0, 5000.0, max_gap=60.0)
        assert excinfo.value.device_id == "it-agg"

    def test_unmetered_device_is_named_in_id_order(self):
        inventory = Inventory(
            [
                DeviceRecord("it-agg", DeviceCategory.IT_EQUIPMENT),
                DeviceRecord("pdu", DeviceCategory.POWER_TRANSMISSION),
                DeviceRecord("crac", DeviceCategory.COOLING),
            ]
        )
        with pytest.raises(NoSamplesError) as excinfo:
            category_energy([constant_trace_for("it-agg", 1.0)], inventory, 0.0, 3600.0)
        assert excinfo.value.device_id == "crac"
        assert str(excinfo.value) == "device 'crac' (cooling) has no telemetry"


def constant_trace_for(device_id: str, watts: float) -> PowerTrace:
    times = np.arange(0.0, 3660.0, 60.0)
    return PowerTrace(device_id, times, np.full_like(times, watts))


class TestPowerTrace:
    def test_non_increasing_times_rejected(self):
        with pytest.raises(ValidationError):
            PowerTrace("dev", [0.0, 0.0, 1.0], [1.0, 1.0, 1.0])

    def test_negative_watts_rejected(self):
        with pytest.raises(InvalidPowerError):
            PowerTrace("dev", [0.0, 1.0], [1.0, -1.0])

    def test_arrays_are_frozen(self):
        trace = PowerTrace("dev", [0.0, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            trace.watts[0] = 99.0
