"""Simulator device models, scenarios, determinism, and analytic exactness."""

from __future__ import annotations

import dataclasses
import io
import json

import numpy as np
import pytest

from axpue import (
    ApplicationCategory,
    ApplicationRun,
    DeviceCategory,
    DeviceRecord,
    DevicePowerModel,
    FacilityOverheadModel,
    SimScenario,
    WorkKind,
    WorkMeasure,
    builtin_scenario,
    parse_power_csv,
    simulate,
    sort_comparison_scenarios,
)
from axpue.errors import ModelError
from axpue.simulate import paper_scenarios, scenario_from_manifest, scenario_to_manifest
from conftest import run_pipeline


class TestDevicePowerModel:
    def test_server_anchor_points(self):
        model = DevicePowerModel.server()
        assert model.power(0.0) == 290.0
        assert model.power(1.0) == 300.0

    def test_storage_anchor_points(self):
        model = DevicePowerModel.storage()
        assert model.power(0.0) == 310.0
        assert model.power(1.0) == 390.0

    def test_monotone_in_utilization(self):
        model = DevicePowerModel.storage()
        u = np.linspace(0.0, 1.0, 11)
        watts = model.power(u)
        assert np.all(np.diff(watts) >= 0)

    def test_fixed_model_is_flat(self):
        model = DevicePowerModel.fixed(123.0)
        assert model.power(0.0) == model.power(1.0) == 123.0
        assert model.constant_watts == 123.0

    def test_peak_below_idle_rejected(self):
        with pytest.raises(ModelError):
            DevicePowerModel(DevicePowerModel.server().kind, 300.0, 290.0)

    def test_fixed_with_distinct_bounds_rejected(self):
        from axpue import DeviceKind

        with pytest.raises(ModelError):
            DevicePowerModel(DeviceKind.FIXED, 100.0, 200.0)


class TestFacilityOverheadModel:
    def test_negative_parameter_rejected(self):
        with pytest.raises(ModelError):
            FacilityOverheadModel(-1.0, 0.1, 0.1)

    def test_loss_fraction_below_one(self):
        with pytest.raises(ModelError):
            FacilityOverheadModel(0.0, 0.1, 1.0)


def one_server_scenario(profile, overhead=None, duration=600.0, period=60.0):
    record = DeviceRecord("srv", DeviceCategory.IT_EQUIPMENT, "test server")
    return SimScenario(
        name="test",
        duration=duration,
        sample_period=period,
        devices=((record, DevicePowerModel.server()),),
        utilization_profiles={"srv": profile} if profile else {},
        runs=(
            ApplicationRun(
                run_id="job",
                category=ApplicationCategory.DATA_ANALYSIS,
                start=0.0,
                end=duration,
                work=WorkMeasure(WorkKind.BYTES_PROCESSED, 10**9),
                attributed_devices=frozenset({"srv"}),
            ),
        ),
        overhead=overhead or FacilityOverheadModel(50.0, 0.4, 0.05),
    )


def traces_by_device(scenario):
    out = simulate(scenario)
    traces = parse_power_csv(io.StringIO(out.power_csv.decode("utf-8")))
    return {t.device_id: t for t in traces}


class TestSimulate:
    def test_idle_profile_emits_idle_watts(self):
        traces = traces_by_device(one_server_scenario(profile=None))
        assert np.all(traces["srv"].watts == 290.0)

    def test_full_load_profile_emits_peak_watts(self):
        scenario = one_server_scenario(profile=((0.0, 1.0), (600.0, 1.0)))
        traces = traces_by_device(scenario)
        assert np.all(traces["srv"].watts == 300.0)

    def test_storage_full_load(self):
        record = DeviceRecord("arr", DeviceCategory.IT_EQUIPMENT, "array")
        scenario = SimScenario(
            name="storage",
            duration=600.0,
            sample_period=60.0,
            devices=((record, DevicePowerModel.storage()),),
            utilization_profiles={"arr": ((0.0, 1.0), (600.0, 1.0))},
            runs=(),
            overhead=FacilityOverheadModel(0.0, 0.0, 0.0),
        )
        traces = traces_by_device(scenario)
        assert np.all(traces["arr"].watts == 390.0)

    def test_zero_overhead_means_pue_one(self):
        scenario = one_server_scenario(
            profile=None, overhead=FacilityOverheadModel(0.0, 0.0, 0.0)
        )
        report = run_pipeline(scenario)
        assert report.pue == pytest.approx(1.0, rel=1e-12)
        traces = traces_by_device(scenario)
        assert np.all(traces["facility-cooling"].watts == 0.0)

    def test_overhead_closure_at_every_instant(self):
        profile = ((0.0, 0.2), (300.0, 0.9), (600.0, 0.4))
        overhead = FacilityOverheadModel(75.0, 0.37, 0.08)
        traces = traces_by_device(one_server_scenario(profile, overhead))
        it = traces["srv"].watts
        assert np.allclose(traces["facility-cooling"].watts, 0.37 * it, rtol=1e-12)
        assert np.allclose(traces["facility-transmission"].watts, 0.08 * it, rtol=1e-12)
        assert np.all(traces["facility-other"].watts == 75.0)
        total = (
            it
            + traces["facility-cooling"].watts
            + traces["facility-transmission"].watts
            + traces["facility-other"].watts
        )
        assert np.all(total >= it)

    def test_deterministic_bytes(self):
        scenario = one_server_scenario(profile=((0.0, 0.3), (600.0, 0.8)))
        a, b = simulate(scenario), simulate(scenario)
        assert a.power_csv == b.power_csv
        assert a.runs_jsonl == b.runs_jsonl
        assert a.inventory_json == b.inventory_json
        assert a.manifest_json == b.manifest_json

    def test_samples_cover_ragged_duration(self):
        scenario = one_server_scenario(profile=None, duration=127.5, period=60.0)
        traces = traces_by_device(scenario)
        assert traces["srv"].times[-1] == 127.5
        assert list(traces["srv"].times[:3]) == [0.0, 60.0, 120.0]

    def test_energy_matches_closed_form(self):
        # Ramp 0 -> 1 over the first half, flat after: mean utilization over
        # [0, D] is 0.25 + 0.5 = 0.75 of the 10 W swing above idle.
        duration = 600.0
        profile = ((0.0, 0.0), (300.0, 1.0), (600.0, 1.0))
        report = run_pipeline(one_server_scenario(profile))
        expected_mean_watts = 290.0 + 10.0 * (0.5 * 0.5 + 0.5 * 1.0)
        expected_joules = expected_mean_watts * duration
        assert report.window.it_energy == pytest.approx(expected_joules, rel=1e-9)

    def test_run_window_must_fit_duration(self):
        record = DeviceRecord("srv", DeviceCategory.IT_EQUIPMENT)
        oversized_run = ApplicationRun(
            run_id="job",
            category=ApplicationCategory.DATA_ANALYSIS,
            start=0.0,
            end=600.0,
            work=WorkMeasure(WorkKind.BYTES_PROCESSED, 10**9),
            attributed_devices=frozenset({"srv"}),
        )
        with pytest.raises(ModelError):
            SimScenario(
                name="bad",
                duration=10.0,
                sample_period=5.0,
                devices=((record, DevicePowerModel.server()),),
                utilization_profiles={},
                runs=(oversized_run,),
                overhead=FacilityOverheadModel(0.0, 0.0, 0.0),
            )

    def test_profile_outside_unit_interval_rejected(self):
        with pytest.raises(ModelError):
            one_server_scenario(profile=((0.0, 1.5), (600.0, 1.5)))

    def test_reserved_overhead_id_rejected(self):
        record = DeviceRecord("facility-cooling", DeviceCategory.IT_EQUIPMENT)
        with pytest.raises(ModelError):
            SimScenario(
                name="bad",
                duration=60.0,
                sample_period=10.0,
                devices=((record, DevicePowerModel.server()),),
                utilization_profiles={},
                runs=(),
                overhead=FacilityOverheadModel(0.0, 0.0, 0.0),
            )


class TestReferenceScenarios:
    def test_five_scenarios(self):
        names = [s.name for s in paper_scenarios()]
        assert names == ["bigdatabench", "svm", "sort", "grep", "linpack"]

    def test_pinned_powers(self):
        by_name = {s.name: s for s in paper_scenarios()}
        grep = by_name["grep"]
        (record, model), = grep.devices
        assert record.category is DeviceCategory.IT_EQUIPMENT
        assert model.constant_watts == pytest.approx(92331.0, rel=1e-12)
        total = model.constant_watts * (
            1.0
            + grep.overhead.cooling_coefficient
            + grep.overhead.transmission_loss_fraction
        ) + grep.overhead.fixed_watts
        assert total == pytest.approx(138636.0, rel=1e-12)

    def test_durations_follow_from_rates(self):
        by_name = {s.name: s for s in paper_scenarios()}
        assert by_name["grep"].duration == pytest.approx(1e8 / 24916.998, rel=1e-12)
        assert by_name["grep"].runs[0].work.amount == 100 * 10**9
        # 20 GB input: 2e7 KB of work at the pinned SVM powers.
        svm = by_name["svm"]
        assert svm.runs[0].work.amount == 20 * 10**9
        assert svm.devices[0][1].constant_watts == pytest.approx(103766.0, rel=1e-12)
        assert svm.duration == pytest.approx(2e7 / 134.854, rel=1e-12)

    def test_linpack_flop_counter(self):
        linpack = {s.name: s for s in paper_scenarios()}["linpack"]
        assert linpack.duration == 3600.0
        assert linpack.runs[0].work.amount == int(50.46e9 * 3600)
        assert linpack.runs[0].category is ApplicationCategory.HIGH_PERFORMANCE_COMPUTING

    def test_builtin_lookup(self):
        assert builtin_scenario("GREP").name == "grep"
        assert builtin_scenario("sort1").name == "sort1"
        with pytest.raises(ModelError):
            builtin_scenario("warp-drive")
        with pytest.raises(ModelError):
            builtin_scenario("grep", data_gb=10.0)


class TestSortComparison:
    def test_shapes(self):
        sort1, sort2 = sort_comparison_scenarios()
        assert sort2.duration > sort1.duration
        assert sort1.runs[0].work.amount == sort2.runs[0].work.amount
        assert sort1.overhead == sort2.overhead

    def test_identical_scenarios_give_equal_metrics(self):
        sort1, _ = sort_comparison_scenarios()
        a = run_pipeline(sort1)
        b = run_pipeline(sort1)
        assert a.pue == b.pue
        assert a.per_run[0].appue == b.per_run[0].appue

    def test_discrimination(self):
        sort1, sort2 = sort_comparison_scenarios()
        r1, r2 = run_pipeline(sort1), run_pipeline(sort2)
        assert abs(r1.pue - r2.pue) / r1.pue <= 0.02
        assert r1.per_run[0].appue > r2.per_run[0].appue

    def test_doubling_duration_lowers_appue(self):
        _, sort2 = sort_comparison_scenarios()
        # Windows and profiles stretch; work counters and meter cadence stay.
        slow = dataclasses.replace(
            sort2,
            duration=sort2.duration * 2.0,
            utilization_profiles={
                device_id: tuple((t * 2.0, u) for t, u in profile)
                for device_id, profile in sort2.utilization_profiles.items()
            },
            runs=tuple(
                dataclasses.replace(run, start=run.start * 2.0, end=run.end * 2.0)
                for run in sort2.runs
            ),
        )
        fast_report = run_pipeline(sort2)
        slow_report = run_pipeline(slow)
        assert slow_report.per_run[0].appue < fast_report.per_run[0].appue

    def test_hot_reducer_profile(self):
        _, sort2 = sort_comparison_scenarios()
        reduce_levels = {
            device_id: profile[-1][1]
            for device_id, profile in sort2.utilization_profiles.items()
        }
        assert reduce_levels["node-01"] == 1.0
        assert all(v == 0.15 for k, v in reduce_levels.items() if k.startswith("node-") and k != "node-01")


class TestManifest:
    def test_round_trip_equality(self):
        for scenario in (*paper_scenarios(), *sort_comparison_scenarios()):
            again = scenario_from_manifest(scenario_to_manifest(scenario))
            assert again == scenario

    def test_round_trip_resimulates_identically(self):
        scenario = builtin_scenario("grep")
        direct = simulate(scenario)
        via_manifest = simulate(scenario_from_manifest(direct.manifest_json))
        assert via_manifest.power_csv == direct.power_csv
        assert via_manifest.runs_jsonl == direct.runs_jsonl

    def test_manifest_has_no_seed_and_old_seed_key_is_ignored(self):
        scenario = builtin_scenario("grep")
        manifest = json.loads(scenario_to_manifest(scenario))
        assert "seed" not in manifest
        manifest["seed"] = 1234
        assert scenario_from_manifest(json.dumps(manifest)) == scenario

    def test_bad_manifest_rejected(self):
        from axpue.errors import SchemaError

        with pytest.raises(SchemaError):
            scenario_from_manifest('{"schema": "axpue-scenario/1"}')
        with pytest.raises(SchemaError):
            scenario_from_manifest("[]")
