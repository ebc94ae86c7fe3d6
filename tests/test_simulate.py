"""Simulator device models, scenarios, determinism, and analytic exactness."""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import random

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
from axpue.cli import main
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
    traces = parse_power_csv(io.BytesIO(out.power_csv))
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


def mixed_fleet_scenario(name: str, duration: float, period: float, seed: int = 7):
    """A server, a storage array and a fixed load with seeded utilization profiles."""
    rng = random.Random(seed)

    def profile():
        inner = sorted(rng.uniform(0.0, duration) for _ in range(3))
        return ((0.0, rng.random()), *((t, rng.random()) for t in inner), (duration, rng.random()))

    server = DeviceRecord("srv-a", DeviceCategory.IT_EQUIPMENT, "server")
    storage = DeviceRecord("arr-1", DeviceCategory.IT_EQUIPMENT, "storage array")
    switch = DeviceRecord("switch", DeviceCategory.IT_EQUIPMENT, "fixed load")
    return SimScenario(
        name=name,
        duration=duration,
        sample_period=period,
        devices=(
            (server, DevicePowerModel.server()),
            (storage, DevicePowerModel.storage()),
            (switch, DevicePowerModel.fixed(41.7)),
        ),
        utilization_profiles={"srv-a": profile(), "arr-1": profile()},
        runs=(
            ApplicationRun(
                run_id="job",
                category=ApplicationCategory.DATA_ANALYSIS,
                start=0.0,
                end=duration,
                work=WorkMeasure(WorkKind.BYTES_PROCESSED, 3 * 10**9),
                attributed_devices=frozenset({"srv-a", "arr-1"}),
            ),
        ),
        overhead=FacilityOverheadModel(12.5, 0.31, 0.045),
    )


SMALL_SCENARIOS = {
    "ragged": mixed_fleet_scenario("ragged", duration=127.5, period=60.0),
    "fine": mixed_fleet_scenario("fine", duration=100.0, period=0.7),
}

# SHA-256 of power.csv, runs.jsonl, inventory.json and manifest.json, in that
# order.  They pin the simulator's output bytes, not just their repeatability.
PINNED_DIGESTS = {
    "paper:bigdatabench": (
        "347199723c7de1b7a0d8ed0f0e783dc0798499df4a38de134fa33680693d5ee9",
        "3052afb77236142e96050e7110a7c4479df93abdcfd2c51b40abe121e105f02b",
        "a181599b2ac6176762271a5b041cafbb599fb19dd49c9b7eb07c833381947c2d",
        "e207d36c0c603e81799407cd85fcaa1c60a41cfebe37c6212dcf9fa10626e260",
    ),
    "paper:svm": (
        "cfaa3400149157bfe4f2f4af8207e2f371983c3f0362c7625907cca5109cc12d",
        "0b3e0b9770d40de0d0490c2bba07349083688835cd15e6ca08a486b16ebdaece",
        "a181599b2ac6176762271a5b041cafbb599fb19dd49c9b7eb07c833381947c2d",
        "3d5fb2f4edc3a78b88f9ca98a50aaf0058e515d3b2586d6cee5255cad5735aa0",
    ),
    "paper:sort": (
        "2e24fa53b378925e824d4cb57a8282a898c19411e1c23952de701a6fd289fe17",
        "fc9ee3ff9bb61502c4b49ac2d1c06ba0fef27b5f0adc088cee1d0ce1bce5fb4a",
        "a181599b2ac6176762271a5b041cafbb599fb19dd49c9b7eb07c833381947c2d",
        "4aaf418ca6842c729b44552200c57cf9cc6049d0f9209f871d1f1a28a91c2f8c",
    ),
    "paper:grep": (
        "24e10bedd8e4a44422410957182689fb9eba128af57e4f952a59824225dc5f65",
        "25e074ccaebf7f55f72c1ecbba1e66fa5765ba29cd6084ac3ffd6297c69b629e",
        "a181599b2ac6176762271a5b041cafbb599fb19dd49c9b7eb07c833381947c2d",
        "d1ac59994b8888faa4faaed8b6566692d321b3ad44904e62f5927cf05b268282",
    ),
    "paper:linpack": (
        "81252a0cf52371a6be4c490d030315b91129ee87f756768bd43e04d1a1e23cb2",
        "c4a131c584e8c8e8b06673bd20ab2fb2ceb0d3faacf17e830fab35d252c3c409",
        "a181599b2ac6176762271a5b041cafbb599fb19dd49c9b7eb07c833381947c2d",
        "67d89f62102af78e7c4d490a07f8921b937353a518a154ac7a699a84dcf0ef40",
    ),
    "paper:sort1": (
        "28cc08a51d911e231bc23ced69c46106a1d79cc17355c59271c805559ec05f29",
        "ab679c0c9eef11095b563538e81bcfb3bb62f4536b240cc63efdc5382d09feee",
        "753bd2e32c9d2ea8ce91f89d458e41b88dd7d67cb2e47f5bfebbaf93fa4ca6c5",
        "5083d307c0a45bbef94f4c4f3ddff812e8777b83b8f70441f5d063465aa1841c",
    ),
    "paper:sort2": (
        "692719a46ecc3d982d4c65792eb9f6eb0a83e816d62757d0fae61bce79457466",
        "e891b1c4cc1f16655276e09066472a913129754d8aae6dc54e13c796f4d65a26",
        "753bd2e32c9d2ea8ce91f89d458e41b88dd7d67cb2e47f5bfebbaf93fa4ca6c5",
        "43c817d1171ffa3dc62c2dfccd2c0e21c63b8c5ad24e8f2b1ad2cbbb86ab1336",
    ),
    "ragged": (
        "90e5498088b5c36b2309547f1a9f25eb50df41d34da337f9c9d14b7c8a1229da",
        "f3cb49f4c225b3be90d127ad287a8ea1b98e2d1a8f7879ce95c7c6e33f67561f",
        "98d28cded479c69a68f8f7b2fc03eeb64e3a52f6f7459a138790c854e0784c3e",
        "d688fa4a3fe0faac2fb0e5f82a167bc7cdd3787aca8ea09587ed1c131edd9e6d",
    ),
    "fine": (
        "c6ba6f7b6dae2eec12612f481f68507beb3a3657f019a8210aecba1397e1d46b",
        "86f3ca4ae5b7db8de8348371b9cf4ec9a0107e96e8df1235a7a4b3240b8c61a3",
        "98d28cded479c69a68f8f7b2fc03eeb64e3a52f6f7459a138790c854e0784c3e",
        "28fee2375e7de6325908dd149f9c903f5648678648cede204995e71625e70430",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_simulated_bytes_are_pinned(name):
    scenario = (
        builtin_scenario(name.removeprefix("paper:"))
        if name.startswith("paper:")
        else SMALL_SCENARIOS[name]
    )
    out = simulate(scenario)
    files = (out.power_csv, out.runs_jsonl, out.inventory_json, out.manifest_json)
    assert tuple(hashlib.sha256(data).hexdigest() for data in files) == PINNED_DIGESTS[name]


def many_runs_scenario(seed: int = 31) -> SimScenario:
    """Three servers, 5 s samples, 120 back-to-back runs on each of {srv-a, srv-b} and {srv-c}.

    Each run edge sits on a sample or, half of the time, between two samples,
    so windows with and without interior samples and with either kind of edge
    all occur.
    """
    rng = random.Random(seed)
    period, steps, runs_per_group = 5.0, 1200, 120
    ids = ("srv-a", "srv-b", "srv-c")

    def profile():
        inner = sorted(rng.sample(range(1, steps), 10))
        return tuple((i * period, rng.random()) for i in (0, *inner, steps))

    def edge(step):
        return step * period + (rng.uniform(0.1, 4.9) if rng.random() < 0.5 else 0.0)

    runs = []
    for group in (frozenset(ids[:2]), frozenset(ids[2:])):
        cuts = sorted(rng.sample(range(steps), 2 * runs_per_group))
        for k in range(runs_per_group):
            runs.append(
                ApplicationRun(
                    run_id=f"req-{min(group)}-{k:03d}",
                    category=ApplicationCategory.SERVICE,
                    start=edge(cuts[2 * k]),
                    end=edge(cuts[2 * k + 1]),
                    work=WorkMeasure(WorkKind.REQUESTS_ANSWERED, rng.randrange(1, 10**6)),
                    attributed_devices=group,
                )
            )
    return SimScenario(
        name="many-runs",
        duration=steps * period,
        sample_period=period,
        devices=tuple(
            (DeviceRecord(d, DeviceCategory.IT_EQUIPMENT, "server"), DevicePowerModel.server())
            for d in ids
        ),
        utilization_profiles={d: profile() for d in ids},
        runs=tuple(runs),
        overhead=FacilityOverheadModel(250.0, 0.35, 0.04),
    )


# SHA-256 of the JSON and CSV reports that `axpue compute` writes for each
# scenario, in that order.  They pin every report byte, down to the last bit
# of each integrated energy.
PINNED_REPORT_DIGESTS = {
    "paper:bigdatabench": (
        "ad2d9f3f10408b07ad34c3c30450f8a79cb614bcb250ef8472eadb1470055a75",
        "3efce3592f7090d29f4a998162b2061eaf774b0e88e8c5722b90d4fb91eb05d3",
    ),
    "paper:grep": (
        "8be74cc06ad2eb5f1f205e97dd82688dfcc921ee916ed59901f2caedf16b6f3c",
        "55c38175c8488c7c57f23e3c17bbead6d239b697ccbc8f9c1c9574173a1f9783",
    ),
    "paper:linpack": (
        "b918d59fd47c59de6e814cd7c38b3a53985907e97a94253bfaf02bdf5e34edf7",
        "cc45f9e34db39fb7f46c3b8092f4f3220616fc65ee061dc43adf9da7dae897b0",
    ),
    "paper:sort": (
        "a054011615537696ea7e4a8847d95697dd4758a307c530f3f371ad3a75ffcefb",
        "1ee520249cd7dae73eadc7003c57cca9b1c66572c70cbaccc05f6bf08cc08f1e",
    ),
    "paper:sort1": (
        "1bae6f392f4b6ece43538cf25e804fbde908b52753a584ee6d8f29a03c48cb67",
        "054d85da1c0ed86405bc4696697ba8281f2b051fc9ae3df8fff09cd82281512f",
    ),
    "paper:sort2": (
        "c1a1de61bad5d1d734eb6f5e0238485571fef56a3db6f9dc106204ee19672aeb",
        "b32292270c32c8731df1dcaad214fd2dff3abd54c9e1125c877cbd41e632695d",
    ),
    "paper:svm": (
        "fe3da2af5141b53d2323c842107611b20c9d5c8e0e193587ccc2c6b778352389",
        "a9b2ed78e51aabe9ac559b7b369cb6e10979f95551bad057a45c056570dde3a4",
    ),
    "many-runs": (
        "0a0066bdc74278bc761abeeef091647f5b061b2488ebea7807d6abb17246578a",
        "be22d1d77f7cc22a07e0d4e2485ecd5ce3d2f2113f59c2761cb53272acde69ef",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORT_DIGESTS))
def test_report_bytes_are_pinned(name, tmp_path):
    if name.startswith("paper:"):
        assert main(["simulate", name, "--out", str(tmp_path)]) == 0
    else:
        simulate(many_runs_scenario()).write_to(tmp_path)
    digests = []
    for fmt in ("json", "csv"):
        out = tmp_path / f"report.{fmt}"
        inputs = {"power": "power.csv", "runs": "runs.jsonl", "inventory": "inventory.json"}
        args = ["compute", "--format", fmt, "--out", str(out)]
        for kind, file in inputs.items():
            args += [f"--{kind}", str(tmp_path / file)]
        assert main(args) == 0
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert tuple(digests) == PINNED_REPORT_DIGESTS[name]


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

    @pytest.mark.parametrize(
        "entry, line, message",
        [
            ([1], 2, "missing key 'run_id'"),
            ("abc", 2, "missing key 'run_id'"),
            ({"run_id": "x"}, 2, "missing key 'category'"),
            (7, None, "malformed scenario manifest: argument of type 'int' is not iterable"),
            (
                "run_idcategorystartendworkdevices",
                None,
                "malformed scenario manifest: string indices must be integers, not 'str'",
            ),
        ],
    )
    def test_run_entry_that_is_no_run_object_rejected(self, entry, line, message):
        from axpue.errors import SchemaError

        manifest = json.loads(scenario_to_manifest(builtin_scenario("grep")))
        manifest["runs"].append(entry)
        with pytest.raises(SchemaError) as excinfo:
            scenario_from_manifest(json.dumps(manifest))
        assert (excinfo.value.line, str(excinfo.value)) == (line, message)
