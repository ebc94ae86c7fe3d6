"""CLI behaviour: subcommands, exit codes, and byte reproducibility."""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tomllib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axpue.cli import main
from axpue.io import read_report

HEADER = "device_id,timestamp,watts\n"
INVENTORY = '[{"device_id": "s1", "category": "it_equipment", "label": ""}]'
VALID_POWER = HEADER + "s1,0,100\ns1,50,100\ns1,100,100\n"


def run_line(**overrides) -> str:
    obj = {
        "run_id": "job",
        "category": "data_analysis",
        "start": 0.0,
        "end": 100.0,
        "work": {"type": "bytes_processed", "value": 10**9},
        "devices": ["s1"],
    }
    obj.update(overrides)
    return json.dumps(obj) + "\n"


def write_inputs(tmp_path, power_text, runs_text, inventory_text=INVENTORY):
    (tmp_path / "power.csv").write_text(power_text)
    (tmp_path / "runs.jsonl").write_text(runs_text)
    (tmp_path / "inventory.json").write_text(inventory_text)
    return [
        "--power", str(tmp_path / "power.csv"),
        "--runs", str(tmp_path / "runs.jsonl"),
        "--inventory", str(tmp_path / "inventory.json"),
    ]


def simulate_and_compute(tmp_path, scenario: str, fmt: str = "json"):
    sim_dir = tmp_path / scenario.replace(":", "_")
    assert main(["simulate", scenario, "--out", str(sim_dir)]) == 0
    out = tmp_path / f"{scenario.replace(':', '_')}.{fmt}"
    code = main(
        [
            "compute",
            "--power", str(sim_dir / "power.csv"),
            "--runs", str(sim_dir / "runs.jsonl"),
            "--inventory", str(sim_dir / "inventory.json"),
            "--format", fmt,
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestComputeCommand:
    def test_reference_scenario_report(self, tmp_path):
        out = simulate_and_compute(tmp_path, "paper:grep")
        report = read_report(out.read_bytes())
        assert report.pue == pytest.approx(1.502, abs=1e-3)
        assert report.per_run[0].appue == pytest.approx(269.866, abs=1e-3)
        assert report.per_run[0].aopue == pytest.approx(179.730, abs=1e-3)

    def test_csv_row_matches_published_table(self, tmp_path):
        out = simulate_and_compute(tmp_path, "paper:bigdatabench", fmt="csv")
        lines = out.read_text().splitlines()
        assert lines[1] == "BigDataBench,100.412,147.323,563.271 KB/s,1.467,5.6096,3.823"

    def test_unknown_run_device_exits_2(self, tmp_path, capsys):
        args = write_inputs(
            tmp_path,
            HEADER + "s1,0,100\ns1,50,100\ns1,100,100\n",
            run_line(devices=["ghost"]),
        )
        assert main(["compute", *args]) == 2
        assert "ghost" in capsys.readouterr().err

    def test_duplicate_inventory_id_names_the_inventory(self, tmp_path, capsys):
        inventory = json.dumps(json.loads(INVENTORY) * 2)
        args = write_inputs(tmp_path, VALID_POWER, run_line(), inventory)
        assert main(["compute", *args]) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'inventory.json'}: duplicate device_id 's1'\n"
        )

    @pytest.mark.parametrize("device_id", [7, "", None])
    def test_bad_inventory_device_id_names_the_entry(self, tmp_path, capsys, device_id):
        inventory = json.dumps(
            [*json.loads(INVENTORY), {"device_id": device_id, "category": "cooling"}]
        )
        args = write_inputs(tmp_path, VALID_POWER, run_line(), inventory)
        assert main(["compute", *args]) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'inventory.json'}: inventory entry 1: "
            f"device_id must be a non-empty string, got {device_id!r}\n"
        )

    def test_unmetered_device_exits_3(self, tmp_path, capsys):
        inventory = json.dumps(
            [*json.loads(INVENTORY), {"device_id": "c1", "category": "cooling", "label": ""}]
        )
        args = write_inputs(tmp_path, VALID_POWER, run_line(), inventory)
        assert main(["compute", *args]) == 3
        assert capsys.readouterr().err == "error: device 'c1' (cooling) has no telemetry\n"

    def test_coverage_gap_exits_3(self, tmp_path, capsys):
        args = write_inputs(
            tmp_path,
            HEADER + "s1,0,100\ns1,600,100\n",
            run_line(end=600.0),
        )
        assert main(["compute", *args, "--max-gap", "60"]) == 3
        assert "max_gap" in capsys.readouterr().err

    @pytest.mark.parametrize("max_gap", ["nan", "0", "-1"])
    def test_max_gap_must_be_positive(self, tmp_path, capsys, max_gap):
        args = write_inputs(tmp_path, HEADER + "s1,0,100\ns1,100000,100\n", "")
        code = main(["compute", *args, "--max-gap", max_gap, "--window", "0,100000"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: max_gap must be > 0 seconds, got {float(max_gap)!r}\n"
        )

    def test_infinite_max_gap_bridges_any_gap(self, tmp_path, capsys):
        args = write_inputs(tmp_path, HEADER + "s1,0,100\ns1,100000,100\n", "")
        assert main(["compute", *args, "--max-gap", "inf", "--window", "0,100000"]) == 0
        assert read_report(capsys.readouterr().out).pue == 1.0

    def test_category_energy_past_float_range_exits_2(self, tmp_path, capsys):
        # 5e305 W over 100 s is 5e307 J a device, finite; four sum past float range.
        devices = ["s1", "s2", "s3", "s4"]
        inventory = json.dumps([{"device_id": d, "category": "it_equipment", "label": ""} for d in devices])
        power = HEADER + "".join(f"{d},{t},5e305\n" for d in devices for t in (0, 50, 100))
        args = write_inputs(tmp_path, power, run_line(), inventory)
        assert main(["compute", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: it_equipment energies sum past float range\n"

    @pytest.mark.parametrize(
        "target, power, runs, where, message",
        [
            ("power.csv", HEADER + "s1,0,100\ns1,5\n", run_line(), 3, "expected 3 fields, got 2"),
            (
                "power.csv",
                HEADER + "s1,0,100\ns1,60,100\ns1,0,5\n",
                run_line(),
                4,
                "device 's1': duplicate timestamp 0.0",
            ),
            (
                "power.csv",
                HEADER + "s1,0,100\ns1,60,-1\n",
                run_line(),
                3,
                "device 's1': watts must be finite and >= 0, got -1.0",
            ),
            (
                "runs.jsonl",
                VALID_POWER,
                run_line() + run_line(run_id="late", start=100.0, end=50.0),
                2,
                "run 'late': end (50.0) must be > start (100.0)",
            ),
            (
                "runs.jsonl",
                VALID_POWER,
                run_line(end=50.0) + run_line(start=50.0),
                2,
                "duplicate run_id 'job'",
            ),
        ],
        ids=[
            "short-row", "duplicate-sample", "negative-watts", "inverted-run", "duplicate-run-id",
        ],
    )
    def test_errors_name_file_and_line(self, tmp_path, capsys, target, power, runs, where, message):
        args = write_inputs(tmp_path, power, runs)
        assert main(["compute", *args]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / target}:{where}: {message}\n"

    # The inputs of tests/test_io.py::TestLoadBundle's rejection tests.
    @pytest.mark.parametrize(
        "power, runs, extra, code",
        [
            (HEADER + "ghost,0,100\n", "", ["--window", "0,60"], 2),
            (HEADER + "s1,0,100\ns1,60,100\ns1,100,100\n", run_line(end=300.0), [], 3),
            (HEADER + "s1,0,100\ns1,60,100\ns1,100,100\n", run_line(devices=["ghost"]), [], 2),
        ],
        ids=["unknown-trace-device", "run-outside-coverage", "unknown-run-device"],
    )
    def test_bundle_rejection_exit_codes(self, tmp_path, power, runs, extra, code):
        args = write_inputs(tmp_path, power, runs)
        assert main(["compute", *args, "--max-gap", "60", *extra]) == code

    def test_run_outside_window_exits_2(self, tmp_path, capsys):
        args = write_inputs(
            tmp_path,
            HEADER + "s1,0,100\ns1,50,100\ns1,100,100\n",
            run_line(),
        )
        assert main(["compute", *args, "--window", "0,50"]) == 2
        assert "'job'" in capsys.readouterr().err

    def test_window_override(self, tmp_path, capsys):
        args = write_inputs(
            tmp_path,
            HEADER + "s1,0,100\ns1,50,100\ns1,100,100\ns1,150,100\ns1,200,100\n",
            run_line(),
        )
        assert main(["compute", *args, "--window", "0,200"]) == 0
        report = read_report(capsys.readouterr().out)
        assert report.window.start == 0.0
        assert report.window.end == 200.0

    def test_bad_window_exits_2(self, tmp_path):
        args = write_inputs(tmp_path, HEADER + "s1,0,100\ns1,100,100\n", run_line())
        assert main(["compute", *args, "--window", "oops"]) == 2
        assert main(["compute", *args, "--window", "5,5"]) == 2

    def test_inverted_window_message(self, tmp_path, capsys):
        args = write_inputs(tmp_path, HEADER + "s1,0,100\ns1,100,100\n", run_line())
        assert main(["compute", *args, "--window", "5000,100"]) == 2
        assert capsys.readouterr().err == (
            "error: window end (100.0) must be > start (5000.0)\n"
        )

    @pytest.mark.parametrize(
        "window, bounds",
        [("0,1e400", "start (0.0) and end (inf)"), ("nan,100", "start (nan) and end (100.0)")],
    )
    def test_non_finite_window_message(self, tmp_path, capsys, window, bounds):
        # An infinite end is not "<= start": the window's rule says why it fails.
        args = write_inputs(tmp_path, HEADER + "s1,0,100\ns1,100,100\n", run_line())
        assert main(["compute", *args, "--window", window]) == 2
        assert capsys.readouterr().err == f"error: window {bounds} must be finite\n"

    def test_work_value_beyond_float_range_exits_2(self, tmp_path, capsys):
        args = write_inputs(
            tmp_path,
            HEADER + "s1,0,100\ns1,50,100\ns1,100,100\n",
            run_line(work={"type": "bytes_processed", "value": 10**400}),
        )
        assert main(["compute", *args]) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'runs.jsonl'}:1: work amount is beyond float range\n"
        )

    def test_missing_file_exits_2(self, tmp_path):
        code = main(
            [
                "compute",
                "--power", str(tmp_path / "nope.csv"),
                "--runs", str(tmp_path / "nope.jsonl"),
                "--inventory", str(tmp_path / "nope.json"),
            ]
        )
        assert code == 2

    def test_compute_is_byte_reproducible(self, tmp_path):
        a = simulate_and_compute(tmp_path / "a", "paper:svm")
        b = simulate_and_compute(tmp_path / "b", "paper:svm")
        assert a.read_bytes() == b.read_bytes()


class TestSimulateCommand:
    def test_unknown_scenario_exits_2(self, tmp_path, capsys):
        assert main(["simulate", "paper:warp", "--out", str(tmp_path / "x")]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_outputs_are_byte_identical_across_runs(self, tmp_path):
        for name in ("one", "two"):
            assert main(["simulate", "paper:sort1", "--out", str(tmp_path / name)]) == 0
        for filename in ("power.csv", "runs.jsonl", "inventory.json", "manifest.json"):
            assert (tmp_path / "one" / filename).read_bytes() == (
                tmp_path / "two" / filename
            ).read_bytes()

    def test_manifest_reproduces_simulation(self, tmp_path):
        assert main(["simulate", "paper:grep", "--out", str(tmp_path / "direct")]) == 0
        manifest = tmp_path / "direct" / "manifest.json"
        assert main(["simulate", str(manifest), "--out", str(tmp_path / "again")]) == 0
        assert (tmp_path / "again" / "power.csv").read_bytes() == (
            tmp_path / "direct" / "power.csv"
        ).read_bytes()

    def test_seed_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "paper:grep", "--out", str(tmp_path), "--seed", "1"])
        assert info.value.code == 2

    def test_duplicate_run_id_in_manifest_exits_2(self, tmp_path, capsys):
        manifest = simulated_manifest(tmp_path)
        obj = json.loads(manifest.read_text())
        obj["runs"].append({**obj["runs"][0], "run_id": "Grep-again"})
        manifest.write_text(json.dumps(obj))
        assert main(["simulate", str(manifest), "--out", str(tmp_path / "two")]) == 0
        obj["runs"][1]["run_id"] = obj["runs"][0]["run_id"]
        manifest.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["simulate", str(manifest), "--out", str(tmp_path / "twice")]) == 2
        assert capsys.readouterr().err == "error: duplicate run_id 'Grep'\n"
        assert not (tmp_path / "twice").exists()

    def test_data_gb_override_for_sort(self, tmp_path):
        assert main(
            ["simulate", "paper:sort2", "--data-gb", "50", "--out", str(tmp_path / "s")]
        ) == 0
        manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert manifest["runs"][0]["work"]["value"] == 50 * 10**9

    def test_data_gb_rejected_for_pinned_scenarios(self, tmp_path):
        assert main(
            ["simulate", "paper:grep", "--data-gb", "50", "--out", str(tmp_path / "g")]
        ) == 2

    # Both fail before anything is allocated.
    def test_data_gb_beyond_a_finite_duration_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "s")
        assert main(["simulate", "paper:sort1", "--data-gb", "1e300", "--out", out]) == 2
        assert capsys.readouterr().err == "error: data_gb is too large to simulate, got 1e+300\n"

    def test_sample_grid_beyond_array_size_exits_2(self, tmp_path, capsys):
        manifest = simulated_manifest(tmp_path)
        obj = json.loads(manifest.read_text())
        obj["sample_period"] = 1e-300
        manifest.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["simulate", str(manifest), "--out", str(tmp_path / "again")]) == 2
        assert capsys.readouterr().err == (
            f"error: a duration of {obj['duration']!r} s sampled every 1e-300 s is too many samples\n"
        )

    def test_simulate_output_feeds_compute_cleanly(self, tmp_path, capsys):
        sim_dir = tmp_path / "sim"
        assert main(["simulate", "paper:linpack", "--out", str(sim_dir)]) == 0
        capsys.readouterr()
        code = main(
            [
                "compute",
                "--power", str(sim_dir / "power.csv"),
                "--runs", str(sim_dir / "runs.jsonl"),
                "--inventory", str(sim_dir / "inventory.json"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""


def single_run_report(run_id: str, it_power_kw: float) -> str:
    """A hand-written one-run report of 10 KB/s at PUE 1.5, its ApPUE, AoPUE
    and aggregates derived from its IT power (a zero IT power, which the
    reader rejects first, is given ApPUE 0)."""
    appue = 10.0 / it_power_kw if it_power_kw else 0.0
    return json.dumps(
        {
            "schema": "axpue-report/1",
            "window": {
                "start": 0.0,
                "end": 100.0,
                "energy_joules_by_category": {"it_equipment": 2.0, "cooling": 1.0},
            },
            "pue": 1.5,
            "per_run": [
                {
                    "run_id": run_id,
                    "category": "data_analysis",
                    "it_power_kw": it_power_kw,
                    "facility_power_kw": it_power_kw * 1.5,
                    "performance": {"value": 10.0, "unit": "kb_per_second"},
                    "appue": appue,
                    "aopue": appue / 1.5,
                    "weight": 1.0,
                }
            ],
            "weighted_appue": appue,
            "aggregated_aopue": appue / 1.5,
            "provenance": {},
        }
    )


class TestReportCommand:
    @staticmethod
    def five_reports(tmp_path) -> list[str]:
        return [
            str(
                simulate_and_compute(
                    tmp_path, f"paper:{name}"
                )
            )
            for name in ("bigdatabench", "svm", "sort", "grep", "linpack")
        ]

    def test_merged_table_matches_published_cells(self, tmp_path, capsys):
        files = self.five_reports(tmp_path)
        capsys.readouterr()
        assert main(["report", *files]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[1] == "BigDataBench,100.412,147.323,563.271 KB/s,1.467,5.6096,3.823"
        assert lines[2] == "SVM,103.766,150.897,134.854 KB/s,1.454,1.2996,0.894"
        assert lines[3] == "Sort,92.122,138.481,1588.128 KB/s,1.503,17.2394,11.468"
        assert lines[4] == "Grep,92.331,138.636,24916.998 KB/s,1.502,269.8660,179.730"
        assert lines[5].startswith("Linpack,122.679,170.685,50.460 GFLOPS,1.391,0.411,")
        # Mixed units across rows: aggregate ApPUE/AoPUE stay blank.
        assert lines[6] == "(aggregate),511.310,746.022,,1.459,,"
        assert captured.err == (
            "warning: performance units differ across runs (GFLOPS, KB/s); "
            "aggregate ApPUE/AoPUE left blank\n"
        )

    def test_single_report_passthrough(self, tmp_path, capsys):
        files = [str(simulate_and_compute(tmp_path, "paper:grep"))]
        assert main(["report", *files]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2

    def test_series_file(self, tmp_path):
        files = [str(simulate_and_compute(tmp_path, "paper:grep"))]
        merged = tmp_path / "merged.csv"
        assert main(["report", *files, "--out", str(merged)]) == 0
        series = tmp_path / "merged.series.csv"
        lines = series.read_text().splitlines()
        assert lines[0] == "workload,metric,value"
        metrics = {line.split(",")[1] for line in lines[1:]}
        assert metrics == {"pue", "appue", "aopue"}

    def test_uniform_units_fill_aggregate(self, tmp_path, capsys):
        files = [
            str(simulate_and_compute(tmp_path, "paper:sort")),
            str(simulate_and_compute(tmp_path, "paper:grep")),
        ]
        assert main(["report", *files]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "(aggregate),184.453,277.117,,1.502,143.6958,95.694"

    @pytest.mark.parametrize(
        "it_powers, bad",
        [((2.0, -1.0), "b"), ((0.0, 0.0), "a")],
        ids=["negative", "zero-total"],
    )
    def test_bad_it_power_exits_2(self, tmp_path, capsys, it_powers, bad):
        """A report row's IT power is checked when the report is read."""
        files = []
        for run_id, it_power_kw in zip("ab", it_powers):
            path = tmp_path / f"{run_id}.json"
            path.write_text(single_run_report(run_id, it_power_kw))
            files.append(str(path))
        assert main(["report", *files]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        it_power_kw = dict(zip("ab", it_powers))[bad]
        assert captured.err == (
            f"error: {tmp_path / bad}.json: run {bad!r}: it_power_kw must be finite and > 0, "
            f"got {it_power_kw!r}\n"
        )

    @pytest.mark.parametrize("it_power_kw", [math.inf, -1.0], ids=["infinite", "negative"])
    def test_edited_it_power_exits_2(self, tmp_path, capsys, it_power_kw):
        path = simulate_and_compute(tmp_path, "paper:grep")
        doc = json.loads(path.read_text())
        row = doc["per_run"][0]
        row["it_power_kw"] = it_power_kw
        row["facility_power_kw"] = it_power_kw * doc["pue"]
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: run 'Grep': it_power_kw must be finite and > 0, got {it_power_kw!r}\n"
        )

    @pytest.mark.parametrize(
        "it_power_kw, appue, field",
        [(1e308, 2.0, "facility_power_kw"), (1.0, math.inf, "appue")],
        ids=["facility-overflow", "infinite-appue"],
    )
    def test_non_finite_row_field_exits_2(self, tmp_path, capsys, it_power_kw, appue, field):
        """IT power 1e308 kW at PUE 2 overflows to an infinite facility power;
        an infinite ApPUE gives an infinite AoPUE.  Both pass the identities."""
        doc = json.loads(single_run_report("a", it_power_kw))
        doc["window"]["energy_joules_by_category"]["cooling"] = 2.0
        doc["pue"] = 2.0
        row = doc["per_run"][0]
        row["facility_power_kw"] = it_power_kw * 2.0
        row["appue"] = doc["weighted_appue"] = appue
        row["aopue"] = doc["aggregated_aopue"] = appue / 2.0
        path = tmp_path / "a.json"
        path.write_text(json.dumps(doc))  # as Infinity, which json reads back
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: run 'a': {field} must be finite, got inf\n"

    @pytest.mark.parametrize(
        "it_power_kw, powers",
        [(1e308, "IT powers"), (7e307, "facility powers")],
        ids=["it-power", "facility-power"],
    )
    def test_aggregate_power_past_float_range_exits_2(self, tmp_path, capsys, it_power_kw, powers):
        """Two valid one-run reports whose IT powers, or only their facility
        powers at PUE 1.5, sum past float range."""
        files = []
        for run_id in "ab":
            path = tmp_path / f"{run_id}.json"
            path.write_text(single_run_report(run_id, it_power_kw))
            read_report(path.read_text())
            files.append(str(path))
        assert main(["report", *files]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {powers} sum past float range\n"

    def test_report_power_past_float_range_exits_2(self, tmp_path, capsys):
        """A report of two runs whose IT powers sum past float range."""
        doc = json.loads(single_run_report("a", 1e308))
        row = doc["per_run"][0]
        row["weight"] = 0.5
        doc["per_run"].append({**row, "run_id": "b"})
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: IT powers sum past float range\n"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("start", math.nan, "window start (nan) and end ({end}) must be finite"),
            ("end", math.inf, "window start ({start}) and end (inf) must be finite"),
            ("weight", math.nan, "weights sum to nan, expected 1"),
        ],
        ids=["nan-start", "infinite-end", "nan-weight"],
    )
    def test_edited_non_finite_field_exits_2(self, tmp_path, capsys, field, value, message):
        path = simulate_and_compute(tmp_path, "paper:grep")
        doc = json.loads(path.read_text())
        window = dict(doc["window"])
        (doc["per_run"][0] if field == "weight" else doc["window"])[field] = value
        path.write_text(json.dumps(doc))  # as NaN or Infinity, which json reads back
        capsys.readouterr()
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message.format(**window)}\n"

    def test_schema_mismatch_exits_2(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"schema": "other/1"}')
        assert main(["report", str(bogus)]) == 2

    def test_errors_name_the_report_file(self, tmp_path, capsys):
        good, stub = tmp_path / "good.json", tmp_path / "stub.json"
        good.write_text(single_run_report("a", 1.0))
        stub.write_text('{"schema": "axpue-report/1"}')
        assert main(["report", str(good), str(stub)]) == 2
        assert capsys.readouterr().err == f"error: {stub}: malformed report document: 'window'\n"

    def test_forged_pue_exits_2(self, tmp_path, capsys):
        path = tmp_path / "forged.json"
        doc = json.loads(single_run_report("a", 1.0))
        # PUE 0.5, with every field derived from it rescaled to match.
        doc["pue"] = 0.5
        row = doc["per_run"][0]
        row["facility_power_kw"] = row["it_power_kw"] * 0.5
        row["aopue"] = row["appue"] / 0.5
        doc["aggregated_aopue"] = doc["weighted_appue"] / 0.5
        path.write_text(json.dumps(doc))
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: pue must be finite and >= 1, got 0.5\n"

    def test_duplicate_run_id_exits_2(self, tmp_path, capsys):
        doc = json.loads(single_run_report("a", 1.0))
        row = doc["per_run"][0]
        row["weight"] = 0.5
        doc["per_run"].append({**row, "run_id": "b"})
        read_report(json.dumps(doc))  # two distinct rows read back
        doc["per_run"][1]["run_id"] = "a"
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: duplicate run_id 'a'\n"

    def test_number_beyond_float_range_exits_2(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        doc = json.loads(single_run_report("a", 1.0))
        doc["per_run"][0]["facility_power_kw"] = 10**400
        path.write_text(json.dumps(doc))
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: malformed report document: int too large to convert to float\n"
        )


def two_run_report(tmp_path) -> Path:
    """``axpue compute``'s JSON report of runs 'a' (100 W) and 'b' (300 W)
    on a facility with 200 W of cooling."""
    inventory = json.dumps(
        [
            {"device_id": device_id, "category": category, "label": ""}
            for device_id, category in [("s1", "it_equipment"), ("s2", "it_equipment"), ("c", "cooling")]
        ]
    )
    power = HEADER + "".join(
        f"{device_id},{t},{watts}\n" for device_id, watts in [("s1", 100), ("s2", 300), ("c", 200)] for t in (0, 50, 100)
    )
    runs = run_line(run_id="a", devices=["s1"]) + run_line(
        run_id="b", devices=["s2"], work={"type": "bytes_processed", "value": 5 * 10**9}
    )
    path = tmp_path / "two.json"
    assert main(["compute", *write_inputs(tmp_path, power, runs, inventory), "--out", str(path)]) == 0
    return path


def scale_appue_and_aopue(doc):
    for row in doc["per_run"]:
        row["appue"] *= 10
        row["aopue"] *= 10


def set_weighted_appue(doc):
    doc["weighted_appue"] = 9999
    doc["aggregated_aopue"] = 9999 / doc["pue"]


def scale_performance(doc):
    for row in doc["per_run"]:
        row["performance"]["value"] *= 10


def empty_per_run(doc):
    doc["per_run"] = []


def null_aggregates(doc):
    doc["weighted_appue"] = doc["aggregated_aopue"] = None


def swap_weights(doc):
    a, b = doc["per_run"]
    a["weight"], b["weight"] = b["weight"], a["weight"]


def double_it_power(doc):
    row = doc["per_run"][0]
    for name in ("it_power_kw", "facility_power_kw"):
        row[name] *= 2
    for name in ("appue", "aopue"):
        row[name] /= 2


def service_unit_for_data_analysis(doc):
    doc["per_run"][0]["performance"]["unit"] = "requests_per_second"


#: Each edit of a two-run report, and the start of the error it gets.
FORGERIES = [
    (scale_appue_and_aopue, "run 'a': appue "),
    (set_weighted_appue, "weighted_appue 9999 != "),
    (scale_performance, "run 'a': appue "),
    (empty_per_run, "weighted_appue 150000.0 != IT-power-weighted appue None"),
    (null_aggregates, "weighted_appue None != IT-power-weighted appue 150000.0"),
    (swap_weights, "run 'a': weight 0.7499999999999999 != it_power_kw / summed it_power_kw 0.25"),
    (double_it_power, "run 'a': weight 0.25 != it_power_kw / summed it_power_kw 0.4"),
    (
        service_unit_for_data_analysis,
        "run 'a': category data_analysis requires kb_per_second performance, "
        "got requests_per_second",
    ),
]


class TestForgedReports:
    """A report whose derived fields disagree with its primary fields is
    rejected when it is read, naming the field and, for a row, the run."""

    @pytest.mark.parametrize(
        "forge, message",
        FORGERIES,
        ids=[forge.__name__.replace("_", "-") for forge, _ in FORGERIES],
    )
    def test_forgery_exits_2(self, tmp_path, capsys, forge, message):
        path = two_run_report(tmp_path)
        doc = json.loads(path.read_text())
        forge(doc)
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: {message}")


#: A JSON integer literal past Python's int-to-str digit limit (4,300 by default).
HUGE_INT = "7" * 5000
#: JSON nested far deeper than the interpreter's recursion limit.
DEEP = "[" * 100_000
DIGIT_LIMIT = "Exceeds the limit (4300 digits) for integer string conversion"


def simulated_manifest(tmp_path) -> Path:
    assert main(["simulate", "paper:grep", "--out", str(tmp_path / "sim")]) == 0
    return tmp_path / "sim" / "manifest.json"


class TestBadInputBytes:
    """Input no parser can read exits 2 with one error line, never a traceback."""

    @pytest.mark.parametrize("target", ["runs", "inventory"])
    def test_oversized_json_integer_in_compute_input(self, tmp_path, capsys, target):
        runs = run_line(work={"type": "bytes_processed", "value": 1}).replace(
            '"value": 1', f'"value": {HUGE_INT}'
        )
        inventory = INVENTORY.replace('"label": ""', f'"label": "", "rack": {HUGE_INT}')
        if target == "runs":
            args = write_inputs(tmp_path, VALID_POWER, runs)
            where = f"{tmp_path / 'runs.jsonl'}:1"
        else:
            args = write_inputs(tmp_path, VALID_POWER, run_line(), inventory)
            where = f"{tmp_path / 'inventory.json'}"
        assert main(["compute", *args]) == 2
        assert capsys.readouterr().err.startswith(f"error: {where}: invalid JSON: {DIGIT_LIMIT}")

    @pytest.mark.parametrize("target", ["runs", "inventory"])
    def test_deep_nesting_in_compute_input(self, tmp_path, capsys, target):
        if target == "runs":
            args = write_inputs(tmp_path, VALID_POWER, DEEP)
            where = f"{tmp_path / 'runs.jsonl'}:1"
        else:
            args = write_inputs(tmp_path, VALID_POWER, run_line(), DEEP)
            where = f"{tmp_path / 'inventory.json'}"
        assert main(["compute", *args]) == 2
        assert capsys.readouterr().err == f"error: {where}: invalid JSON: nested too deeply\n"

    def test_deep_nesting_in_report(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        path.write_text(DEEP)
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: invalid JSON report: nested too deeply\n"

    def test_deep_nesting_in_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(DEEP)
        assert main(["simulate", str(manifest), "--out", str(tmp_path / "sim")]) == 2
        assert capsys.readouterr().err == (
            "error: invalid scenario manifest: nested too deeply\n"
        )

    def test_oversized_json_integer_in_report(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        report = single_run_report("a", 1.0)
        path.write_text(report.replace('"pue": 1.5', f'"pue": {HUGE_INT}'))
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: invalid JSON report: {DIGIT_LIMIT}")

    def test_oversized_json_integer_in_manifest(self, tmp_path, capsys):
        manifest = simulated_manifest(tmp_path)
        text = manifest.read_text()
        duration = f'"duration": {json.loads(text)["duration"]!r}'
        manifest.write_text(text.replace(duration, f'"duration": {HUGE_INT}'))
        capsys.readouterr()
        assert main(["simulate", str(manifest), "--out", str(tmp_path / "again")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: invalid scenario manifest: {DIGIT_LIMIT}"
        )

    def test_manifest_number_beyond_float_range(self, tmp_path, capsys):
        manifest = simulated_manifest(tmp_path)
        obj = json.loads(manifest.read_text())
        obj["duration"] = 10**400
        manifest.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["simulate", str(manifest), "--out", str(tmp_path / "again")]) == 2
        assert capsys.readouterr().err == (
            "error: malformed scenario manifest: int too large to convert to float\n"
        )

    # 0xff never starts a UTF-8 sequence; 0xe9 (Latin-1 e-acute) needs two more bytes.
    @pytest.mark.parametrize(
        "target, bad, reason",
        [
            ("power.csv", b"s1,\xff150,100\n", "invalid start byte"),
            ("runs.jsonl", b'{"run_id": "\xe9"}\n', "invalid continuation byte"),
            ("inventory.json", b" \xe9\n", "invalid continuation byte"),
        ],
    )
    def test_invalid_utf8_in_compute_input(self, tmp_path, capsys, target, bad, reason):
        args = write_inputs(tmp_path, VALID_POWER, run_line())
        path = tmp_path / target
        path.write_bytes(path.read_bytes() + bad)
        assert main(["compute", *args]) == 2
        assert capsys.readouterr().err == f"error: {path}: not valid UTF-8 ({reason})\n"

    # The byte falls 1,000 to 20,000 bytes after the bad row, with \n or lone
    # \r line endings.
    @pytest.mark.parametrize(
        "ending, gap",
        [
            ("\n", 1000), ("\n", 5000), ("\n", 9000), ("\n", 20000),
            ("\r", 1000), ("\r", 5000), ("\r", 9000), ("\r", 20000),
        ],
        ids=[
            "lf-1000", "lf-5000", "lf-9000", "lf-20000",
            "cr-1000", "cr-5000", "cr-9000", "cr-20000",
        ],
    )
    def test_rows_before_an_undecodable_byte_are_checked_first(
        self, tmp_path, capsys, ending, gap
    ):
        rows = "".join(f"s1,{60 * i},100\n" for i in range(3, 3000))[:gap]
        text = HEADER + "s1,0,1\ns1,60,bad\n" + rows[: rows.rfind("\n") + 1]
        args = write_inputs(tmp_path, VALID_POWER, run_line())
        path = tmp_path / "power.csv"
        path.write_bytes(text.replace("\n", ending).encode() + b"\xff,0,1" + ending.encode())
        assert main(["compute", *args]) == 2
        assert capsys.readouterr().err == f"error: {path}:3: bad watts value 'bad'\n"

    def test_invalid_utf8_in_manifest(self, tmp_path, capsys):
        manifest = simulated_manifest(tmp_path)
        manifest.write_bytes(manifest.read_bytes().replace(b"grep", b"gr\xe9p", 1))
        capsys.readouterr()
        assert main(["simulate", str(manifest), "--out", str(tmp_path / "again")]) == 2
        assert capsys.readouterr().err == (
            "error: invalid scenario manifest: invalid continuation byte\n"
        )

    def test_csv_field_over_the_csv_limit(self, tmp_path, capsys):
        long_id = "s" * (csv.field_size_limit() + 1)
        args = write_inputs(tmp_path, VALID_POWER + f"{long_id},0,1\n", run_line())
        assert main(["compute", *args]) == 2
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'power.csv'}: field larger than field limit "
            f"({csv.field_size_limit()})\n"
        )


VALID_INPUTS = {
    "power": VALID_POWER.encode(),
    "runs": run_line().encode(),
    "inventory": INVENTORY.encode(),
}


def damaged(valid: bytes):
    """Arbitrary bytes, or the valid file with a span replaced by arbitrary bytes."""
    cut = st.integers(0, len(valid))
    span = st.tuples(cut, cut, st.binary(max_size=24))
    return st.one_of(
        st.binary(max_size=200),
        span.map(lambda s: valid[: min(s[:2])] + s[2] + valid[max(s[:2]) :]),
        st.integers(1, 100_000).map(lambda depth: b"[" * depth),
    )


@settings(max_examples=300, deadline=None)
@given(
    data=st.sampled_from(sorted(VALID_INPUTS)).flatmap(
        lambda target: st.tuples(st.just(target), damaged(VALID_INPUTS[target]))
    )
)
def test_compute_survives_any_bytes_in_one_input(data):
    target, content = data
    with tempfile.TemporaryDirectory() as tmp:
        args = ["compute"]
        for name, valid in VALID_INPUTS.items():
            path = Path(tmp) / name
            path.write_bytes(content if name == target else valid)
            args += [f"--{name}", str(path)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*args, "--out", str(Path(tmp) / "report.json")])
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().startswith("error: ")


def run_module(*args: str, **env: str) -> subprocess.CompletedProcess:
    """``python -m axpue.cli`` with ``args``, and ``env`` added to the environment."""
    return subprocess.run(
        [sys.executable, "-m", "axpue.cli", *args], capture_output=True, env={**os.environ, **env}
    )


def grep_compute_args(tmp_path) -> list[str]:
    """``compute`` and the inputs of a simulated ``paper:grep``."""
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "paper:grep", "--out", str(sim_dir)]) == 0
    return [
        "compute",
        "--power", str(sim_dir / "power.csv"),
        "--runs", str(sim_dir / "runs.jsonl"),
        "--inventory", str(sim_dir / "inventory.json"),
    ]


class TestModuleEntryPoint:
    def test_subprocess_prints_the_in_process_bytes(self, tmp_path, capsys):
        args = grep_compute_args(tmp_path)
        capsys.readouterr()
        assert main(args) == 0
        in_process = capsys.readouterr().out.encode("utf-8")
        child = run_module(*args)
        assert child.returncode == 0
        assert child.stdout == in_process

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_subprocess_writes_the_in_process_out_bytes(self, tmp_path, fmt):
        args = [*grep_compute_args(tmp_path), "--format", fmt]
        assert main([*args, "--out", str(tmp_path / "in_process")]) == 0
        child = run_module(*args, "--out", str(tmp_path / "child"))
        assert (child.returncode, child.stdout, child.stderr) == (0, b"", b"")
        assert (tmp_path / "child").read_bytes() == (tmp_path / "in_process").read_bytes()

    @pytest.mark.parametrize(
        "power, runs, code",
        [
            (HEADER + "s1,0,100\ns1,5\n", run_line(), 2),
            (HEADER + "s1,0,100\ns1,600,100\n", run_line(end=600.0), 3),
        ],
        ids=["parse-error", "coverage-gap"],
    )
    def test_subprocess_exit_code_and_stderr(self, tmp_path, capsys, power, runs, code):
        args = ["compute", *write_inputs(tmp_path, power, runs), "--max-gap", "60"]
        assert main(args) == code
        err = capsys.readouterr().err
        child = run_module(*args)
        assert (child.returncode, child.stdout) == (code, b"")
        assert child.stderr.decode("utf-8") == err

    def test_csv_report_on_a_stdout_that_is_not_utf8(self, tmp_path):
        # The report's bytes go to stdout as they go to --out, whatever the
        # encoding of stdout's text layer.
        args = grep_compute_args(tmp_path)
        runs = tmp_path / "sim" / "runs.jsonl"
        rows = [json.loads(line) for line in runs.read_text().splitlines()]
        for row in rows:
            row["run_id"] += "\u20ac"
        runs.write_text("".join(json.dumps(row) + "\n" for row in rows))
        args += ["--format", "csv"]
        assert main([*args, "--out", str(tmp_path / "report.csv")]) == 0
        child = run_module(*args, PYTHONIOENCODING="latin-1")
        assert (child.returncode, child.stderr) == (0, b"")
        assert child.stdout == (tmp_path / "report.csv").read_bytes()
        assert "Grep\u20ac".encode("utf-8") in child.stdout

    def test_main_leaves_the_collector_alone(self, tmp_path):
        # Only the command entry points freeze the heap before exit; a
        # caller of main() goes on running.
        frozen = gc.get_freeze_count()
        assert main(grep_compute_args(tmp_path)) == 0
        assert gc.get_freeze_count() == frozen
        pyproject = tomllib.loads((Path(__file__).parent.parent / "pyproject.toml").read_text())
        assert pyproject["project"]["scripts"]["axpue"] == "axpue.cli:console_main"
