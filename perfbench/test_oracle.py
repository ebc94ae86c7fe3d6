"""Tests of the benchmark's oracle and fleet generation on small fleets.

Run from the root of a checkout::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

import fleets
import oracle

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from axpue.cli import main as axpue_main  # noqa: E402
from axpue.simulate import scenario_from_manifest, simulate  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(fleets, "FLEET_SERVERS", 8)
    monkeypatch.setattr(fleets, "MANY_RUNS_SERVERS", 4)
    monkeypatch.setattr(fleets, "MANY_RUNS_PER_PAIR", 20)


def _compute(manifest: dict, directory: Path) -> dict:
    """Simulate ``manifest`` into ``directory`` and return the computed report."""
    simulate(scenario_from_manifest(json.dumps(manifest))).write_to(directory)
    return _report(directory)


def _report(directory: Path) -> dict:
    out = directory / "report.json"
    code = axpue_main(
        [
            "compute",
            "--power", str(directory / "power.csv"),
            "--runs", str(directory / "runs.jsonl"),
            "--inventory", str(directory / "inventory.json"),
            "--out", str(out),
        ]
    )
    assert code == 0
    return json.loads(out.read_bytes())


@pytest.mark.parametrize("make", [fleets.fleet_manifest, fleets.many_runs_manifest])
def test_oracle_accepts_the_program_report(small, tmp_path, make):
    manifest = make(7)
    report = _compute(manifest, tmp_path)
    assert oracle.check_report(report, oracle.expected_report(manifest)) == []


def test_manifest_is_seeded_and_carries_no_seed_key():
    assert fleets.many_runs_manifest(3) == fleets.many_runs_manifest(3)
    assert fleets.many_runs_manifest(3) != fleets.many_runs_manifest(4)
    assert "seed" not in fleets.fleet_manifest(3)


def test_many_runs_share_devices_only_in_sequence(small):
    by_pair: dict[tuple, list] = {}
    for run in fleets.many_runs_manifest(5)["runs"]:
        by_pair.setdefault(tuple(run["devices"]), []).append((run["start"], run["end"]))
    for windows in by_pair.values():
        windows.sort()
        assert all(a_end <= b_start for (_, a_end), (b_start, _) in zip(windows, windows[1:]))


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r["per_run"][1].__setitem__("appue", r["per_run"][1]["appue"] * (1 + 1e-8)),
        lambda r: r["per_run"][0].__setitem__("weight", r["per_run"][0]["weight"] * 1.01),
        lambda r: r["window"]["energy_joules_by_category"].__setitem__("other", 0.0),
        lambda r: r.__setitem__("pue", r["pue"] + 1e-6),
        lambda r: r["per_run"].pop(),
        lambda r: r["per_run"][0].__setitem__("run_id", "someone-else"),
        lambda r: r["per_run"][0]["performance"].__setitem__("unit", "requests_per_second"),
        lambda r: r["provenance"].__setitem__("trace_count", 3),
        lambda r: r["window"].__setitem__("start", r["window"]["start"] + 30.0),
    ],
)
def test_oracle_rejects_a_corrupted_report(small, tmp_path, corrupt):
    manifest = fleets.fleet_manifest(11)
    report = _compute(manifest, tmp_path)
    bad = copy.deepcopy(report)
    corrupt(bad)
    assert oracle.check_report(bad, oracle.expected_report(manifest))


def test_rfc3339_rewrite_agrees_with_the_epoch_fleet(small, tmp_path):
    manifest = fleets.fleet_manifest(2)
    epoch = _compute(manifest, tmp_path / "epoch")
    fleets.rewrite_rfc3339(tmp_path / "epoch", tmp_path / "rfc")
    lines = (tmp_path / "rfc" / "power.csv").read_text().splitlines()
    assert lines[1].split(",")[:2] == ["srv-0000", "2026-01-01T00:00:00Z"]
    assert lines[2].split(",")[:2] == ["srv-0001", "2026-01-01T00:00:00Z"]  # time-major
    rfc = _report(tmp_path / "rfc")
    shift = fleets.RFC3339_EPOCH
    assert oracle.check_report(rfc, oracle.expected_report(manifest, shift)) == []
    assert oracle.compare_reports(rfc, epoch, shift) == []
    epoch["per_run"][1]["it_power_kw"] *= 1 + 1e-8
    assert oracle.compare_reports(rfc, epoch, shift)
