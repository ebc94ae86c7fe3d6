"""Whole computations against the benchmark's closed-form oracle.

Small scenario manifests in the family of ``perfbench/fleets.py`` (servers
with piecewise-linear utilization, breakpoints and run windows on the
sample grid, overlapping runs on disjoint devices, both work kinds) are
simulated and computed through the CLI, with the writer's parts and the
parse's ranges forked.  Every report field must match what
``perfbench/oracle.py`` derives from the manifest alone, without the
program's integration or metrics code.  Rewrites of a simulated power CSV
that keep its samples must give the plain file's report bytes.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import axpue.io
from axpue.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fleets = _perfbench("fleets")
oracle = _perfbench("oracle")

WORK = {
    "data_analysis": "bytes_processed",
    "service": "requests_answered",
}


@st.composite
def manifests(draw):
    """A manifest whose grid has ``steps`` samples after 0, one group of
    servers per run sequence; runs of one group follow one another, and
    runs of different groups may overlap.  A report aggregates one
    performance unit, so all runs of a manifest have one work kind."""
    category = draw(st.sampled_from(sorted(WORK)))
    period = draw(st.sampled_from([10, 30, 60]))
    steps = draw(st.integers(2, 120))
    watts = st.floats(100.0, 300.0).map(lambda w: round(w, 3))
    groups = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    devices, profiles, runs = [], {}, []
    for g, size in enumerate(groups):
        ids = [f"srv-{g}-{i}" for i in range(size)]
        for device_id in ids:
            idle = draw(watts)
            devices.append(
                {
                    "device_id": device_id,
                    "category": "it_equipment",
                    "label": "",
                    "model": {"kind": "server", "idle_watts": idle, "peak_watts": idle + draw(watts)},
                }
            )
            if draw(st.booleans()):
                inner = draw(st.sets(st.integers(1, steps - 1), max_size=4))
                grid = [0, *sorted(inner), steps]
                profiles[device_id] = [[float(i * period), draw(st.floats(0.0, 1.0))] for i in grid]
        cuts = sorted(draw(st.sets(st.integers(0, steps), min_size=2, max_size=6)))
        bounds = list(zip(cuts, cuts[1:]))[::2]
        for k, (lo, hi) in enumerate(bounds):
            runs.append(
                {
                    "run_id": f"job-{g}-{k}",
                    "category": category,
                    "start": float(lo * period),
                    "end": float(hi * period),
                    "work": {"type": WORK[category], "value": draw(st.integers(10**3, 10**12))},
                    "devices": ids,
                }
            )
    overhead = {
        "fixed_watts": round(draw(st.floats(500.0, 5000.0)), 3),
        "cooling_coefficient": round(draw(st.floats(0.2, 0.6)), 4),
        "transmission_loss_fraction": round(draw(st.floats(0.02, 0.08)), 4),
    }
    manifest = fleets._manifest("oracle-fleet", period, devices, profiles, runs, overhead)
    manifest["duration"] = float(steps * period)
    return manifest


@settings(
    max_examples=50, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(manifest=manifests(), cpus=st.integers(2, 3))
def test_computed_reports_match_the_oracle(tmp_path_factory, manifest, cpus):
    work = tmp_path_factory.mktemp("oracle")
    fleets.write_manifest(manifest, work / "manifest.json")
    sim, report = work / "sim", work / "report.json"
    with mock.patch.multiple(axpue.io, _PART_ROWS=1, _RANGE_BYTES=1, _cpu_count=lambda: cpus):
        assert main(["simulate", str(work / "manifest.json"), "--out", str(sim)]) == 0
        assert main(
            [
                "compute",
                "--power", str(sim / "power.csv"),
                "--runs", str(sim / "runs.jsonl"),
                "--inventory", str(sim / "inventory.json"),
                "--out", str(report),
            ]
        ) == 0
    mismatches = oracle.check_report(json.loads(report.read_text()), oracle.expected_report(manifest))
    assert mismatches == []


def _compute(power: Path, sim: Path, report: Path) -> bytes:
    """The JSON report bytes of ``axpue compute`` on ``power`` and ``sim``'s other inputs."""
    assert main(
        [
            "compute",
            "--power", str(power),
            "--runs", str(sim / "runs.jsonl"),
            "--inventory", str(sim / "inventory.json"),
            "--out", str(report),
        ]
    ) == 0
    return report.read_bytes()


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    manifest=manifests(),
    cpus=st.integers(2, 3),
    batch=st.integers(1, 64),
    device_rows=st.integers(0, 8),
    shuffle=st.randoms(use_true_random=False),
)
def test_rewritten_power_csv_gives_the_plain_report(
    tmp_path_factory, manifest, cpus, batch, device_rows, shuffle
):
    # Time-major rows, as a poller writes them, put devices with the same
    # times into each batch, where they share time pieces; shuffled rows
    # send every device through the sort.  Small batches and forked ranges
    # put seams all over both.
    work = tmp_path_factory.mktemp("rewrite")
    fleets.write_manifest(manifest, work / "manifest.json")
    sim = work / "sim"
    assert main(["simulate", str(work / "manifest.json"), "--out", str(sim)]) == 0
    plain = _compute(sim / "power.csv", sim, work / "plain.json")
    header, *rows = (sim / "power.csv").read_bytes().splitlines(keepends=True)
    rewrites = {
        "plain": rows,
        "time-major": sorted(rows, key=lambda row: float(row.split(b",")[1])),
        "shuffled": shuffle.sample(rows, len(rows)),
    }
    with mock.patch.multiple(
        axpue.io, _BATCH_ROWS=batch, _DEVICE_ROWS=device_rows, _RANGE_BYTES=1, _cpu_count=lambda: cpus
    ):
        for name, lines in rewrites.items():
            power = work / f"{name}.csv"
            power.write_bytes(header + b"".join(lines))
            assert _compute(power, sim, work / f"{name}.json") == plain, name
