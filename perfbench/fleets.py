"""Seeded scenario manifests for the benchmark fleets, and the RFC 3339 rewrite.

Everything here is plain Python: the program under test only ever sees the
manifest (fed to ``axpue simulate``) and the files it generates.

Utilization breakpoints and run windows sit on the sample grid, so the
trapezoidal integral of the emitted samples equals the closed-form integral
of the piecewise-linear profile that ``oracle.py`` computes.
"""

from __future__ import annotations

import json
import random
import sys
from datetime import datetime, timezone
from pathlib import Path

SCENARIO_SCHEMA = "axpue-scenario/1"
DAY_S = 86_400

# Epoch of the rewritten fleet: 2026-01-01T00:00:00Z.
RFC3339_EPOCH = 1_767_225_600

FLEET_SERVERS = 200
FLEET_PERIOD_S = 30
FLEET_GROUP = 4  # servers per run; groups are disjoint, so runs may overlap
FLEET_BREAKPOINTS = 24

MANY_RUNS_SERVERS = 32
MANY_RUNS_PERIOD_S = 10
MANY_RUNS_PER_PAIR = 250  # 16 pairs x 250 = 4,000 runs
MANY_RUNS_BREAKPOINTS = 48


def _server(rng: random.Random, device_id: str) -> dict:
    idle = round(rng.uniform(120.0, 260.0), 3)
    peak = round(idle + rng.uniform(40.0, 220.0), 3)
    return {
        "device_id": device_id,
        "category": "it_equipment",
        "label": "",
        "model": {"kind": "server", "idle_watts": idle, "peak_watts": peak},
    }


def _profile(rng: random.Random, steps: int, period: int, breakpoints: int) -> list:
    """Piecewise-linear utilization with breakpoints on the sample grid."""
    inner = rng.sample(range(1, steps), breakpoints - 2)
    grid = [0, *sorted(inner), steps]
    return [[float(i * period), rng.random()] for i in grid]


def _overhead(rng: random.Random) -> dict:
    return {
        "fixed_watts": round(rng.uniform(500.0, 5000.0), 3),
        "cooling_coefficient": round(rng.uniform(0.2, 0.6), 4),
        "transmission_loss_fraction": round(rng.uniform(0.02, 0.08), 4),
    }


def _manifest(name: str, period: int, devices: list, profiles: dict, runs: list, overhead: dict) -> dict:
    return {
        "schema": SCENARIO_SCHEMA,
        "name": name,
        "duration": float(DAY_S),
        "sample_period": float(period),
        "devices": devices,
        "utilization_profiles": profiles,
        "runs": runs,
        "overhead": overhead,
    }


def fleet_manifest(seed: int) -> dict:
    """200 servers, 30 s samples over 24 h, 50 runs on disjoint groups of 4."""
    rng = random.Random(seed)
    steps = DAY_S // FLEET_PERIOD_S
    ids = [f"srv-{i:04d}" for i in range(FLEET_SERVERS)]
    devices = [_server(rng, d) for d in ids]
    profiles = {d: _profile(rng, steps, FLEET_PERIOD_S, FLEET_BREAKPOINTS) for d in ids}
    runs = []
    for g in range(FLEET_SERVERS // FLEET_GROUP):
        lo, hi = sorted(rng.sample(range(steps + 1), 2))
        runs.append(
            {
                "run_id": f"job-{g:03d}",
                "category": "data_analysis",
                "start": float(lo * FLEET_PERIOD_S),
                "end": float(hi * FLEET_PERIOD_S),
                "work": {"type": "bytes_processed", "value": rng.randrange(10**9, 10**12)},
                "devices": ids[g * FLEET_GROUP:(g + 1) * FLEET_GROUP],
            }
        )
    return _manifest("bench-fleet", FLEET_PERIOD_S, devices, profiles, runs, _overhead(rng))


def many_runs_manifest(seed: int) -> dict:
    """32 servers, 10 s samples over 24 h, 4,000 runs on 16 server pairs.

    Runs follow one another within a pair and overlap in time across pairs.
    """
    rng = random.Random(seed)
    steps = DAY_S // MANY_RUNS_PERIOD_S
    ids = [f"node-{i:03d}" for i in range(MANY_RUNS_SERVERS)]
    devices = [_server(rng, d) for d in ids]
    profiles = {
        d: _profile(rng, steps, MANY_RUNS_PERIOD_S, MANY_RUNS_BREAKPOINTS) for d in ids
    }
    runs = []
    for p in range(MANY_RUNS_SERVERS // 2):
        cuts = sorted(rng.sample(range(steps + 1), 2 * MANY_RUNS_PER_PAIR))
        for k in range(MANY_RUNS_PER_PAIR):
            lo, hi = cuts[2 * k], cuts[2 * k + 1]
            runs.append(
                {
                    "run_id": f"req-{p:02d}-{k:03d}",
                    "category": "service",
                    "start": float(lo * MANY_RUNS_PERIOD_S),
                    "end": float(hi * MANY_RUNS_PERIOD_S),
                    "work": {"type": "requests_answered", "value": rng.randrange(10**3, 10**7)},
                    "devices": ids[2 * p:2 * p + 2],
                }
            )
    # Interleave pairs in start order, as a scheduler log would list them.
    runs.sort(key=lambda r: (r["start"], r["run_id"]))
    return _manifest("bench-many-runs", MANY_RUNS_PERIOD_S, devices, profiles, runs, _overhead(rng))


MANIFESTS = {"fleet": fleet_manifest, "fleet_rfc3339": fleet_manifest, "many_runs": many_runs_manifest}


def write_manifest(manifest: dict, path: Path) -> None:
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def rfc3339(epoch_seconds: float) -> str:
    """Whole-second RFC 3339 UTC string of an offset from ``RFC3339_EPOCH``."""
    moment = datetime.fromtimestamp(RFC3339_EPOCH + int(epoch_seconds), tz=timezone.utc)
    return moment.strftime("%Y-%m-%dT%H:%M:%SZ")


def rewrite_rfc3339(src: Path, dst: Path) -> None:
    """Rewrite a simulated fleet with RFC 3339 timestamps in time-major order.

    Power rows are regrouped so that each tick lists every device, in the
    simulator's device order, as a collector polling all devices writes them.
    Watt strings are copied verbatim; run windows become RFC 3339 strings.
    """
    dst.mkdir(parents=True, exist_ok=True)
    with open(src / "power.csv", encoding="utf-8") as f:
        header = f.readline()
        by_tick: dict[str, list[tuple[str, str]]] = {}
        for line in f:
            device_id, stamp, watts = line.rstrip("\n").split(",")
            by_tick.setdefault(stamp, []).append((device_id, watts))
    with open(dst / "power.csv", "w", encoding="utf-8", newline="") as out:
        out.write(header)
        for stamp in sorted(by_tick, key=float):
            text = rfc3339(float(stamp))
            out.write("".join(f"{d},{text},{w}\n" for d, w in by_tick[stamp]))
    lines = []
    for raw in (src / "runs.jsonl").read_text(encoding="utf-8").splitlines():
        obj = json.loads(raw)
        obj["start"], obj["end"] = rfc3339(obj["start"]), rfc3339(obj["end"])
        lines.append(json.dumps(obj, sort_keys=True) + "\n")
    (dst / "runs.jsonl").write_text("".join(lines), encoding="utf-8")
    (dst / "inventory.json").write_bytes((src / "inventory.json").read_bytes())


if __name__ == "__main__":
    # The rewrite holds the whole fleet in memory, so run.py runs it in a
    # child: a parent's peak RSS carries over into the children it spawns.
    if len(sys.argv) != 4 or sys.argv[1] != "rewrite":
        sys.exit("usage: python3 perfbench/fleets.py rewrite SRC_DIR DST_DIR")
    rewrite_rfc3339(Path(sys.argv[2]), Path(sys.argv[3]))
