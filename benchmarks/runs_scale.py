"""Per-run cost of the runs path at 4K, 16K and 64K runs, in-process.

Usage, from the root of a checkout::

    python3 benchmarks/runs_scale.py [--baseline DIR]

For this checkout, and first for the ``--baseline`` checkout when given,
fresh interpreters with that checkout's ``src`` on
``PYTHONPATH`` build inputs shaped like perfbench's ``many_runs`` in
memory: N service runs on 16 pairs of 32 servers, one after another within
a pair, and power traces at 10 s that cover them, three samples a run, plus
one cooling device.  At each N it measures four stages:

* ``parse_runs_jsonl`` of the runs JSONL text;
* ``analyze`` of the traces, the inventory and the parsed runs;
* ``write_report`` of the JSON report;
* ``read_report`` of the report's JSON bytes.

Each stage is first called once under ``tracemalloc``, for the heap its
result holds (``held_bytes_per_run``: the parsed runs, the report, its
bytes or the report read back) and its peak above where it started
(``peak_bytes_per_run``).  Then each stage gets its time in microseconds
a run (``us_per_run``), the best of ``REPEATS`` calls in each of
``PROCESSES`` fresh interpreters: the calls go in rounds in which the four
stages take turns, so that a slow spell of a shared host falls on one call
of each stage, not on all calls of one, and a process that runs slow from
start to end is outvoted.
One record per checkout is appended to ``BENCH_runs_scale.json`` at the
root of this checkout, with the commit, date,
Python and numpy versions, and per stage ``time_ratio``: the per-run time
at the largest N over that at the smallest.  A flat per-run cost gives 1.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (4_000, 16_000, 64_000)
REPEATS = 5
PROCESSES = 3
PAIRS = 16
PERIOD_S = 10.0
SLOT_S = 30.0  # a run lasts 20 s, then its pair idles for 10 s


def _inputs(n_runs: int):
    """(runs JSONL text, traces, inventory) of ``n_runs`` runs."""
    import numpy as np

    from axpue import DeviceCategory, DeviceRecord, Inventory, PowerTrace

    lines = []
    for k in range(n_runs):
        pair, slot = k % PAIRS, k // PAIRS
        run = {
            "run_id": f"req-{pair:02d}-{slot:05d}",
            "category": "service",
            "start": slot * SLOT_S,
            "end": slot * SLOT_S + 20.0,
            "work": {"type": "requests_answered", "value": 1000 + 7919 * k},
            "devices": [f"node-{2 * pair:03d}", f"node-{2 * pair + 1:03d}"],
        }
        lines.append(json.dumps(run) + "\n")
    servers = [f"node-{i:03d}" for i in range(2 * PAIRS)]
    times = np.arange(0.0, -(-n_runs // PAIRS) * SLOT_S + PERIOD_S, PERIOD_S)
    rng = np.random.default_rng(n_runs)
    traces = [PowerTrace(d, times, rng.uniform(100.0, 300.0, times.size)) for d in servers]
    traces.append(PowerTrace("crac", times, rng.uniform(1000.0, 2000.0, times.size)))
    inventory = Inventory(
        [DeviceRecord(d, DeviceCategory.IT_EQUIPMENT) for d in servers]
        + [DeviceRecord("crac", DeviceCategory.COOLING)]
    )
    return "".join(lines), traces, inventory


def _traced(call) -> tuple[object, int, int]:
    """``call()``, the traced bytes its result holds, and its traced peak."""
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held - before, peak - before


def measure(sizes: tuple[int, ...]) -> dict:
    """Per-run time and heap of each stage at each size, keyed by size."""
    import io
    import time

    from axpue import analyze, parse_runs_jsonl, read_report, write_report

    results = {}
    for n_runs in sizes:
        text, traces, inventory = _inputs(n_runs)
        stages = {
            "parse_runs_jsonl": lambda: parse_runs_jsonl(io.StringIO(text)),
            "analyze": lambda: analyze(traces, inventory, runs),
            "write_report": lambda: write_report(report),
            "read_report": lambda: read_report(data),
        }
        heap = {}
        for stage, call in stages.items():
            result, held, peak = _traced(call)
            if stage == "parse_runs_jsonl":
                runs = result
            elif stage == "analyze":
                report = result
            elif stage == "write_report":
                data = result
            heap[stage] = held, peak
            del result
        # The stages take turns, so that a slow spell of a shared host falls
        # on one call of each stage, not on every call of one.
        best = dict.fromkeys(stages, float("inf"))
        for _ in range(REPEATS):
            for stage, call in stages.items():
                tic = time.perf_counter()
                call()
                best[stage] = min(best[stage], time.perf_counter() - tic)
        results[str(n_runs)] = {
            stage: {
                "us_per_run": best[stage] / n_runs * 1e6,
                "held_bytes_per_run": held / n_runs,
                "peak_bytes_per_run": peak / n_runs,
            }
            for stage, (held, peak) in heap.items()
        }
    return results


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(checkout), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def _commit(checkout: Path) -> str:
    dirty = _git(checkout, "status", "--porcelain", "--untracked-files=no", "--", "src", "benchmarks")
    return _git(checkout, "rev-parse", "HEAD") + ("+dirty" if dirty else "")


def _record(checkout: Path) -> dict:
    """One record of ``checkout``'s program, measured in ``PROCESSES`` fresh
    interpreters: each stage's time is the best of theirs, its heap the
    first one's."""
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import runs_scale, numpy, platform; "
        "print(json.dumps({'runs': runs_scale.measure(runs_scale.SIZES), "
        "'python': platform.python_version(), 'numpy': numpy.__version__}))"
    )
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    runs = []
    for _ in range(PROCESSES):
        child = subprocess.run(
            [sys.executable, "-c", code, str(Path(__file__).resolve().parent)],
            check=True, capture_output=True, text=True, env=env,
        )
        measured = json.loads(child.stdout.strip().splitlines()[-1])
        runs.append(measured["runs"])
    for size, row in runs[0].items():
        for stage, cost in row.items():
            cost["us_per_run"] = min(other[size][stage]["us_per_run"] for other in runs)
    small, large = str(min(SIZES)), str(max(SIZES))
    return {
        "commit": _commit(checkout),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "sizes": list(SIZES),
        "repeats": REPEATS * PROCESSES,
        "runs": runs[0],
        "time_ratio": {
            stage: runs[0][large][stage]["us_per_run"] / cost["us_per_run"]
            for stage, cost in runs[0][small].items()
        },
        "python": measured["python"],
        "numpy": measured["numpy"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="per-run cost of the runs path at several run counts")
    ap.add_argument("--baseline", type=Path, help="a second checkout, measured first")
    args = ap.parse_args()
    sides = [ROOT] if args.baseline is None else [args.baseline.resolve(), ROOT]
    out = ROOT / "BENCH_runs_scale.json"
    records = json.loads(out.read_text()) if out.exists() else []
    for side in sides:
        records.append(_record(side))
        out.write_text(json.dumps(records, indent=1) + "\n")
        print(json.dumps(records[-1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
