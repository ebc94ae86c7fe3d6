"""``benchmarks/runs_scale.py`` at small run counts, and the shape of the
records it committed in ``BENCH_runs_scale.json``."""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("runs_scale", ROOT / "benchmarks" / "runs_scale.py")
runs_scale = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(runs_scale)

STAGES = {"parse_runs_jsonl", "analyze", "write_report", "read_report"}
COSTS = {"us_per_run", "held_bytes_per_run", "peak_bytes_per_run"}
#: The first records were made before ``read_report`` was measured, and
#: hold the other three stages only.
THREE_STAGE_RECORDS = 4


def check_runs(runs: dict, sizes: list[int], stages: set[str] = STAGES) -> None:
    assert set(runs) == set(map(str, sizes))
    for row in runs.values():
        assert set(row) == stages
        for cost in row.values():
            assert set(cost) == COSTS
            assert all(math.isfinite(value) and value > 0 for value in cost.values())


def test_measure_gives_every_stage_at_every_size():
    check_runs(runs_scale.measure((32, 64)), [32, 64])


def test_every_committed_record_has_the_same_keys():
    records = json.loads((ROOT / "BENCH_runs_scale.json").read_text(encoding="utf-8"))
    assert records
    for i, record in enumerate(records):
        stages = STAGES - {"read_report"} if i < THREE_STAGE_RECORDS else STAGES
        assert set(record) == {
            "commit", "date", "sizes", "repeats", "runs", "time_ratio", "python", "numpy",
        }
        check_runs(record["runs"], record["sizes"], stages)
        assert set(record["time_ratio"]) == stages
