"""The committed perf trajectory: every record in BENCH_perfbench.json has one shape."""

from __future__ import annotations

import json
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "BENCH_perfbench.json"
FIELDS = {
    "commit", "date", "workload", "seeds", "seconds", "metrics",
    "cpu_slowdown", "failed", "python", "numpy",
}
METRICS = {"compute_s", "rows_per_s", "peak_rss_mb", "setup_s"}


def test_every_record_has_the_same_keys():
    records = json.loads(BENCH.read_text(encoding="utf-8"))
    assert records
    for record in records:
        assert set(record) == FIELDS
        assert set(record["metrics"]) == METRICS
        for spread in record["metrics"].values():
            assert set(spread) == {"median", "q1", "q3"}
            assert spread["q1"] <= spread["median"] <= spread["q3"]
