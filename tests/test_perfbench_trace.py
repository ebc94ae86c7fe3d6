"""The traced benchmark path: ``perfbench/trace_worker.py`` on ``paper:grep``.

``perfbench/run.py --trace 1`` writes a per-layer metric whose wrapped
public function was never called as ``0.0`` marked absent, and writes its
last line with ``json.dumps``, which spells a non-finite metric ``NaN`` or
``Infinity``; it exits 0 either way.  So a public function that the
pipeline stopped calling by its module-level name, or a non-finite metric,
would pass the benchmark silently; this test fails instead.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from axpue.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _reject(constant: str):
    raise ValueError(f"non-finite JSON constant {constant}")


def test_trace_worker_reports_every_layer_metric(tmp_path):
    sim_dir = tmp_path / "sim"
    assert main(["simulate", "paper:grep", "--out", str(sim_dir)]) == 0
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "trace_worker.py"),
            "--inputs", str(sim_dir),
            "--manifest", str(sim_dir / "manifest.json"),
            "--seconds", "0",
            "--spans", str(tmp_path / "spans.json"),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["failed"] == 0
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # run.py measures cli.import_s itself, in fresh interpreters.
    expected = {m["name"] for m in benchmark["per_layer"]} - {"cli.import_s"}
    assert expected - set(result["metrics"]) == set()
    assert all(math.isfinite(result["metrics"][name]) for name in expected)
