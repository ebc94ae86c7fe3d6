"""Traced in-process run of ``axpue compute``: per-layer times from spans.

Run by ``run.py --trace 1`` in a fresh interpreter, with the checkout's
``src`` on ``PYTHONPATH``::

    python3 perfbench/trace_worker.py --inputs DIR --manifest PATH \
        --seconds N --spans OUT.json

It wraps the public functions of each ``axpue`` module (never a private
name, and only names that exist), so the program itself carries no tracing
code.  Each wrapped call records a span (name, start, end, parent, rep) in
memory; the spans are written to ``--spans`` when the run ends.  The
pipeline is ``axpue.cli.main(["compute", ...])``, run in rounds of tracing
off, tracing on, and ``axpue compute`` as a subprocess: the median
within-round differences are the tracing overhead and the CLI overhead
(interpreter start, imports and exit).  Prints one JSON object as its last
line.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Layer (module of axpue) -> public functions wrapped in that layer.
TARGETS = {
    "io": ("parse_power_csv", "parse_runs_jsonl", "parse_inventory_json", "load_bundle", "write_report"),
    "integrate": ("integrate_power", "check_coverage", "category_energy"),
    "engine": ("analyze", "build_report"),
    "simulate": ("scenario_from_manifest", "simulate"),
}
PARSE_SPANS = ("io.parse_power_csv", "io.parse_runs_jsonl", "io.parse_inventory_json")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans around wrapped functions, patched into every axpue module."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, rep, rss0, rss1]
        self.rep = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.wrapped: set[str] = set()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        # Only the CSV parse records the process's max RSS around it.
        rss = _maxrss_mb if name == "io.parse_power_csv" else lambda: 0.0

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.rep, rss(), 0.0])
            stack.append(idx)
            spans[idx][1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                spans[idx][6] = rss()
                stack.pop()

        return traced

    def prepare(self) -> None:
        """Resolve targets and build wrappers; a missing name is left unwrapped."""
        for layer, names in TARGETS.items():
            try:
                module = importlib.import_module(f"axpue.{layer}")
            except ImportError:
                continue
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                self.wrapped.add(f"{layer}.{name}")
                # Patch every module-level reference: callers import by name.
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "axpue" or mod_name.startswith("axpue.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, attr, fn, wrapper))

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)


# Per-layer metric -> the span whose summed duration it is.
SPAN_TOTALS = {
    "io.parse_power_csv_s": "io.parse_power_csv",
    "io.parse_runs_jsonl_s": "io.parse_runs_jsonl",
    "io.write_report_s": "io.write_report",
    "integrate.integrate_power_s": "integrate.integrate_power",
    "integrate.category_energy_s": "integrate.category_energy",
    "engine.analyze_s": "engine.analyze",
    "engine.build_report_s": "engine.build_report",
}


def _rep_metrics(spans: list[list], rep: int, wrapped: set[str]) -> dict[str, float]:
    """Per-layer sums over the spans of one traced pipeline repetition.

    A metric whose span never occurred is left out, so it reads as absent.
    """
    mine = [(i, s) for i, s in enumerate(spans) if s[4] == rep]
    child_time: dict[int, float] = {}
    for _, s in mine:
        if s[3] >= 0:
            child_time[s[3]] = child_time.get(s[3], 0.0) + (s[2] - s[1])
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    self_time: dict[str, float] = {}  # by span name
    parse_in_bundle = 0.0
    for i, s in mine:
        name, dur = s[0], s[2] - s[1]
        total[name] = total.get(name, 0.0) + dur
        count[name] = count.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + dur - child_time.get(i, 0.0)
        if name in PARSE_SPANS and s[3] >= 0 and spans[s[3]][0] == "io.load_bundle":
            parse_in_bundle += dur
    out = {metric: total[span] for metric, span in SPAN_TOTALS.items() if span in total}
    if "io.load_bundle" in total:
        out["io.load_bundle_validate_s"] = total["io.load_bundle"] - parse_in_bundle
    if "engine.analyze" in total:
        out["engine.analyze_self_s"] = self_time["engine.analyze"]
    for layer in ("io", "integrate", "engine"):
        own = [t for name, t in self_time.items() if name.startswith(layer + ".")]
        if own:
            out[f"{layer}.self_s"] = sum(own)
    if "integrate.integrate_power" in wrapped:
        windows = count.get("integrate.integrate_power", 0)
        out["integrate.windows"] = float(windows)
        if windows:
            out["integrate.us_per_window"] = total["integrate.integrate_power"] / windows * 1e6
    return out


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # subprocess.run then stops the CLI child


def main() -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", type=Path, required=True, help="directory with power.csv, runs.jsonl, inventory.json")
    ap.add_argument("--manifest", type=Path, required=True, help="scenario manifest to simulate in-process")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spans", type=Path, required=True, help="where to write the spans")
    args = ap.parse_args()

    import axpue.cli

    tracer = Tracer()
    tracer.prepare()
    report_path = args.inputs / "report.inproc.json"
    argv = [
        "compute",
        "--power", str(args.inputs / "power.csv"),
        "--runs", str(args.inputs / "runs.jsonl"),
        "--inventory", str(args.inputs / "inventory.json"),
        "--format", "json",
        "--out", str(report_path),
    ]
    cli_report = args.inputs / "report.cli.json"
    cli_argv = [sys.executable, "-m", "axpue.cli", *argv[:-1], str(cli_report)]
    digests: set[str] = set()
    failed = 0

    def pipeline(traced: bool) -> float:
        nonlocal failed
        if traced:
            tracer.install()
        try:
            tic = time.perf_counter()
            code = axpue.cli.main(argv)
            elapsed = time.perf_counter() - tic
        finally:
            tracer.uninstall()
        if code != 0:
            failed += 1
        digests.add(hashlib.sha256(report_path.read_bytes()).hexdigest())
        return elapsed

    def cli() -> float:
        nonlocal failed
        tic = time.perf_counter()
        code = subprocess.run(cli_argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=150).returncode
        elapsed = time.perf_counter() - tic
        if code != 0:
            failed += 1
        digests.add(hashlib.sha256(cli_report.read_bytes()).hexdigest())
        return elapsed

    # Rep 0 is traced first, so the RSS rise across parsing starts from a
    # process that has only imported the program; it also warms caches.
    tracer.rep = 0
    pipeline(traced=True)
    first_parse = next((s for s in tracer.spans if s[0] == "io.parse_power_csv"), None)
    # Rounds of untraced, traced and CLI runs; differences are taken within a
    # round, so drift in machine speed between rounds cancels.
    untraced_s: list[float] = []
    tracing_cost: list[float] = []
    cli_cost: list[float] = []
    start = time.perf_counter()
    rep = 0
    while rep < 2 or time.perf_counter() - start < args.seconds:
        untraced = pipeline(traced=False)
        rep += 1
        tracer.rep = rep
        tracing_cost.append(pipeline(traced=True) - untraced)
        cli_cost.append(cli() - untraced)
        untraced_s.append(untraced)
    per_rep = [_rep_metrics(tracer.spans, r, tracer.wrapped) for r in range(1, rep + 1)]

    metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0] if all(k in m for m in per_rep)}
    rows = (args.inputs / "power.csv").read_bytes().count(b"\n") - 1
    if "io.parse_power_csv_s" in metrics:
        metrics["io.parse_power_csv_rows_per_s"] = rows / metrics["io.parse_power_csv_s"]
    if first_parse is not None:
        metrics["io.parse_power_csv_rss_mb"] = first_parse[6] - first_parse[5]
    metrics["io.report_bytes"] = float(report_path.stat().st_size)
    metrics["trace.pipeline_s"] = statistics.median(untraced_s)
    metrics["trace.overhead_s"] = statistics.median(tracing_cost)
    metrics["cli.overhead_s"] = statistics.median(cli_cost)

    # Simulator layer, last: it raises the process's peak RSS.
    if {"simulate.simulate", "simulate.scenario_from_manifest"} <= tracer.wrapped:
        sim_module = importlib.import_module("axpue.simulate")
        tracer.rep = rep + 1
        tracer.install()
        try:
            scenario = sim_module.scenario_from_manifest(args.manifest.read_bytes())
            output = sim_module.simulate(scenario)
        finally:
            tracer.uninstall()
        sim = [s for s in tracer.spans if s[4] == rep + 1 and s[0] == "simulate.simulate"][0]
        metrics["simulate.simulate_s"] = sim[2] - sim[1]
        metrics["simulate.rows_per_s"] = (output.power_csv.count(b"\n") - 1) / metrics["simulate.simulate_s"]

    args.spans.write_text(
        json.dumps({"fields": ["name", "start", "end", "parent", "rep", "rss0_mb", "rss1_mb"], "spans": tracer.spans}),
        encoding="utf-8",
    )
    print(
        json.dumps(
            {
                "metrics": metrics,
                "absent": [f"{l}.{n}" for l, ns in TARGETS.items() for n in ns if f"{l}.{n}" not in tracer.wrapped],
                "reps": 1 + 3 * rep,
                "failed": failed,
                "report_sha256": sorted(digests),
                "spans": len(tracer.spans),
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
