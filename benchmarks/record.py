"""Append perfbench results for one checkout, or a pair, to ``BENCH_perfbench.json``.

Usage, from the root of a checkout::

    python3 benchmarks/record.py --seeds 1 2 3 4 5 [--checkout DIR] [--baseline DIR]

For each workload that the checkout's ``BENCHMARK.json`` lists,
``perfbench/run.py`` of ``--checkout`` (default: this checkout) runs once
per seed, one after the other, for the ``run_seconds`` that the same file
sets.  One record per workload is appended: the checkout's commit, the
date, the seeds, the median, Q1 and Q3 of each end-to-end metric over the
seeds, the median ``cpu_slowdown``, the number of failed computations, and
the Python and numpy versions.
A checkout with uncommitted changes to the files the benchmark runs (see
``PROGRAM``), found before the first record is written, is recorded as
``<commit>+dirty``.

With ``--baseline``, a second checkout (say, the parent commit) runs each
seed back to back with ``--checkout``, the two alternating which goes
first, and each gets its own record per workload, baseline first.  A slow
spell of a shared host then falls on both sides of a pair, where records
made one after the other can differ by more than the change does.  Both
checkouts must commit the same ``perfbench/`` and ``BENCHMARK.json``.
Each run also prints one JSON line with its seed and metric values, so
the pairs can be compared one by one, and each workload ends with one JSON
line of pair verdicts (see :func:`pair_verdicts`).

Each checkout's runs cache bytecode in their own new, empty
``PYTHONPYCACHEPREFIX`` directory, and write it there even where
``PYTHONDONTWRITEBYTECODE`` is set.  So what a checkout's ``__pycache__``
holds does not matter: a stale one, with writing off, would make every
process of that side compile the modules it imports, and the other side
not.  Both sides compile each module once, in their first process.  (With
an empty prefix and writing off, every process would compile the standard
library and numpy too: ``import axpue.cli`` takes 0.85 s instead of 0.19 s.)
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The paths of a checkout whose uncommitted changes can change its results.
PROGRAM = ("src", "perfbench", "benchmarks", "BENCHMARK.json", "pyproject.toml")


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], check=True, capture_output=True, text=True).stdout.strip()


def _run(checkout: Path, pycache: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One perfbench run, with bytecode cached under ``pycache`` only:
    (its final JSON line, its full result record)."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=pycache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, env=env,
    )
    if proc.returncode not in (0, 1):  # 1 means some computations failed; that is recorded
        raise SystemExit(f"perfbench {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads((checkout / "perfbench" / ".work" / workload / "result.json").read_text())
    return summary, result


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def record(commit: str, workload: str, seeds: list[int], seconds: float, runs: list[tuple[dict, dict]]) -> dict:
    """One record from the ``_run`` results of ``seeds``, in order."""
    env = runs[0][1]["env"]
    return {
        "commit": commit,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workload": workload,
        "seeds": seeds,
        "seconds": seconds,
        "metrics": {
            name: _spread([summary["metrics"][name]["value"] for summary, _ in runs])
            for name in runs[0][0]["metrics"]
        },
        "cpu_slowdown": statistics.median(result["cpu_slowdown"] for _, result in runs),
        "failed": sum(summary["failed"] for summary, _ in runs),
        "python": env["python"],
        "numpy": env["numpy"],
    }


def pair_verdicts(end_to_end: list[dict], baseline: list[dict], checkout: list[dict]) -> dict:
    """Each end-to-end metric's verdict on the checkout against the baseline.

    ``end_to_end`` is the ``end_to_end`` list of ``BENCHMARK.json``, whose
    ``better`` says which way is better; ``baseline`` and ``checkout`` are
    the two sides' metric values, one dict per seed, paired in order.  Per
    metric: the pairs the checkout wins, loses and ties, both medians, the
    baseline's IQR (Q3 - Q1), and ``gate``: whether the checkout wins at
    least nine tenths of the pairs and its median is better than the
    baseline's by more than that IQR.
    """
    verdicts = {}
    for metric in end_to_end:
        name = metric["name"]
        sign = 1 if metric["better"] == "lower" else -1  # sign * (checkout - baseline) < 0 is a win
        gaps = [sign * (side[name] - base[name]) for base, side in zip(baseline, checkout, strict=True)]
        spread = _spread([base[name] for base in baseline])
        median = statistics.median(side[name] for side in checkout)
        iqr = spread["q3"] - spread["q1"]
        wins = sum(gap < 0 for gap in gaps)
        verdicts[name] = {
            "wins": wins,
            "losses": sum(gap > 0 for gap in gaps),
            "ties": sum(gap == 0 for gap in gaps),
            "baseline_median": spread["median"],
            "median": median,
            "baseline_iqr": iqr,
            "gate": 10 * wins >= 9 * len(gaps) and sign * (spread["median"] - median) > iqr,
        }
    return verdicts


def _commit(checkout: Path) -> str:
    dirty = _git(checkout, "status", "--porcelain", "--untracked-files=no", "--", *PROGRAM)
    return _git(checkout, "rev-parse", "HEAD") + ("+dirty" if dirty else "")


def main() -> int:
    ap = argparse.ArgumentParser(description="record perfbench results in BENCH_perfbench.json")
    ap.add_argument("--seeds", type=int, nargs="+", required=True, help="two or more seeds")
    ap.add_argument("--checkout", type=Path, default=ROOT, help="checkout whose perfbench to run")
    ap.add_argument(
        "--baseline", type=Path, help="a second checkout to run back to back with --checkout, seed by seed"
    )
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_perfbench.json")
    args = ap.parse_args()
    if len(args.seeds) < 2:
        ap.error("--seeds needs two or more seeds for the quartiles")
    checkout = args.checkout.resolve()
    sides = [checkout] if args.baseline is None else [args.baseline.resolve(), checkout]
    trees = {_git(side, "rev-parse", "HEAD:perfbench", "HEAD:BENCHMARK.json") for side in sides}
    if len(trees) > 1:
        ap.error("--baseline commits another perfbench/ or BENCHMARK.json than --checkout")
    benchmark = json.loads((checkout / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    records = json.loads(args.out.read_text()) if args.out.exists() else []
    # Before the first record is written: --out may be a tracked file of a checkout.
    commits = [_commit(side) for side in sides]
    with tempfile.TemporaryDirectory(prefix="pycache-") as pycache:
        pycaches = [str(Path(pycache) / str(k)) for k in range(len(sides))]
        for workload in (w["name"] for w in benchmark["workloads"]):
            runs: list[list[tuple[dict, dict]]] = [[] for _ in sides]
            values: list[list[dict]] = [[] for _ in sides]
            for i, seed in enumerate(args.seeds):
                for k in range(len(sides))[:: 1 if i % 2 == 0 else -1]:
                    summary, result = _run(sides[k], pycaches[k], workload, seed, seconds)
                    runs[k].append((summary, result))
                    values[k].append({name: metric["value"] for name, metric in summary["metrics"].items()})
                    print(json.dumps({"commit": commits[k], "workload": workload, "seed": seed, **values[k][-1]}))
            for commit, side_runs in zip(commits, runs):
                records.append(record(commit, workload, args.seeds, seconds, side_runs))
                args.out.write_text(json.dumps(records, indent=1) + "\n")
                print(json.dumps(records[-1]))
            if args.baseline is not None:
                verdicts = pair_verdicts(benchmark["end_to_end"], *values)
                print(json.dumps({"workload": workload, "commits": commits, "verdicts": verdicts}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
