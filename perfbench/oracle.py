"""Closed-form expected reports, computed from a scenario manifest alone.

Each IT device draws ``idle + u(t) * (peak - idle)`` watts, with ``u`` the
piecewise-linear utilization profile of the manifest.  Cooling draws
``c * IT`` and transmission ``f * IT`` at every instant, and "other" is a
fixed load.  The integral of a piecewise-linear function is a sum of
trapezoids over its breakpoints, so every expected energy, PUE, ApPUE, AoPUE
and weight follows without touching the program's integration or metrics
code.  The benchmark compares each report with these values.
"""

from __future__ import annotations

import math
from bisect import bisect_right

REL_TOL = 1e-9

# Work counter -> (divisor to the rate's unit, unit tag), for the kinds the
# benchmark fleets use.
_RATE = {
    "bytes_processed": (1000.0, "kb_per_second"),  # decimal KB
    "requests_answered": (1.0, "requests_per_second"),
}


def _area(points: list[tuple[float, float]], a: float, b: float) -> float:
    """Integral over [a, b] of the piecewise-linear function through ``points``.

    ``points`` must span [a, b]; the value between breakpoints is linear.
    """
    ts = [t for t, _ in points]

    def value(x: float) -> float:
        i = bisect_right(ts, x) - 1
        if i >= len(ts) - 1:
            return points[-1][1]
        (t0, u0), (t1, u1) = points[i], points[i + 1]
        return u0 + (u1 - u0) * (x - t0) / (t1 - t0)

    knots = [(a, value(a))] + [p for p in points if a < p[0] < b] + [(b, value(b))]
    return math.fsum((t1 - t0) * (u0 + u1) / 2 for (t0, u0), (t1, u1) in zip(knots, knots[1:]))


def _device_energy(device: dict, profile: list | None, a: float, b: float) -> float:
    model = device["model"]
    idle, peak = model["idle_watts"], model["peak_watts"]
    util = _area([(float(t), float(u)) for t, u in profile], a, b) if profile else 0.0
    return idle * (b - a) + (peak - idle) * util


def expected_report(manifest: dict, shift: float = 0.0) -> dict:
    """Expected report values for the simulated ``manifest``.

    ``shift`` is added to the window bounds, for a fleet whose timestamps
    were rewritten to start at a later epoch.
    """
    devices = {d["device_id"]: d for d in manifest["devices"]}
    profiles = manifest.get("utilization_profiles", {})
    it_ids = [d for d, dev in devices.items() if dev["category"] == "it_equipment"]
    runs = manifest["runs"]

    def it_energy(ids, a, b):
        return math.fsum(_device_energy(devices[d], profiles.get(d), a, b) for d in ids)

    start = min(r["start"] for r in runs)
    end = max(r["end"] for r in runs)
    overhead = manifest["overhead"]
    it = it_energy(it_ids, start, end)
    energy = {
        "it_equipment": it,
        "cooling": overhead["cooling_coefficient"] * it,
        "power_transmission": overhead["transmission_loss_fraction"] * it,
        "other": overhead["fixed_watts"] * (end - start),
    }
    pue = math.fsum(energy.values()) / it

    rows = []
    for run in runs:
        duration = run["end"] - run["start"]
        divisor, unit = _RATE[run["work"]["type"]]
        rate = run["work"]["value"] / divisor / duration
        it_kw = it_energy(sorted(run["devices"]), run["start"], run["end"]) / duration / 1000.0
        rows.append(
            {
                "run_id": run["run_id"],
                "category": run["category"],
                "it_power_kw": it_kw,
                "facility_power_kw": it_kw * pue,
                "performance": {"value": rate, "unit": unit},
                "appue": rate / it_kw,
                "aopue": rate / (it_kw * pue),
            }
        )
    total_kw = math.fsum(r["it_power_kw"] for r in rows)
    for row in rows:
        row["weight"] = row["it_power_kw"] / total_kw
    weighted = math.fsum(r["appue"] * r["weight"] for r in rows)
    return {
        "window": {
            "start": start + shift,
            "end": end + shift,
            "energy_joules_by_category": energy,
        },
        "pue": pue,
        "per_run": rows,
        "weighted_appue": weighted,
        "aggregated_aopue": weighted / pue,
        "trace_count": len(devices) + 3,  # plus cooling, transmission, other
    }


def _close(got, want: float) -> bool:
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want))


def _diff(path: str, got, want, out: list[str]) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict):
            out.append(f"{path}: expected an object, got {got!r}")
            return
        for key, value in want.items():
            _diff(f"{path}.{key}", got.get(key), value, out)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            out.append(f"{path}: expected {len(want)} items, got {got!r:.80}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _diff(f"{path}[{i}]", g, w, out)
    elif isinstance(want, str):
        if got != want:
            out.append(f"{path}: expected {want!r}, got {got!r}")
    elif not _close(got, want):
        out.append(f"{path}: expected {want!r}, got {got!r}")


def check_report(report: dict, expected: dict) -> list[str]:
    """Mismatches between a parsed JSON report and :func:`expected_report`."""
    want = dict(expected)
    trace_count = want.pop("trace_count")
    out: list[str] = []
    _diff("report", report, want, out)
    got_count = report.get("provenance", {}).get("trace_count") if isinstance(report, dict) else None
    if got_count != trace_count:
        out.append(f"report.provenance.trace_count: expected {trace_count}, got {got_count!r}")
    return out


def compare_reports(report: dict, other: dict, shift: float) -> list[str]:
    """Mismatches between two reports of one fleet whose windows differ by ``shift``."""
    fields = {k: other[k] for k in ("pue", "per_run", "weighted_appue", "aggregated_aopue")}
    window = dict(other["window"])
    window["start"] += shift
    window["end"] += shift
    fields["window"] = window
    out: list[str] = []
    _diff("report", report, fields, out)
    return out
