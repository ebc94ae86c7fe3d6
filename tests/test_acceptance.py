"""Acceptance gate: every shipped guarantee, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from axpue import (
    DevicePowerModel,
    Inventory,
    PowerTrace,
    analyze,
    build_report,
    builtin_scenario,
    parse_inventory_json,
    parse_power_csv,
    parse_runs_jsonl,
    read_report,
    simulate,
    sort_comparison_scenarios,
    write_report,
)
from axpue.cli import main
from conftest import (
    PUBLISHED_TABLE,
    interior_window,
    random_metric_inputs,
    random_scenario,
    random_trace,
    riemann_energy,
    run_pipeline,
)

RNG_SEED = 74101


def _passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} {name}: PASS")


def _pipeline_via_cli(tmp_path, name: str):
    sim_dir = tmp_path / name
    assert main(["simulate", f"paper:{name}", "--out", str(sim_dir)]) == 0
    out_path = tmp_path / f"{name}.json"
    code = main(
        [
            "compute",
            "--power", str(sim_dir / "power.csv"),
            "--runs", str(sim_dir / "runs.jsonl"),
            "--inventory", str(sim_dir / "inventory.json"),
            "--out", str(out_path),
        ]
    )
    assert code == 0
    return read_report(out_path.read_bytes())


def test_criterion_1_table_reproduction(tmp_path):
    """Five reference rows, each metric within +/- 0.001; under 5 s total."""
    # One tiny warm-up run so the jitted kernel's compile cache is not
    # billed against the pipeline budget.
    run_pipeline(builtin_scenario("linpack"))

    started = time.perf_counter()
    reports = {
        name: _pipeline_via_cli(tmp_path, name.lower()) for name in PUBLISHED_TABLE
    }
    elapsed = time.perf_counter() - started

    for name, (it_kw, total_kw, perf, pue, appue, aopue) in PUBLISHED_TABLE.items():
        report = reports[name]
        row = report.per_run[0]
        assert row.run_id == name
        assert report.pue == pytest.approx(pue, abs=1e-3), name
        assert row.appue == pytest.approx(appue, abs=1e-3), name
        assert row.aopue == pytest.approx(aopue, abs=1e-3), name
        assert row.it_power_kw == pytest.approx(it_kw, abs=1e-3), name
        assert row.facility_power_kw == pytest.approx(total_kw, abs=1e-3), name
        assert row.performance.reported()[0] == pytest.approx(perf, abs=1e-3), name
    assert elapsed < 5.0, f"five pipelines took {elapsed:.2f} s"
    _passed(1, f"table reproduction ({elapsed:.2f} s for 5 pipelines)")


def test_criterion_2_identity_on_randomized_inputs():
    """AoPUE = ApPUE / PUE within 1e-9 relative, row-wise, on 1000 inputs."""
    rng = np.random.default_rng(RNG_SEED)
    rows_checked = 0
    for _ in range(1000):
        report = build_report(random_metric_inputs(rng))
        for row in report.per_run:
            err = abs(row.aopue - row.appue / report.pue)
            assert err <= 1e-9 * max(1.0, abs(row.aopue))
            rows_checked += 1
    assert rows_checked >= 1000
    _passed(2, f"identity AoPUE = ApPUE/PUE ({rows_checked} rows)")


def test_criterion_3_weights_and_convexity():
    """Weights sum to 1 +/- 1e-12; weighted ApPUE inside the per-run range."""
    rng = np.random.default_rng(RNG_SEED + 1)
    multi_run_cases = 0
    while multi_run_cases < 300:
        inputs = random_metric_inputs(rng)
        if len(inputs.runs) < 2:
            continue
        multi_run_cases += 1
        report = build_report(inputs)
        total = math.fsum(row.weight for row in report.per_run)
        assert abs(total - 1.0) <= 1e-12
        appues = [row.appue for row in report.per_run]
        assert min(appues) <= report.weighted_appue <= max(appues)
    _passed(3, f"weight normalization and convexity ({multi_run_cases} cases)")


def test_criterion_4_pue_range_sanity():
    """Reference PUEs stay inside the published band; PUE >= 1 always."""
    # The published band endpoints are three-decimal rounded values, so the
    # computed quotients are compared at the same precision.
    for name in ("bigdatabench", "svm", "sort", "grep", "linpack", "sort1", "sort2"):
        report = run_pipeline(builtin_scenario(name))
        assert 1.391 <= round(report.pue, 3) <= 1.503, name
    rng = np.random.default_rng(RNG_SEED + 2)
    for i in range(25):
        report = run_pipeline(random_scenario(rng, name=f"fuzz-{i}"))
        assert report.pue >= 1.0
    _passed(4, "PUE range sanity (7 built-ins, 25 randomized)")


def test_criterion_5_integration_oracle():
    """Trapezoid vs 1e6-step Riemann within 1e-6; constants within 1e-12."""
    rng = np.random.default_rng(RNG_SEED + 3)
    inventory = Inventory([])
    for i in range(100):
        trace = random_trace(rng, device_id=f"d{i}")
        start, end = interior_window(rng, trace)
        got = _integrate(trace, start, end)
        oracle = riemann_energy(trace, start, end, steps=10**6)
        assert got == pytest.approx(oracle, rel=1e-6)
    for watts in (1.0, 100.0, 100412.0):
        times = np.arange(0.0, 3660.0, 60.0)
        trace = PowerTrace("const", times, np.full_like(times, watts))
        got = _integrate(trace, 0.0, 3600.0)
        assert got == pytest.approx(watts * 3600.0, rel=1e-12)
    _passed(5, "integration oracle (100 random traces + constants)")


def _integrate(trace, start, end):
    from axpue import integrate_power

    return integrate_power(trace, start, end, max_gap=1e9)


def _parsed_pipeline(scenario):
    import io

    out = simulate(scenario)
    traces = parse_power_csv(io.BytesIO(out.power_csv))
    runs = parse_runs_jsonl(io.StringIO(out.runs_jsonl.decode("utf-8")))
    inventory = Inventory(
        parse_inventory_json(out.inventory_json.decode("utf-8"))
    )
    return traces, inventory, runs


def test_criterion_6_power_scaling():
    """Scaling all samples by k fixes PUE and divides ApPUE/AoPUE by k."""
    rng = np.random.default_rng(RNG_SEED + 4)
    scenarios = [builtin_scenario("grep"), random_scenario(rng, name="scale")]
    for scenario in scenarios:
        traces, inventory, runs = _parsed_pipeline(scenario)
        base = analyze(traces, inventory, runs)
        for k in (0.5, 2.0, 10.0):
            scaled_traces = [
                PowerTrace(t.device_id, t.times, t.watts * k) for t in traces
            ]
            scaled = analyze(scaled_traces, inventory, runs)
            assert scaled.pue == pytest.approx(base.pue, rel=1e-9)
            for row, base_row in zip(scaled.per_run, base.per_run):
                assert row.appue == pytest.approx(base_row.appue / k, rel=1e-9)
                assert row.aopue == pytest.approx(base_row.aopue / k, rel=1e-9)
    _passed(6, "power scaling invariance (k in {0.5, 2, 10})")


def test_criterion_7_sort_discrimination():
    """Same PUE within 2%, ApPUE tells sort1 from sort2; size trend > 1%."""
    sort1, sort2 = sort_comparison_scenarios()
    r1, r2 = run_pipeline(sort1), run_pipeline(sort2)
    assert abs(r1.pue - r2.pue) / r1.pue <= 0.02
    assert r1.per_run[0].appue > r2.per_run[0].appue

    appues = []
    for size_gb in (50.0, 100.0, 200.0):
        _, sized = sort_comparison_scenarios(size_gb)
        appues.append(run_pipeline(sized).per_run[0].appue)
    spread = (max(appues) - min(appues)) / min(appues)
    assert spread > 0.01, f"ApPUE spread across sizes is only {spread:.4%}"
    _passed(7, f"sort discrimination (ApPUE spread {spread:.1%} across sizes)")


def test_criterion_8_power_model_anchors():
    """Server model hits 290/300 W, storage 310/390 W, exactly."""
    server = DevicePowerModel.server()
    storage = DevicePowerModel.storage()
    assert server.power(0.0) == 290.0
    assert server.power(1.0) == 300.0
    assert storage.power(0.0) == 310.0
    assert storage.power(1.0) == 390.0
    _passed(8, "utilization-to-power anchor points")


def test_criterion_9_round_trip_determinism(tmp_path):
    """serialize -> parse -> serialize is byte-identical; so is re-simulation."""
    report = run_pipeline(builtin_scenario("svm"))
    first = write_report(report)
    assert write_report(read_report(first)) == first

    scenario = builtin_scenario("sort2")
    a, b = simulate(scenario), simulate(scenario)
    assert a.power_csv == b.power_csv
    assert a.runs_jsonl == b.runs_jsonl
    assert a.inventory_json == b.inventory_json
    assert a.manifest_json == b.manifest_json
    _passed(9, "round-trip and simulation determinism")
