"""A report's rows held as columns (``axpue.model.ReportRows``): what a built
report and its writer cost in memory, and parity between a report built
from ``RunMetrics`` objects and the same report from ``build_report`` or
``read_report``."""

from __future__ import annotations

import copy
import gc
import importlib.util
import io
import json
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from axpue import (
    ApplicationCategory,
    ApplicationRun,
    DeviceCategory,
    EnergyWindow,
    MetricsReport,
    PerformanceRate,
    RateUnit,
    RunInput,
    RunMetrics,
    WorkKind,
    WorkMeasure,
    analyze,
    build_report,
    parse_runs_jsonl,
    read_report,
    write_report,
)
from axpue.errors import CategoryMismatchError, ZeroITPowerError
from axpue.model import ReportRows
from conftest import random_metric_inputs

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("runs_scale", ROOT / "benchmarks" / "runs_scale.py")
runs_scale = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(runs_scale)

N_RUNS = 4_000


def traced(call):
    """``call()``, the traced bytes its result holds, and its traced peak,
    both above where the heap stood before the call."""
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


@pytest.fixture(scope="module")
def many_runs_inputs():
    """Traces, inventory and parsed runs of 4,000 runs shaped like the
    ``many_runs`` benchmark's: service runs on 16 pairs of servers."""
    text, traces, inventory = runs_scale._inputs(N_RUNS)
    return traces, inventory, parse_runs_jsonl(io.StringIO(text))


def test_built_report_holds_under_150_bytes_a_row(many_runs_inputs):
    # One RunMetrics and one PerformanceRate a row held about 380.
    report, held, _ = traced(lambda: analyze(*many_runs_inputs))
    assert len(report.per_run) == N_RUNS
    assert held / N_RUNS < 150


def test_report_writer_peaks_under_1_3x_its_output(many_runs_inputs):
    # The whole text, its bytes and the spelled columns at once peaked at 2.3x.
    report = analyze(*many_runs_inputs)
    data, _, peak = traced(lambda: write_report(report))
    assert len(data) > 1_000_000
    assert peak < 1.3 * len(data)


def assert_same_report(a: MetricsReport, b: MetricsReport) -> None:
    """``a`` and ``b`` write the same bytes, are equal, and survive pickle,
    ``copy.deepcopy`` and a JSON round trip."""
    for fmt in ("json", "csv"):
        assert write_report(a, fmt) == write_report(b, fmt)
    assert a == b and b == a
    data = write_report(a)
    for report in (a, b):
        assert pickle.loads(pickle.dumps(report)) == report
        assert copy.deepcopy(report) == report
        assert write_report(pickle.loads(pickle.dumps(report))) == data
        assert read_report(data) == report


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_built_report_matches_the_report_of_its_rows(seed):
    built = build_report(random_metric_inputs(np.random.default_rng(seed)))
    assert isinstance(built.per_run, ReportRows)
    rows = tuple(built.per_run)
    assert all(type(row) is RunMetrics for row in rows)
    of_rows = MetricsReport(
        built.window, built.pue, rows, built.weighted_appue, built.aggregated_aopue,
        built.provenance,
    )
    assert of_rows.per_run == rows and of_rows.per_run == list(rows)
    assert_same_report(built, of_rows)
    assert_same_report(built, read_report(write_report(built)))


WINDOW = EnergyWindow(0, 10, {DeviceCategory.IT_EQUIPMENT: 4.0, DeviceCategory.COOLING: 2.0})


@st.composite
def int_spelled_rows(draw):
    """One to five service rows at PUE 1.5 with whole IT powers and rates,
    each primary or derived field an ``int`` where its value is whole and
    the draw says so, and the report's aggregates."""
    n_rows = draw(st.integers(1, 5))
    it_kws = [draw(st.integers(1, 1000)) for _ in range(n_rows)]
    rates = [draw(st.integers(0, 10**6)) for _ in range(n_rows)]
    total = sum(it_kws)

    def spelled(value):
        return int(value) if float(value).is_integer() and draw(st.booleans()) else float(value)

    rows = tuple(
        RunMetrics(
            f"run-{i}", ApplicationCategory.SERVICE, spelled(it_kw), spelled(it_kw * 1.5),
            PerformanceRate(spelled(rate), RateUnit.REQUESTS_PER_SECOND), spelled(rate / it_kw),
            spelled(rate / (it_kw * 1.5)), spelled(it_kw / total),
        )
        for i, (it_kw, rate) in enumerate(zip(it_kws, rates))
    )
    weighted_appue = sum(rate / total for rate in rates)
    return rows, spelled(weighted_appue), weighted_appue / 1.5


@settings(max_examples=200, deadline=None)
@given(drawn=int_spelled_rows())
def test_report_of_rows_matches_the_report_read_back(drawn):
    rows, weighted_appue, aggregated_aopue = drawn
    of_rows = MetricsReport(WINDOW, 1.5, rows, weighted_appue, aggregated_aopue)
    read = read_report(write_report(of_rows))
    assert_same_report(of_rows, read)
    # Every field keeps its type, so an int is written back as an int.
    assert [row for row in read.per_run] == list(rows)
    for row, original in zip(read.per_run, rows):
        for name in ("it_power_kw", "facility_power_kw", "appue", "aopue", "weight"):
            assert type(getattr(row, name)) is type(getattr(original, name))
        assert type(row.performance.value) is type(original.performance.value)


def service_row(run_id: str, it_kw: float, unit: RateUnit = RateUnit.REQUESTS_PER_SECOND):
    """A service row at PUE 1.5 with a rate of 3, its weight 0.5."""
    return RunMetrics(
        run_id, ApplicationCategory.SERVICE, it_kw, it_kw * 1.5, PerformanceRate(3.0, unit),
        3.0 / it_kw, 3.0 / (it_kw * 1.5), 0.5,
    )


def service_doc_row(run_id: str, it_kw: float, unit: str = "requests_per_second") -> dict:
    """:func:`service_row` as a row of a report document, its unit as
    ``unit``."""
    return {
        "run_id": run_id,
        "category": "service",
        "it_power_kw": it_kw,
        "facility_power_kw": it_kw * 1.5,
        "performance": {"value": 3.0, "unit": unit},
        "appue": 3.0 / it_kw,
        "aopue": 3.0 / (it_kw * 1.5),
        "weight": 0.5,
    }


def report_doc(*rows: dict) -> str:
    """A report document over :data:`WINDOW` at PUE 1.5 holding ``rows``."""
    return json.dumps(
        {
            "schema": "axpue-report/1",
            "window": {"start": 0, "end": 10, "energy_joules_by_category": {"it_equipment": 4.0, "cooling": 2.0}},
            "pue": 1.5,
            "per_run": list(rows),
            "weighted_appue": 3.0,
            "aggregated_aopue": 2.0,
        }
    )


def test_report_rows_are_a_read_only_sequence_of_run_metrics():
    rows = (service_row("a", 1.0), service_row("b", 1.0))
    report = MetricsReport(WINDOW, 1.5, iter(rows), 3.0, 2.0)
    per_run = report.per_run
    assert per_run == rows and per_run[-1] == rows[-1] and per_run[1:] == rows[1:]
    assert per_run != rows[:1] and per_run != "ab"
    assert type(per_run.it_power_kws[0]) is float
    with pytest.raises(AttributeError, match="immutable ReportRows"):
        per_run.weights = ()
    with pytest.raises(IndexError):
        per_run[2]
    empty = MetricsReport(WINDOW, 1.5, [], None, None)
    assert empty.per_run == () and not empty.per_run
    assert write_report(empty) == write_report(read_report(write_report(empty)))


def test_a_wrong_unit_raises_where_it_enters():
    message = "run 'a': category service requires requests_per_second performance, got kb_per_second"
    rate = PerformanceRate(3.0, RateUnit.KB_PER_SECOND)
    with pytest.raises(CategoryMismatchError) as row:
        service_row("a", 1.0, RateUnit.KB_PER_SECOND)
    run = ApplicationRun(
        "a", ApplicationCategory.SERVICE, 0.0, 10.0,
        WorkMeasure(WorkKind.REQUESTS_ANSWERED, 30), {"s1"},
    )
    with pytest.raises(CategoryMismatchError) as run_input:
        RunInput(run, 10.0, rate)
    with pytest.raises(CategoryMismatchError) as read:
        read_report(report_doc(service_doc_row("a", 1.0, "kb_per_second"), service_doc_row("b", 1.0)))
    assert str(row.value) == str(run_input.value) == str(read.value) == message
    # Every row is read before the report's rule checks any IT power, so a
    # wrong unit is named before an earlier row's bad IT power.
    with pytest.raises(CategoryMismatchError, match="run 'b': category service"):
        read_report(report_doc(service_doc_row("a", -1.0), service_doc_row("b", 1.0, "kb_per_second")))


def test_a_bad_it_power_raises_where_the_report_is_built_or_read():
    message = "run 'a': it_power_kw must be finite and > 0, got -1.0"
    with pytest.raises(ZeroITPowerError) as constructed:
        MetricsReport(WINDOW, 1.5, (service_row("a", -1.0), service_row("b", 1.0)), 3.0, 2.0)
    with pytest.raises(ZeroITPowerError) as read:
        read_report(report_doc(service_doc_row("a", -1.0), service_doc_row("b", 1.0)))
    assert str(constructed.value) == str(read.value) == message
