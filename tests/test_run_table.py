"""Runs held as columns: the table ``parse_runs_jsonl`` returns, what it
costs in memory, and its parity with the parse that built one object per
run (``reference_parse_runs_jsonl`` in ``conftest.py``)."""

from __future__ import annotations

import copy
import gc
import io
import json
import pickle
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axpue import (
    ApplicationCategory,
    ApplicationRun,
    Inventory,
    MetricInputs,
    WorkKind,
    WorkMeasure,
    analyze,
    parse_inventory_json,
    parse_power_csv,
    parse_runs_jsonl,
    simulate,
    write_report,
)
from axpue import engine
from axpue.model import RunTable
from conftest import random_metric_inputs, random_scenario, reference_parse_runs_jsonl


def many_runs_text(n_runs: int) -> str:
    """``n_runs`` service runs on 16 pairs of 32 devices, one after another
    within a pair, as the ``many_runs`` benchmark fleet lays them out."""
    lines = []
    for k in range(n_runs):
        pair = k % 16
        lines.append(
            json.dumps(
                {
                    "run_id": f"req-{pair:02d}-{k // 16:04d}",
                    "category": "service",
                    "start": float(k // 16 * 20),
                    "end": float(k // 16 * 20 + 10),
                    "work": {"type": "requests_answered", "value": 1000 + 7919 * k},
                    "devices": [f"node-{2 * pair:03d}", f"node-{2 * pair + 1:03d}"],
                }
            )
            + "\n"
        )
    return "".join(lines)


def retained_bytes_per_run(n_runs: int) -> float:
    """Heap bytes, by ``tracemalloc``, that the parsed table of ``n_runs``
    runs holds after the parse returns."""
    text = many_runs_text(n_runs)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        runs = parse_runs_jsonl(io.StringIO(text))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(runs) == n_runs
    return held / n_runs


def test_parsed_runs_hold_under_300_bytes_a_run_at_any_count():
    # One ApplicationRun with its WorkMeasure and frozenset held about 690.
    small = retained_bytes_per_run(4_000)
    assert small < 300
    assert retained_bytes_per_run(16_000) <= 1.2 * small


def outcome(parse, lines):
    """The runs a parse returns, each with its bounds' bits, or the (type,
    message, line) it raises."""
    try:
        runs = parse(lines)
    except Exception as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line", None))
    return ("ok", [(run, run.start.hex(), run.end.hex()) for run in runs])


def mostly(valid, odd):
    """Valid values twice as often as odd ones, so that most lines get past
    most checks, and many break two at once."""
    return st.one_of(valid, valid, odd)


ODD_BOUNDS = st.sampled_from(
    [float("inf"), float("-inf"), float("nan"), True, None, "x", "2026-W01-1", 10**400, [1]]
)
# Ends mostly lie after starts, so that most lines get to the later checks.
STARTS = mostly(st.sampled_from([0.0, -0.0, 5, "1970-01-01T00:00:05Z"]), ODD_BOUNDS)
ENDS = mostly(st.sampled_from([5, 10.5, 20.0, "1970-01-01T00:00:30Z"]), ODD_BOUNDS)
WORK = mostly(
    st.fixed_dictionaries(
        {
            "type": st.sampled_from([kind.value for kind in WorkKind]),
            "value": mostly(
                st.integers(0, 10**12),
                st.sampled_from([-1, 1.5, 1e9, 10**400, True, "5", None]),
            ),
        }
    ),
    st.sampled_from([None, {}, {"type": "bytes_processed"}, 7, {"type": "widgets", "value": 1}]),
)
RUN_OBJECTS = st.fixed_dictionaries(
    {
        "run_id": mostly(st.sampled_from(["a", "b", "c", "d"]), st.sampled_from(["", 5, None])),
        "category": mostly(
            st.sampled_from([category.value for category in ApplicationCategory]),
            st.sampled_from(["mining", 3, None]),
        ),
        "start": STARTS,
        "end": ENDS,
        "work": WORK,
        "devices": mostly(
            st.lists(st.sampled_from(["s1", "s2", "s3"]), max_size=3),
            st.sampled_from([[], "s1", [1], None]),
        ),
    }
)


@st.composite
def run_lines(draw):
    """A run object, sometimes missing a key, as one line; or an odd line."""
    obj = draw(RUN_OBJECTS)
    for key in draw(st.lists(st.sampled_from(sorted(obj)), max_size=1)):
        del obj[key]
    line = json.dumps(obj)
    return draw(mostly(st.just(line), st.sampled_from(["", "  ", "[1]", "{", "null"]))) + "\n"


VALID = {
    "run_id": "a",
    "category": "hpc",
    "start": 0.0,
    "end": 10.0,
    "work": {"type": "floating_point_ops", "value": 5},
    "devices": ["s2", "s1", "s2"],
}


def line(**overrides) -> str:
    return json.dumps({**VALID, **overrides}) + "\n"


@settings(max_examples=400, deadline=None)
@given(lines=st.lists(run_lines(), max_size=4))
# Lines that break two neighbouring rules: the one checked first is named.
@example(lines=[line(run_id="", work={"type": "floating_point_ops", "value": -1})])
@example(lines=[line(run_id="", devices=[])])
@example(lines=[line(devices=[], start=float("inf"))])
@example(lines=[line(start=float("nan"), category="service")])
@example(lines=[line(end=0.0, category="service")])
@example(lines=[line(), line(end=5.0, work={"type": "floating_point_ops", "value": 10**400})])
@example(lines=[line(start=-0.0), line(run_id="b", start="1970-01-01T00:00:10Z", end=20)])
def test_column_parse_matches_the_per_object_parse(lines):
    assert outcome(parse_runs_jsonl, lines) == outcome(reference_parse_runs_jsonl, lines)


class TestRunTable:
    RUNS = [
        ApplicationRun(
            "a", ApplicationCategory.SERVICE, 0, 10.5,
            WorkMeasure(WorkKind.REQUESTS_ANSWERED, 3), {"s2", "s1"},
        ),
        ApplicationRun(
            "b", ApplicationCategory.HIGH_PERFORMANCE_COMPUTING, -0.0, 4.0,
            WorkMeasure(WorkKind.FLOATING_POINT_OPS, 10**30), {"s3"},
        ),
    ]

    def test_from_runs_gives_back_equal_runs_of_the_same_types(self):
        table = RunTable.from_runs(self.RUNS)
        assert table == self.RUNS and list(table) == self.RUNS
        assert table[-1] == self.RUNS[-1] and table[1:] == self.RUNS[1:]
        assert type(table[0].start) is int and table[1].start.hex() == "-0x0.0p+0"
        assert table.devices == (("s1", "s2"), ("s3",))
        with pytest.raises(IndexError):
            table[2]

    def test_parsed_table_shares_device_tuples_and_ids(self):
        table = parse_runs_jsonl(io.StringIO(many_runs_text(64)))
        assert table.devices[0] is table.devices[16]
        assert table.devices[0][0] is table.devices[16][0]
        assert isinstance(table.starts[0], float)
        with pytest.raises(TypeError):
            table.starts[0] = 1.0
        assert pickle.loads(pickle.dumps(table)) == table == copy.deepcopy(table)

    @pytest.mark.parametrize("source", ["built", "analyzed"])
    def test_metric_inputs_are_values(self, source, rng, monkeypatch):
        if source == "built":
            inputs = random_metric_inputs(rng)
        else:
            # What analyze hands build_report: runs over the parsed table.
            seen = []
            monkeypatch.setattr(engine, "build_report", lambda inputs, provenance: seen.append(inputs))
            out = simulate(random_scenario(rng))
            analyze(
                parse_power_csv(io.BytesIO(out.power_csv)),
                Inventory(parse_inventory_json(out.inventory_json.decode("utf-8"))),
                parse_runs_jsonl(io.StringIO(out.runs_jsonl.decode("utf-8"))),
            )
            (inputs,) = seen
        run_inputs = tuple(inputs.runs)
        assert MetricInputs(inputs.window, run_inputs) == MetricInputs(inputs.window, run_inputs)
        assert MetricInputs(inputs.window, list(run_inputs)) == inputs
        assert inputs.runs == run_inputs and inputs.runs[0:1] == run_inputs[:1]
        assert pickle.loads(pickle.dumps(inputs)) == inputs == copy.deepcopy(inputs)

    def test_analyze_gives_the_same_report_bytes_for_a_table_and_its_runs(self, rng):
        for i in range(5):
            out = simulate(random_scenario(rng, name=f"s{i}"))
            traces = parse_power_csv(io.BytesIO(out.power_csv))
            inventory = Inventory(parse_inventory_json(out.inventory_json.decode("utf-8")))
            table = parse_runs_jsonl(io.StringIO(out.runs_jsonl.decode("utf-8")))
            assert isinstance(table, RunTable)
            assert write_report(analyze(traces, inventory, table)) == write_report(
                analyze(traces, inventory, list(table))
            )
