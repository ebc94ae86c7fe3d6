"""Property tests for the runs JSONL, inventory JSON and report JSON parsers.

Every input either parses or raises an ``AxpueError``; never a bare
``KeyError``, ``TypeError``, ``ValueError`` or ``AttributeError``.  What a
parser accepts can be written back, and what a writer produces parses back
to the original.  Inputs are arbitrary JSON, arbitrary text, and valid
documents with a few values replaced or keys dropped.  The report writer's
JSON bytes are also compared with ``json.dump`` of the same report.
"""

from __future__ import annotations

import copy
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from axpue import (
    ApplicationCategory,
    ApplicationRun,
    DeviceCategory,
    DeviceRecord,
    EnergyWindow,
    MetricsReport,
    PerformanceRate,
    RateUnit,
    RunMetrics,
    WorkMeasure,
    build_report,
    parse_inventory_json,
    parse_runs_jsonl,
    read_report,
    write_report,
)
from axpue.errors import AxpueError
from axpue.io import write_inventory_json, write_runs_jsonl
from axpue.model import (
    _CATEGORY_CODES,
    RATE_UNIT_FOR_CATEGORY,
    WORK_KIND_FOR_CATEGORY,
    _derive_report,
)
from conftest import random_metric_inputs

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**400, -(10**400)]),
    st.floats(),
    st.text(max_size=8),
    st.sampled_from(
        [
            "data_analysis", "hpc", "bytes_processed", "floating_point_ops",
            "it_equipment", "cooling", "kb_per_second", "1970-01-01T00:00:00Z",
            "1e999", "", "axpue-report/1",
        ]
    ),
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=6,
)


def _slots(doc):
    """Every (container, key) pair inside a parsed JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in list(items):
        yield doc, key
        yield from _slots(value)


@st.composite
def mutated(draw, doc):
    """A deep copy of ``doc`` with one to three values replaced or dropped."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(JSON)
    return doc


def parses_or_raises_axpue(parse, data):
    """The parser's result, or ``None`` when it raised an ``AxpueError``."""
    try:
        return parse(data)
    except AxpueError:
        return None


# --- runs JSONL -------------------------------------------------------------

VALID_RUN = {
    "run_id": "job",
    "category": "data_analysis",
    "start": 0.0,
    "end": 100.0,
    "work": {"type": "bytes_processed", "value": 10**9},
    "devices": ["s1", "s2"],
}

RUN_LINES = st.one_of(
    st.text(max_size=40),
    JSON.map(json.dumps),
    mutated(VALID_RUN).map(json.dumps),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(RUN_LINES, max_size=3))
@example(lines=[json.dumps({**VALID_RUN, "end": 10**400})])
@example(lines=[json.dumps({**VALID_RUN, "start": -(10**400)})])
def test_runs_parse_or_raise_axpue_error(lines):
    runs = parses_or_raises_axpue(parse_runs_jsonl, [line + "\n" for line in lines])
    if runs is not None:
        text = write_runs_jsonl(runs).decode("utf-8")
        assert parse_runs_jsonl(io.StringIO(text)) == runs


@st.composite
def application_runs(draw):
    category = draw(st.sampled_from(list(ApplicationCategory)))
    start = draw(st.floats(-1e12, 1e12))
    return ApplicationRun(
        run_id=draw(st.text(min_size=1, max_size=10)),
        category=category,
        start=start,
        end=start + draw(st.floats(1e-3, 1e9)),
        work=WorkMeasure(WORK_KIND_FOR_CATEGORY[category], draw(st.integers(0, 10**30))),
        attributed_devices=frozenset(
            draw(st.lists(st.text(min_size=1, max_size=6), min_size=1, max_size=3))
        ),
    )


@settings(max_examples=200, deadline=None)
@given(runs=st.lists(application_runs(), max_size=5, unique_by=lambda run: run.run_id))
def test_runs_write_then_parse_round_trips(runs):
    text = write_runs_jsonl(runs).decode("utf-8")
    assert parse_runs_jsonl(io.StringIO(text)) == runs


# --- inventory JSON ---------------------------------------------------------

VALID_INVENTORY = [
    {"device_id": "s1", "category": "it_equipment", "label": "server"},
    {"device_id": "crac", "category": "cooling", "label": ""},
]

INVENTORY_TEXTS = st.one_of(
    st.text(max_size=40),
    JSON.map(json.dumps),
    mutated(VALID_INVENTORY).map(json.dumps),
)


@settings(max_examples=300, deadline=None)
@given(text=INVENTORY_TEXTS)
@example(text='[{"device_id": "s1", "category": "it_equipment", "label": 7}]')
def test_inventory_parses_or_raises_axpue_error(text):
    devices = parses_or_raises_axpue(parse_inventory_json, text)
    if devices is not None:
        for device in devices:
            assert isinstance(device.device_id, str) and device.device_id
            assert isinstance(device.label, str)
        assert parse_inventory_json(write_inventory_json(devices).decode("utf-8")) == devices


DEVICE_RECORDS = st.builds(
    DeviceRecord,
    device_id=st.text(min_size=1, max_size=8),
    category=st.sampled_from(list(DeviceCategory)),
    label=st.text(max_size=8),
)


@settings(max_examples=200, deadline=None)
@given(devices=st.lists(DEVICE_RECORDS, max_size=5))
def test_inventory_write_then_parse_round_trips(devices):
    text = write_inventory_json(devices).decode("utf-8")
    assert parse_inventory_json(io.StringIO(text)) == devices


# --- report JSON ------------------------------------------------------------


def report_bytes(seed: int) -> bytes:
    inputs = random_metric_inputs(np.random.default_rng(seed))
    return write_report(build_report(inputs, provenance={"seed": seed}))


def edited_report(edit) -> str:
    doc = json.loads(report_bytes(0))
    edit(doc)
    return json.dumps(doc)


@st.composite
def report_documents(draw):
    doc = json.loads(report_bytes(draw(st.integers(0, 2**32 - 1))))
    return json.dumps(draw(mutated(doc)))


REPORT_INPUTS = st.one_of(
    st.binary(max_size=40),
    st.text(max_size=40),
    JSON.map(lambda doc: json.dumps({"schema": "axpue-report/1", "x": doc})),
    report_documents(),
)


@settings(max_examples=300, deadline=None)
@given(data=REPORT_INPUTS)
@example(data=b"\xff")
@example(data=edited_report(lambda doc: doc["per_run"][0].update(it_power_kw=None)))
@example(data=edited_report(lambda doc: doc.update(pue=10**400)))
@example(data=edited_report(lambda doc: doc["per_run"][0].update(facility_power_kw=10**400)))
@example(data=edited_report(lambda doc: doc["window"].update(energy_joules_by_category=[])))
@example(data=edited_report(lambda doc: doc.update(provenance=[1])))
def test_report_reads_or_raises_axpue_error(data):
    report = parses_or_raises_axpue(read_report, data)
    if report is not None:
        written = write_report(report)
        write_report(report, fmt="csv")
        assert write_report(read_report(written)) == written


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_report_write_then_read_round_trips(seed):
    data = report_bytes(seed)
    assert write_report(read_report(data)) == data


#: A report document's derived fields: top-level keys, then row keys.
DERIVED_FIELDS = ("pue", "weighted_appue", "aggregated_aopue")
DERIVED_ROW_FIELDS = ("facility_power_kw", "appue", "aopue", "weight")


@st.composite
def forged_reports(draw):
    """A built report's JSON with one derived field scaled outside the
    identity tolerance, and that field's name."""
    doc = json.loads(report_bytes(draw(st.integers(0, 2**32 - 1))))
    name = draw(st.sampled_from(DERIVED_FIELDS + DERIVED_ROW_FIELDS))
    where = doc if name in DERIVED_FIELDS else draw(st.sampled_from(doc["per_run"]))
    where[name] *= draw(st.floats(1e-3, 1e3).filter(lambda f: abs(f - 1) >= 1e-8))
    return json.dumps(doc), name


@settings(max_examples=200, deadline=None)
@given(forged=forged_reports())
def test_report_with_a_scaled_derived_field_is_rejected(forged):
    data, name = forged
    # "weights sum to ..." names a weight; "aopue" must not pass for "pue".
    with pytest.raises(AxpueError, match=rf"(^|: ){name}s? "):
        read_report(data)



# --- report JSON writer against json.dump -----------------------------------

#: Floats whose spelling is easy to get wrong: integer-valued, signed zero,
#: subnormal, and ones whose repr has an exponent.
AWKWARD_FLOATS = st.sampled_from(
    [0.0, -0.0, 1.0, 2.0, 123456789.0, 1e16, 1e22, 1e-7, 1.5e300, 2.2250738585072014e-308, 5e-324]
)
#: The JSON numbers a report field can hold; ``read_report`` keeps integers.
NUMBERS = st.one_of(
    AWKWARD_FLOATS,
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**20), 10**20),
)
#: Strings that need escaping: quote, backslash, control characters,
#: non-ASCII, a lone surrogate and astral-plane characters.
ESCAPED_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\xe9", "\u2028", "\ud800", "\U0001f600"]),
        st.characters(),
    ),
    max_size=8,
)


def report_as_dict(report: MetricsReport) -> dict:
    """A report's JSON object, built here and not by ``axpue.io``."""
    return {
        "schema": "axpue-report/1",
        "window": {
            "start": report.window.start,
            "end": report.window.end,
            "energy_joules_by_category": {
                cat.value: joules for cat, joules in report.window.energy_by_category.items()
            },
        },
        "pue": report.pue,
        "per_run": [
            {
                "run_id": row.run_id,
                "category": row.category.value,
                "it_power_kw": row.it_power_kw,
                "facility_power_kw": row.facility_power_kw,
                "performance": {"value": row.performance.value, "unit": row.performance.unit.value},
                "appue": row.appue,
                "aopue": row.aopue,
                "weight": row.weight,
            }
            for row in report.per_run
        ],
        "weighted_appue": report.weighted_appue,
        "aggregated_aopue": report.aggregated_aopue,
        "provenance": dict(report.provenance),
    }


def respelled(draw, value):
    """``value``, or the int equal to it: the field's JSON spelling changes,
    the value that ``MetricsReport`` checks does not."""
    if type(value) is float and value.is_integer() and abs(value) < 2**53 and draw(st.booleans()):
        return int(value)
    return value


@st.composite
def metrics_reports(draw):
    """A valid report with zero to five rows of one category, and awkward
    numbers and strings; its derived fields are those of its primary ones,
    some spelled as integers."""
    start, end = sorted(draw(st.lists(NUMBERS, min_size=2, max_size=2, unique=True)))
    it_energy = draw(st.one_of(AWKWARD_FLOATS, st.floats(0, 1e300)).filter(lambda j: j > 0))
    window = EnergyWindow(
        start=start,
        end=end,
        energy_by_category={
            DeviceCategory.IT_EQUIPMENT: it_energy,
            DeviceCategory.COOLING: it_energy * draw(st.sampled_from([0, 0.5, 3])),
            DeviceCategory.OTHER: it_energy * draw(st.sampled_from([0, 1e-7])),
        },
    )
    pue = window.total_facility_energy / window.it_energy
    if pue == 1 and draw(st.booleans()):
        pue = 1
    category = draw(st.sampled_from(list(ApplicationCategory)))
    n_rows = draw(st.integers(0, 5))
    # A report's run ids are distinct.
    run_ids = draw(st.lists(ESCAPED_TEXT, min_size=n_rows, max_size=n_rows, unique=True))
    # Facility power is IT power times PUE, and neither it nor the summed
    # IT power may overflow.
    it_kws = [
        draw(NUMBERS.filter(lambda p: 0 < p <= 1e300 and math.isfinite(p * pue)))
        for _ in range(n_rows)
    ]
    rates = [
        PerformanceRate(draw(NUMBERS.filter(lambda v: v >= 0)), RATE_UNIT_FOR_CATEGORY[category])
        for _ in range(n_rows)
    ]
    _, derived, weighted_appue, aggregated_aopue = _derive_report(
        window, run_ids, bytes([_CATEGORY_CODES[category]] * n_rows), it_kws,
        [rate.value for rate in rates],
    )
    derived = [column.tolist() for column in derived]
    assume(all(map(math.isfinite, derived[1])))  # a tiny IT power overflows ApPUE
    return MetricsReport(
        window=window,
        pue=pue,
        per_run=[
            RunMetrics(
                run_id, category, it_kw, respelled(draw, facility_kw), rate,
                *(respelled(draw, value) for value in (appue, aopue, weight)),
            )
            for run_id, it_kw, rate, facility_kw, appue, aopue, weight
            in zip(run_ids, it_kws, rates, *derived)
        ],
        weighted_appue=weighted_appue if weighted_appue is None else respelled(draw, weighted_appue),
        aggregated_aopue=(
            aggregated_aopue if aggregated_aopue is None else respelled(draw, aggregated_aopue)
        ),
        provenance=draw(
            st.dictionaries(
                st.one_of(st.sampled_from(["per_run", '"per_run": []', "window"]), ESCAPED_TEXT),
                st.one_of(NUMBERS, ESCAPED_TEXT, st.lists(NUMBERS, max_size=2)),
                max_size=3,
            )
        ),
    )


EMPTY_REPORT = MetricsReport(
    window=EnergyWindow(start=0, end=1, energy_by_category={DeviceCategory.IT_EQUIPMENT: 1.0}),
    pue=1,
    per_run=(),
    weighted_appue=None,
    aggregated_aopue=None,
)


@settings(max_examples=300, deadline=None)
@given(report=metrics_reports())
@example(report=EMPTY_REPORT)
def test_report_writer_matches_json_dump(report):
    out = io.StringIO()
    json.dump(report_as_dict(report), out, sort_keys=True, indent=2)
    assert write_report(report) == (out.getvalue() + "\n").encode("utf-8")


class FloatSubclass(float):
    """A float subclass, which ``json`` spells with ``float.__repr__``."""


@st.composite
def reports_with_float_subclasses(draw):
    """A report whose row floats are in part ``np.float64`` or another float
    subclass, so that the writer must spell their columns value by value."""
    report = draw(metrics_reports())
    kinds = st.sampled_from([float, np.float64, FloatSubclass])

    def cast(value):
        return draw(kinds)(value) if type(value) is float else value

    rows = [
        dataclasses.replace(
            row,
            aopue=cast(row.aopue),
            appue=cast(row.appue),
            facility_power_kw=cast(row.facility_power_kw),
            it_power_kw=cast(row.it_power_kw),
            performance=PerformanceRate(cast(row.performance.value), row.performance.unit),
            weight=cast(row.weight),
        )
        for row in report.per_run
    ]
    return dataclasses.replace(report, per_run=rows)


def report_of_rows(*rows):
    """A service report at PUE 1.5 with one row per (run_id, IT kW, rate,
    ApPUE, weight); the ApPUE and weight spell the values derived from the
    rows' IT powers and rates, which give every other derived field."""
    window = EnergyWindow(
        start=0,
        end=1,
        energy_by_category={DeviceCategory.IT_EQUIPMENT: 1.0, DeviceCategory.COOLING: 0.5},
    )
    run_ids, it_kws, rates, appues, weights = zip(*rows)
    rates = [PerformanceRate(rate, RateUnit.REQUESTS_PER_SECOND) for rate in rates]
    categories = [ApplicationCategory.SERVICE] * len(rows)
    _, _, weighted_appue, aggregated_aopue = _derive_report(
        window, run_ids, bytes([_CATEGORY_CODES[ApplicationCategory.SERVICE]] * len(rows)), it_kws,
        [rate.value for rate in rates],
    )
    return MetricsReport(
        window=window,
        pue=1.5,
        per_run=list(
            map(
                RunMetrics, run_ids, categories, it_kws, [p * 1.5 for p in it_kws], rates,
                appues, [a / 1.5 for a in appues], weights,
            )
        ),
        weighted_appue=weighted_appue,
        aggregated_aopue=aggregated_aopue,
    )


@settings(max_examples=200, deadline=None)
@given(report=reports_with_float_subclasses())
# Columns that mix int and float, hold -0.0 or np.float64, or whose finite
# floats sum past the float range; run ids with quotes and non-ASCII.
@example(report=report_of_rows(('"q\u00e9"', 1, np.float64(1.5e308), 1.5e308, 0.5), ("\u2028\\", 1.0, 1.5e308, 1.5e308, 0.5)))
@example(report=report_of_rows(("a", np.float64(2.0), 0.0, -0.0, 0.5), ("b", 2.0, 2, 1, 0.5)))
@example(report=report_of_rows(("\ud800\U0001f600", FloatSubclass(1.25), 5, 4, FloatSubclass(1.0))))
def test_report_writer_matches_json_dump_off_the_column_fast_path(report):
    out = io.StringIO()
    json.dump(report_as_dict(report), out, sort_keys=True, indent=2)
    assert write_report(report) == (out.getvalue() + "\n").encode("utf-8")
