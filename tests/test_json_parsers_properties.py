"""Property tests for the runs JSONL, inventory JSON and report JSON parsers.

Every input either parses or raises an ``AxpueError``; never a bare
``KeyError``, ``TypeError``, ``ValueError`` or ``AttributeError``.  What a
parser accepts can be written back, and what a writer produces parses back
to the original.  Inputs are arbitrary JSON, arbitrary text, and valid
documents with a few values replaced or keys dropped.
"""

from __future__ import annotations

import copy
import io
import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from axpue import (
    ApplicationCategory,
    ApplicationRun,
    DeviceCategory,
    DeviceRecord,
    WorkMeasure,
    build_report,
    parse_inventory_json,
    parse_runs_jsonl,
    read_report,
    write_report,
)
from axpue.errors import AxpueError
from axpue.io import write_inventory_json, write_runs_jsonl
from axpue.model import WORK_KIND_FOR_CATEGORY
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
@given(runs=st.lists(application_runs(), max_size=5))
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
