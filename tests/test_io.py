"""Parsers, serializers, and round-trip determinism."""

from __future__ import annotations

import io
import json
import tracemalloc
import warnings

import numpy as np
import pytest

import axpue.io
from axpue import (
    ApplicationCategory,
    DeviceCategory,
    EnergyWindow,
    MetricsReport,
    PerformanceRate,
    RateUnit,
    RunMetrics,
    WorkKind,
    analyze,
    load_bundle,
    parse_inventory_json,
    parse_power_csv,
    parse_runs_jsonl,
    read_report,
    write_report,
)
from axpue.errors import (
    CoverageGapError,
    DuplicateSampleError,
    InvalidPowerError,
    InvalidWindowError,
    ParseError,
    SchemaError,
    UnknownDeviceError,
    ValidationError,
)
from axpue.io import write_inventory_json, write_power_csv, write_runs_jsonl

HEADER = "device_id,timestamp,watts\n"


def parse_csv(text: str):
    return parse_power_csv(io.BytesIO(text.encode()))


DEVICES, SAMPLES = 10, 20_000


def fleet_csv(layout):
    """A power CSV of ``SAMPLES`` rows of each of ``DEVICES`` devices, one
    device at a time, time-major, or one device at a time with three pairs
    of one device's rows swapped."""
    pairs = [(d, i) for d in range(DEVICES) for i in range(SAMPLES)]
    if layout == "time-major":
        pairs.sort(key=lambda pair: pair[1])
    elif layout == "swapped":
        for k in (1_000, 70_000, 150_000):
            pairs[k], pairs[k + 1] = pairs[k + 1], pairs[k]
    return (HEADER + "".join(f"s{d},{30 * i}.0,{100 + i % 50 * 0.5}\n" for d, i in pairs)).encode()


def traced_peak(parse):
    """The ``tracemalloc`` peak of ``parse()``, and the traces it returns,
    which must have ``SAMPLES`` rows each."""
    tracemalloc.start()
    try:
        traces = parse()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(trace) for trace in traces] == [SAMPLES] * DEVICES
    return peak, traces


class TestParsePowerCsv:
    def test_two_samples_one_trace(self):
        traces = parse_csv(HEADER + "s1,0,100\ns1,60,100\n")
        assert len(traces) == 1
        assert list(traces[0].times) == [0.0, 60.0]

    def test_row_order_is_irrelevant(self):
        a = parse_csv(HEADER + "s1,0,100\ns1,60,110\ns2,0,50\n")
        b = parse_csv(HEADER + "s2,0,50\ns1,60,110\ns1,0,100\n")
        assert [t.device_id for t in a] == [t.device_id for t in b]
        for ta, tb in zip(a, b):
            assert list(ta.times) == list(tb.times)
            assert list(ta.watts) == list(tb.watts)

    def test_malformed_timestamp_carries_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_csv(HEADER + "s1,abc,100\n")
        assert excinfo.value.line == 2

    def test_negative_watts_carries_line(self):
        with pytest.raises(InvalidPowerError) as excinfo:
            parse_csv(HEADER + "s1,0,100\ns1,60,-5\n")
        assert excinfo.value.line == 3

    def test_duplicate_timestamp_rejected(self):
        with pytest.raises(DuplicateSampleError) as excinfo:
            parse_csv(HEADER + "s1,60,100\ns1,60,101\n")
        assert excinfo.value.line == 3

    @pytest.mark.parametrize("stamps", [("-1.7e308", "1.7e308"), ("1.7e308", "-1.7e308")])
    def test_far_apart_timestamps_do_not_overflow(self, stamps):
        # In file order, and in falling order, which the parser sorts.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [trace] = parse_csv(HEADER + "".join(f"d,{stamp},1\n" for stamp in stamps))
        assert trace.times.tolist() == [-1.7e308, 1.7e308]

    @pytest.mark.parametrize("layout", ["device-major", "time-major", "swapped"])
    def test_parse_memory_is_a_few_trace_sizes(self, layout):
        # The finished traces take 16 bytes a row.  Every layout is built
        # into traces batch by batch; swapped rows send only their devices
        # through a sort.  A device here has more rows than a batch, so only
        # time-major batches hold devices with the same times, which share
        # one time piece: about 1.18x, against 1.48x for the other layouts.
        bound = {"device-major": 1.55, "time-major": 1.25, "swapped": 1.55}[layout]
        data = fleet_csv(layout)
        peak, _ = traced_peak(lambda: parse_power_csv(io.BytesIO(data)))
        assert peak < bound * DEVICES * SAMPLES * 16

    def test_ranged_parse_memory_is_near_the_trace_size(self, tmp_path, monkeypatch):
        # The parent holds its own range's pieces and the child's joined
        # arrays, each device's once, until its trace is built.
        monkeypatch.setattr(axpue.io, "_RANGE_BYTES", 1)
        monkeypatch.setattr(axpue.io, "_cpu_count", lambda: 2)
        path = tmp_path / "power.csv"
        path.write_bytes(fleet_csv("device-major"))
        with open(path, "rb") as f:
            assert len(axpue.io._range_cuts(f.fileno())) == 3
            peak, _ = traced_peak(lambda: parse_power_csv(f))
        assert peak < 1.05 * DEVICES * SAMPLES * 16

    @pytest.mark.parametrize("layout", ["device-major", "time-major"])
    def test_ranged_parse_holds_a_shared_grid_once(self, tmp_path, monkeypatch, layout):
        # Every device samples the same instants, so the traces hold one
        # times array, 8 bytes a sample, and the child sends it once.  The
        # parent's peak is then set by its own range's pieces and batches;
        # time-major ones share their time pieces (0.85x, against 0.98x).
        bound = {"device-major": 1.05, "time-major": 0.9}[layout]
        monkeypatch.setattr(axpue.io, "_RANGE_BYTES", 1)
        monkeypatch.setattr(axpue.io, "_cpu_count", lambda: 2)
        path = tmp_path / "power.csv"
        path.write_bytes(fleet_csv(layout))
        with open(path, "rb") as f:
            peak, traces = traced_peak(lambda: parse_power_csv(f))
        assert len({id(trace.times) for trace in traces}) == 1
        assert peak < bound * DEVICES * SAMPLES * 16

    def test_many_devices_parse_memory_is_a_few_trace_sizes(self):
        # A poller's time-major file with more devices than a batch has
        # rows: batches grow to several rows a device, and devices share
        # their time pieces, so the parse holds no piece of about one row
        # for each device and batch (17.7x of 16 bytes a row before).
        devices, samples = 17_000, 16
        assert devices > axpue.io._BATCH_ROWS
        rows = (f"d{d},{60 * i}.0,{100 + d % 50 * 0.5}\n" for i in range(samples) for d in range(devices))
        data = (HEADER + "".join(rows)).encode()
        tracemalloc.start()
        try:
            traces = parse_power_csv(io.BytesIO(data))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [len(trace) for trace in traces] == [samples] * devices
        assert len({id(trace.times) for trace in traces}) == 1
        assert traces[0].times.tolist() == [60.0 * i for i in range(samples)]
        assert peak < 6 * devices * samples * 16

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError) as excinfo:
            parse_csv("device,when,how_much\ns1,0,100\n")
        assert excinfo.value.line == 1

    def test_empty_stream_rejected(self):
        with pytest.raises(ParseError):
            parse_csv("")

    def test_rfc3339_timestamps(self):
        traces = parse_csv(
            HEADER
            + "s1,1970-01-01T00:00:00Z,100\n"
            + "s1,1970-01-01T00:01:00+00:00,200\n"
        )
        assert list(traces[0].times) == [0.0, 60.0]

    def test_wrong_field_count_rejected(self):
        with pytest.raises(ParseError) as excinfo:
            parse_csv(HEADER + "s1,0\n")
        assert excinfo.value.line == 2

    def test_write_parse_round_trip(self):
        devices = [("s2", [0.0, 7.5]), ("s1", [100.5, 99.875])]
        traces = parse_csv(write_power_csv([0.5, 61.25], devices).decode("utf-8"))
        assert [t.device_id for t in traces] == ["s1", "s2"]
        assert list(traces[0].watts) == [100.5, 99.875]
        assert list(traces[1].times) == [0.5, 61.25]
        assert traces[0].times is traces[1].times

    def test_write_formats_blocks_through_float64(self):
        grid = [0, 0.1 + 0.2, 1e300]
        text = write_power_csv(grid, [("a", [1, 2, 3]), ("b", np.array([-0.0, 0.5, 7.0]))])
        assert text.decode("utf-8") == (
            HEADER
            + "a,0.0,1.0\na,0.30000000000000004,2.0\na,1e+300,3.0\n"
            + "b,0.0,-0.0\nb,0.30000000000000004,0.5\nb,1e+300,7.0\n"
        )

    def test_write_rejects_mismatched_block(self):
        with pytest.raises(ValueError, match="^device 'b': 1 watts for 2 times$"):
            write_power_csv([0.0, 1.0], [("a", [5.0, 6.0]), ("b", [5.0])])


def trace_values(traces):
    return [(t.device_id, list(t.times), list(t.watts)) for t in traces]


def test_quoted_record_of_many_lines_is_closed_from_whole_blocks(monkeypatch):
    # 120,000 lines inside one quoted device field: the lines after the
    # block that opens it come a block at a time, not one block call each.
    calls, block = [], axpue.io._Lines.block

    def spy(lines, size):
        calls.append(size)
        return block(lines, size)

    monkeypatch.setattr(axpue.io._Lines, "block", spy)
    traces = parse_csv(HEADER + 's1,0,1\n"s1' + "\n" * 120_000 + '",60,1\ns1,120,1\n')
    assert trace_values(traces) == [("s1", [0.0, 60.0, 120.0], [1.0, 1.0, 1.0])]
    assert len(calls) < 10


class TestPowerCsvChunks:
    """The parser reads blocks of whole lines of ``_BLOCK_BYTES`` bytes and
    more; here, of ten, so that most blocks hold one or two rows."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(axpue.io, "_BLOCK_BYTES", 10)

    def test_duplicate_across_chunks_reports_later_line(self):
        with pytest.raises(DuplicateSampleError) as excinfo:
            parse_csv(HEADER + "s1,0,100\ns1,60,100\ns2,0,5\ns1,60,101\n")
        assert excinfo.value.line == 5
        assert str(excinfo.value) == "device 's1': duplicate timestamp 60.0"

    def test_bad_first_row_of_second_chunk_carries_its_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_csv(HEADER + "s1,0,100\ns1,60,100\ns1,120,1a\ns1,180,100\n")
        assert excinfo.value.line == 4
        assert str(excinfo.value) == "bad watts value '1a'"

    def test_quoted_device_id_mid_file(self):
        traces = parse_csv(HEADER + 's1,0,100\ns1,60,100\n"a,b",0,7\ns1,120,100\n')
        assert trace_values(traces) == [
            ("a,b", [0.0], [7.0]),
            ("s1", [0.0, 60.0, 120.0], [100.0, 100.0, 100.0]),
        ]

    def test_quoted_field_spanning_lines_counts_as_one_row(self):
        with pytest.raises(InvalidPowerError) as excinfo:
            parse_csv(HEADER + 's1,0,100\n"a\nb",0,7\ns1,60,-1\n')
        assert excinfo.value.line == 4

    def test_crlf_file_parses_like_lf(self):
        rows = ["s1,0,100", "s2,0,50", "s1,60,110", "s2,60,55", "s1,120,120"]
        lf = HEADER + "".join(r + "\n" for r in rows)
        crlf = lf.replace("\n", "\r\n")
        from_file = parse_csv(crlf)
        assert trace_values(from_file) == trace_values(parse_csv(lf))

    def test_padded_device_ids_merge(self):
        traces = parse_csv(HEADER + " a,0,1\na,60,2\na ,120,3\n")
        assert trace_values(traces) == [("a", [0.0, 60.0, 120.0], [1.0, 2.0, 3.0])]

    def test_plain_block_after_a_quoted_one_is_split(self, monkeypatch):
        split_block, split = axpue.io._split_block, []

        def spy(text):
            columns = split_block(text)
            split.append((text, columns is not None))
            return columns

        monkeypatch.setattr(axpue.io, "_split_block", spy)
        traces = parse_csv(HEADER + '"s1",0,100\ns1,60,100\n')
        assert split == [('"s1",0,100\n', False), ("s1,60,100\n", True)]
        assert trace_values(traces) == [("s1", [0.0, 60.0], [100.0, 100.0])]

    def test_last_line_without_newline(self):
        traces = parse_csv(HEADER + "s1,0,100\ns1,60,100\ns1,120,5")
        assert trace_values(traces) == [("s1", [0.0, 60.0, 120.0], [100.0, 100.0, 5.0])]

    def test_rfc3339_and_epoch_mixed_across_chunks(self):
        traces = parse_csv(
            HEADER
            + "s1,0,1\ns1,1970-01-01T00:01:00Z,2\ns1,1970-01-01T00:02:00Z,3\ns1,180,4\n"
        )
        assert trace_values(traces) == [("s1", [0.0, 60.0, 120.0, 180.0], [1.0, 2.0, 3.0, 4.0])]


def run_line(**overrides) -> str:
    obj = {
        "run_id": "grep-1",
        "category": "data_analysis",
        "start": 0.0,
        "end": 100.0,
        "work": {"type": "bytes_processed", "value": 10**9},
        "devices": ["s1"],
    }
    obj.update(overrides)
    return json.dumps(obj) + "\n"


class TestParseRunsJsonl:
    def test_valid_line(self):
        runs = parse_runs_jsonl(io.StringIO(run_line()))
        assert len(runs) == 1
        assert runs[0].category is ApplicationCategory.DATA_ANALYSIS
        assert runs[0].work.kind is WorkKind.BYTES_PROCESSED

    def test_work_kind_mismatch_is_schema_error(self):
        line = run_line(category="service")
        with pytest.raises(SchemaError) as excinfo:
            parse_runs_jsonl(io.StringIO(line))
        assert excinfo.value.line == 1

    def test_empty_stream(self):
        assert parse_runs_jsonl(io.StringIO("")) == []

    def test_unknown_category_rejected(self):
        with pytest.raises(SchemaError):
            parse_runs_jsonl(io.StringIO(run_line(category="mining")))

    def test_unknown_work_type_rejected(self):
        with pytest.raises(SchemaError):
            parse_runs_jsonl(io.StringIO(run_line(work={"type": "widgets", "value": 1})))

    def test_inverted_window_carries_line(self):
        stream = io.StringIO(run_line() + run_line(run_id="bad", start=50.0, end=50.0))
        with pytest.raises(InvalidWindowError) as excinfo:
            parse_runs_jsonl(stream)
        assert excinfo.value.line == 2

    def test_integral_float_work_accepted(self):
        runs = parse_runs_jsonl(io.StringIO(run_line(work={"type": "bytes_processed", "value": 1e9})))
        assert runs[0].work.amount == 10**9

    def test_fractional_work_rejected(self):
        with pytest.raises(SchemaError):
            parse_runs_jsonl(
                io.StringIO(run_line(work={"type": "bytes_processed", "value": 1.5}))
            )

    def test_non_string_run_id_rejected(self):
        stream = io.StringIO(run_line() + run_line(run_id=5))
        with pytest.raises(SchemaError) as excinfo:
            parse_runs_jsonl(stream)
        assert excinfo.value.line == 2

    @pytest.mark.parametrize("key", ["start", "end"])
    def test_boolean_timestamp_rejected(self, key):
        overrides = {"start": True} if key == "start" else {"start": 0.0, "end": True}
        stream = io.StringIO(run_line() + run_line(**overrides))
        with pytest.raises(SchemaError) as excinfo:
            parse_runs_jsonl(stream)
        assert excinfo.value.line == 2

    def test_work_value_beyond_float_range_carries_line(self):
        huge = run_line(run_id="huge", work={"type": "bytes_processed", "value": 10**400})
        with pytest.raises(SchemaError) as excinfo:
            parse_runs_jsonl(io.StringIO(run_line() + huge))
        assert excinfo.value.line == 2
        assert str(excinfo.value) == "work amount is beyond float range"

    def test_write_parse_round_trip(self):
        runs = parse_runs_jsonl(io.StringIO(run_line()))
        again = parse_runs_jsonl(io.StringIO(write_runs_jsonl(runs).decode("utf-8")))
        assert again == runs

    # Each line of this file is invalid JSON, yet the lines joined with
    # commas into one array decode to three objects.
    JOINED_INTO_AN_ARRAY_DECODES = (
        '{"run_id":"r1"},{"run_id":"r2"}\n{"run_id":"r3","pad":[{"x":1}\n{"y":2}]}\n'
    )

    @pytest.mark.parametrize(
        "text, line, message",
        [
            (JOINED_INTO_AN_ARRAY_DECODES, 1, "invalid JSON: Extra data"),
            (
                run_line() + "\ufeff" + run_line(run_id="b"),
                2,
                "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)",
            ),
            # str.strip removes a form feed or a vertical tab; JSON does not.
            (run_line() + "\x0c" + run_line(run_id="b"), 2, "invalid JSON: Expecting value"),
            (run_line() + run_line(run_id="b")[:-1] + "\x0b\n", 2, "invalid JSON: Extra data"),
            (run_line() + "[" * 100_000 + "]" * 100_000 + "\n", 2, "invalid JSON: nested too deeply"),
            (
                run_line() + run_line(run_id="b", work={"type": "bytes_processed", "value": 0}).replace(
                    ": 0}", ": 1" + "0" * 4999 + "}"
                ),
                2,
                "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion: "
                "value has 5000 digits",
            ),
        ],
        ids=["joined-array", "bom", "form-feed-before", "vertical-tab-after", "deep", "5000-digits"],
    )
    def test_undecodable_line_named(self, text, line, message):
        with pytest.raises(SchemaError) as excinfo:
            parse_runs_jsonl(io.StringIO(text))
        assert type(excinfo.value) is SchemaError
        assert (excinfo.value.line, str(excinfo.value)) == (line, message)

    def test_bytes_lines_decoded_as_utf8(self):
        text = (run_line() + run_line(run_id="b")).encode()
        assert [run.run_id for run in parse_runs_jsonl(io.BytesIO(text))] == ["grep-1", "b"]
        with pytest.raises(SchemaError) as excinfo:
            parse_runs_jsonl(io.BytesIO(text + b"\xff\n"))
        assert (excinfo.value.line, str(excinfo.value)) == (3, "invalid JSON: invalid start byte")

    def test_line_of_unicode_whitespace_is_blank(self):
        text = run_line() + "\x0c\u2028\n" + run_line(run_id="b")
        assert [run.run_id for run in parse_runs_jsonl(io.StringIO(text))] == ["grep-1", "b"]

    def test_first_missing_key_named(self):
        with pytest.raises(SchemaError, match="^missing key 'start'$"):
            parse_runs_jsonl(io.StringIO('{"run_id": "a", "category": "hpc", "work": 1}\n'))


class TestInventoryJson:
    def test_round_trip(self):
        devices = parse_inventory_json(
            '[{"device_id": "s1", "category": "it_equipment", "label": "rack 3"}]'
        )
        assert devices[0].category is DeviceCategory.IT_EQUIPMENT
        again = parse_inventory_json(write_inventory_json(devices).decode("utf-8"))
        assert again == devices

    def test_unknown_category_rejected(self):
        with pytest.raises(SchemaError):
            parse_inventory_json('[{"device_id": "s1", "category": "quantum"}]')

    def test_non_list_rejected(self):
        with pytest.raises(SchemaError):
            parse_inventory_json('{"device_id": "s1"}')


def published_comprehensive_report() -> MetricsReport:
    """Report carrying the exact quotients of the comprehensive workload row."""
    duration = 3600.0
    it_kw, total_kw, rate_kb_s = 100.412, 147.323, 563.271
    window = EnergyWindow(
        0.0,
        duration,
        {
            DeviceCategory.IT_EQUIPMENT: it_kw * 1000.0 * duration,
            DeviceCategory.COOLING: (total_kw - it_kw) * 1000.0 * duration,
        },
    )
    pue = window.total_facility_energy / window.it_energy
    rate = PerformanceRate(rate_kb_s, RateUnit.KB_PER_SECOND)
    row = RunMetrics(
        run_id="BigDataBench",
        category=ApplicationCategory.DATA_ANALYSIS,
        it_power_kw=it_kw,
        facility_power_kw=it_kw * pue,
        performance=rate,
        appue=rate_kb_s / it_kw,
        aopue=rate_kb_s / it_kw / pue,
        weight=1.0,
    )
    return MetricsReport(
        window=window,
        pue=pue,
        per_run=(row,),
        weighted_appue=row.appue,
        aggregated_aopue=row.aopue,
        provenance={"integration_method": "trapezoidal"},
    )


class TestWriteReport:
    def test_csv_matches_published_row(self):
        data = write_report(published_comprehensive_report(), fmt="csv").decode("utf-8")
        lines = data.splitlines()
        assert lines[0] == "workload,it_power_kw,total_facility_power_kw,performance,pue,appue,aopue"
        assert lines[1] == "BigDataBench,100.412,147.323,563.271 KB/s,1.467,5.6096,3.823"

    def test_empty_report_has_window_summary_row(self):
        window = EnergyWindow(
            0.0,
            3600.0,
            {DeviceCategory.IT_EQUIPMENT: 3.6e8, DeviceCategory.COOLING: 1.8e8},
        )
        report = MetricsReport(
            window=window,
            pue=1.5,
            per_run=(),
            weighted_appue=None,
            aggregated_aopue=None,
        )
        lines = write_report(report, fmt="csv").decode("utf-8").splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("(window),100.000,150.000,,1.500")

    def test_json_round_trip_is_byte_identical(self):
        report = published_comprehensive_report()
        first = write_report(report, fmt="json")
        parsed = read_report(first)
        second = write_report(parsed, fmt="json")
        assert first == second

    def test_round_trip_preserves_fields(self):
        report = published_comprehensive_report()
        parsed = read_report(write_report(report))
        assert parsed.pue == report.pue
        assert parsed.per_run == report.per_run
        assert parsed.window == report.window
        assert parsed.weighted_appue == report.weighted_appue

    def test_serialization_is_deterministic(self):
        report = published_comprehensive_report()
        assert write_report(report) == write_report(report)
        assert write_report(report, fmt="csv") == write_report(report, fmt="csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError):
            write_report(published_comprehensive_report(), fmt="xml")

    def test_read_rejects_wrong_schema(self):
        with pytest.raises(SchemaError):
            read_report('{"schema": "something-else/9"}')
        with pytest.raises(SchemaError):
            read_report("not json at all")


class TestLoadBundle:
    """``load_bundle`` only parses; ``analyze`` rejects what does not fit."""

    @staticmethod
    def write_inputs(tmp_path, power_text, runs_text, inventory_text):
        power = tmp_path / "power.csv"
        runs = tmp_path / "runs.jsonl"
        inventory = tmp_path / "inventory.json"
        power.write_text(power_text)
        runs.write_text(runs_text)
        inventory.write_text(inventory_text)
        return power, runs, inventory

    INVENTORY = '[{"device_id": "s1", "category": "it_equipment"}]'

    def test_valid_bundle(self, tmp_path):
        paths = self.write_inputs(
            tmp_path, HEADER + "s1,0,100\ns1,60,100\ns1,100,100\n", run_line(), self.INVENTORY
        )
        bundle = load_bundle(*paths)
        assert len(bundle.traces) == 1
        assert len(bundle.runs) == 1

    def test_unknown_trace_device_rejected(self, tmp_path):
        paths = self.write_inputs(
            tmp_path, HEADER + "ghost,0,100\n", "", self.INVENTORY
        )
        bundle = load_bundle(*paths)
        with pytest.raises(UnknownDeviceError):
            analyze(bundle.traces, bundle.inventory, bundle.runs, window=(0.0, 60.0))

    def test_run_window_outside_coverage_rejected(self, tmp_path):
        # Samples end at t=100 but the run lasts until t=100 + >max_gap.
        paths = self.write_inputs(
            tmp_path,
            HEADER + "s1,0,100\ns1,60,100\ns1,100,100\n",
            run_line(end=300.0),
            self.INVENTORY,
        )
        bundle = load_bundle(*paths)
        with pytest.raises(CoverageGapError):
            analyze(bundle.traces, bundle.inventory, bundle.runs, max_gap=60.0)

    def test_run_attributing_unknown_device_rejected(self, tmp_path):
        paths = self.write_inputs(
            tmp_path,
            HEADER + "s1,0,100\ns1,60,100\ns1,100,100\n",
            run_line(devices=["ghost"]),
            self.INVENTORY,
        )
        bundle = load_bundle(*paths)
        with pytest.raises(UnknownDeviceError):
            analyze(bundle.traces, bundle.inventory, bundle.runs)
