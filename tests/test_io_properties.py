"""Property tests: the block power-CSV parser and the block writer against
row-at-a-time ones.

``reference_parse_power_csv`` is the row loop the block parser replaced.
It is kept here only as the reference the parser is compared against: on
every generated input both must return the same traces, or raise the same
error type with the same message and line.  ``reference_write_power_csv``
is likewise the row writer the block writer must match byte for byte.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import axpue.io
from axpue import PowerTrace, parse_power_csv
from axpue.errors import DuplicateSampleError, InvalidPowerError, ParseError
from axpue.io import POWER_CSV_HEADER, _parse_timestamp, write_power_csv


def reference_parse_power_csv(stream):
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty power CSV: missing header", line=1) from None
    if tuple(h.strip() for h in header) != POWER_CSV_HEADER:
        raise ParseError(
            f"expected header {','.join(POWER_CSV_HEADER)!r}, got {','.join(header)!r}",
            line=1,
        )
    by_device: dict[str, list[tuple[float, float, int]]] = {}
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, got {len(row)}", line=line)
        device_id = row[0].strip()
        if not device_id:
            raise ParseError("empty device_id", line=line)
        try:
            timestamp = _parse_timestamp(row[1])
        except (ValueError, OverflowError):
            raise ParseError(f"bad timestamp {row[1]!r}", line=line) from None
        try:
            watts = float(row[2])
        except ValueError:
            raise ParseError(f"bad watts value {row[2]!r}", line=line) from None
        if not math.isfinite(watts) or watts < 0:
            raise InvalidPowerError(
                f"device {device_id!r}: watts must be finite and >= 0, got {watts!r}",
                line=line,
            )
        if not math.isfinite(timestamp):
            raise ParseError(f"non-finite timestamp {row[1]!r}", line=line)
        by_device.setdefault(device_id, []).append((timestamp, watts, line))
    traces = []
    for device_id in sorted(by_device):
        rows = sorted(by_device[device_id], key=lambda r: (r[0], r[2]))
        for (t0, _, l0), (t1, _, l1) in zip(rows, rows[1:]):
            if t0 == t1:
                raise DuplicateSampleError(
                    f"device {device_id!r}: duplicate timestamp {t0!r}",
                    line=max(l0, l1),
                )
        traces.append(PowerTrace(device_id, [r[0] for r in rows], [r[1] for r in rows]))
    return traces


def outcome(parse, make_stream):
    """The traces a parser returns, or the (type, message, line) it raises."""
    try:
        traces = parse(make_stream())
    except Exception as exc:
        return ("error", type(exc), str(exc), getattr(exc, "line", None))
    return ("ok", [(t.device_id, t.times.tolist(), t.watts.tolist()) for t in traces])


def mostly(valid, odd):
    """Valid values six times as often as odd ones, so rows get past each other."""
    return st.one_of(*[valid] * 6, odd)


DEVICES = mostly(
    st.sampled_from(["s1", "s2", " s1", "s1 ", "é"]),
    st.sampled_from(["a,b", "", " ", "\t", 'q"x', "s1\x00"]),
)
STAMPS = mostly(
    st.one_of(
        st.integers(-5, 200).map(str),
        st.sampled_from(
            [
                "60.0", "-0", "1e3", "1_0", " 5 ", "1970-01-01T00:00:00Z",
                "1970-01-01T00:01:00+00:00", "1970-01-01T00:00:00.25",
                "1970-01-01T00:01:00z", "2026-01-01T00:00:00.5Z",
            ]
        ),
    ),
    st.sampled_from(
        [
            "", "abc", "nan", "inf", "-inf", "1e999",
            "0001-01-01T00:00:00+01:00", "1970-13-01T00:00:00Z",
        ]
    ),
)
WATTS = mostly(
    st.one_of(
        st.sampled_from(["100", "0", "-0", " 7 ", "1_0", "0.5"]),
        st.floats(min_value=0, max_value=1e6).map(repr),
    ),
    st.sampled_from(["-5", "nan", "inf", "1e309", "1a", ""]),
)


def quoted(field: str) -> str:
    return '"' + field.replace('"', '""') + '"'


@st.composite
def csv_texts(draw):
    header = draw(
        st.sampled_from(
            ["device_id,timestamp,watts"] * 4
            + [" device_id , timestamp,watts", '"device_id",timestamp,watts', "device,t,w"]
        )
    )
    lines = [header]
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(
            st.sampled_from(["row"] * 10 + ["blank", "space", "short", "long", "quoted", "pair"])
        )
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(" ")
        elif kind in ("short", "pair"):
            lines.append(f"{draw(DEVICES)},{draw(STAMPS)}")
        if kind in ("long", "pair"):
            # After a short row, a long one keeps the commas per row right on average.
            lines.append(f"{draw(DEVICES)},{draw(STAMPS)},{draw(WATTS)},x")
        if kind in ("row", "quoted"):
            fields = [draw(DEVICES), draw(STAMPS), draw(WATTS)]
            if kind == "quoted":
                fields = [quoted(f) if draw(st.booleans()) else f for f in fields]
                if draw(st.booleans()):
                    fields[0] = quoted(draw(DEVICES) + "\nz")  # a field spanning two lines
            lines.append(",".join(fields))
    ending = draw(st.sampled_from(["\n"] * 5 + ["\r\n"] * 2 + ["\r"]))
    text = ending.join(lines)
    if draw(st.booleans()):
        text += ending
    return text


#: A text file's newline modes: as read by csv, universal, and \n only.
NEWLINES = ("", None, "\n")


HEADER = "device_id,timestamp,watts\n"


#: Block sizes that put block edges inside short inputs, and the default.
BLOCKS = st.integers(5, 20) | st.just(axpue.io._BLOCK_CHARS)


@contextlib.contextmanager
def parser_sizes(block=axpue.io._BLOCK_CHARS, reads=axpue.io._READ_CHARS, field_limit=None):
    """The parser with small blocks and reads, and a csv field limit."""
    old_limit = csv.field_size_limit(field_limit or csv.field_size_limit())
    try:
        with mock.patch.multiple(axpue.io, _BLOCK_CHARS=block, _READ_CHARS=reads):
            yield
    finally:
        csv.field_size_limit(old_limit)


#: ``parser_sizes`` arguments: block, read size and csv field limit.
SIZES = st.tuples(BLOCKS, st.integers(1, 8), st.none() | st.integers(8, 40))


def sizes(block=axpue.io._BLOCK_CHARS, reads=axpue.io._READ_CHARS, field_limit=None):
    return block, reads, field_limit


@settings(max_examples=500, deadline=None)
@given(text=csv_texts(), sizes=SIZES)
# A quoted field without a comma in it, in a later block.
@example(text=HEADER + 's1,0,1\ns1,60,1\n"s2",0,"1"\n', sizes=sizes(block=8))
# Rows of 2 and 4 fields in one block: 6 fields, as two good rows have.
@example(text=HEADER + "s1,0\ns2,5,1,x\n", sizes=sizes())
# A row of 4 fields, then a good row, in one block.
@example(text=HEADER + "s1,0,1,\ns2,0,1\n", sizes=sizes())
# Two rows of 2 fields in one block: as many commas as one good row.
@example(text=HEADER + "s1,5\n,1\n", sizes=sizes())
# A last line of one field, without a newline.
@example(text=HEADER + "s1,0,1\ns1", sizes=sizes())
# A blank line, then a last line without a newline, in the next block.
@example(text=HEADER + "s1,0,1\n\ns2,0,100", sizes=sizes(block=7))
# A \r\n split between two reads, where a block's last line is completed.
@example(text=HEADER + "s1,0,1\r\ns1,60,1\r\n", sizes=sizes(block=7, reads=3))
# A lone \r ends a line only where the stream has universal newlines.
@example(text=HEADER + "s1,0,1\rs1,60,1\n", sizes=sizes())
# A line longer than the block.
@example(text=HEADER + "s1,0,1\nsensor-a,60.0,100.5\ns1,60,1\n", sizes=sizes(block=10))
# A block completed past a small csv field limit.
@example(
    text=HEADER + "s1,0,1\ns2,1970-01-01T00:00:00Z,1\n", sizes=sizes(block=16, field_limit=20)
)
# A quoted record that opens in one block and closes in the next.
@example(text=HEADER + 's1,0,1\n"s2\nz",0,1\ns1,60,1\n', sizes=sizes(block=8))
@example(text=HEADER + 's1,0,1\n"s2\n\nz",0,1\ns1,60,1\n', sizes=sizes(block=8, reads=2))
# A quoted row in the first block, and a bad watts value two blocks later.
@example(text=HEADER + '"s1",0,1\ns1,60,1\ns1,120,x\ns1,180,1\n', sizes=sizes(block=8))
def test_chunked_parser_matches_row_loop(text, sizes):
    with parser_sizes(*sizes):
        for newline in NEWLINES:
            def make_stream():
                return io.StringIO(text, newline=newline)

            expected = outcome(reference_parse_power_csv, make_stream)
            assert outcome(parse_power_csv, make_stream) == expected, newline


class UndecodableAfter(io.StringIO):
    """Text whose reads raise ``UnicodeDecodeError`` once it is used up."""

    def _check(self):
        if self.tell() >= len(self.getvalue()):
            raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

    def read(self, size=-1):
        self._check()
        return super().read(size)

    def readline(self, size=-1):
        self._check()
        return super().readline(size)

    def __next__(self):
        self._check()
        return super().__next__()


@settings(max_examples=100, deadline=None)
@given(text=csv_texts(), newline=st.sampled_from(NEWLINES), sizes=SIZES)
# The stream fails inside a quoted record that is still open.
@example(text=HEADER + '"s1\nz",0,100', newline="", sizes=sizes())
# ... in the block after the one that opened it.
@example(text=HEADER + 's1,0,1\n"s2\nz",0,1\n', newline="", sizes=sizes(block=8))
def test_stream_failure_is_reported_after_earlier_rows(text, newline, sizes):
    # A failed read loses the line it cuts, so the text ends with a whole line.
    text = text[: text.rfind("\n") + 1]
    with parser_sizes(*sizes):
        def make_stream():
            return UndecodableAfter(text, newline=newline)

        expected = outcome(reference_parse_power_csv, make_stream)
        assert outcome(parse_power_csv, make_stream) == expected


def test_bytes_lines_raise_like_csv():
    def make_stream():
        return io.BytesIO(b"device_id,timestamp,watts\ns1,0,1\n")

    expected = outcome(reference_parse_power_csv, make_stream)
    assert expected[0] == "error"
    assert outcome(parse_power_csv, make_stream) == expected


def test_field_over_csv_limit_raises_like_csv():
    text = "device_id,timestamp,watts\ns1,0,1\n" + "s" * 40 + ",0,1\n"
    with parser_sizes(field_limit=20):
        expected = outcome(reference_parse_power_csv, lambda: io.StringIO(text))
        assert expected[0] == "error"
        assert outcome(parse_power_csv, lambda: io.StringIO(text)) == expected


@pytest.mark.parametrize(
    "watts, error, line",
    [("bad", ParseError, 3), ("1", UnicodeDecodeError, None)],
    ids=["bad-row-first", "only-the-byte"],
)
def test_lines_before_an_undecodable_byte_are_checked_first(tmp_path, watts, error, line):
    """Complete lines read before the byte are checked; the line it cut is not."""
    rows = "".join(f"s1,{60 * i},100\n" for i in range(3, 1600))
    assert len(rows) > 20_000
    path = tmp_path / "power.csv"
    path.write_bytes((HEADER + f"s1,0,1\ns1,60,{watts}\n" + rows).encode() + b"\xff,0,1\n")
    with open(path, encoding="utf-8", newline="") as f:
        with pytest.raises(error) as caught:
            parse_power_csv(f)
    assert getattr(caught.value, "line", None) == line


DEVICE_IDS = st.text(
    alphabet=st.characters(blacklist_characters=',"\r\n', blacklist_categories=("C", "Z")),
    min_size=1,
    max_size=6,
)
SAMPLES = st.lists(
    st.tuples(
        DEVICE_IDS,
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(min_value=0, allow_infinity=False),
    ),
    max_size=30,
    unique_by=lambda s: (s[0], s[1] + 0.0),
)


@settings(max_examples=200, deadline=None)
@given(samples=SAMPLES, block=BLOCKS)
def test_write_then_parse_round_trips(samples, block):
    # One-sample blocks keep the rows in their drawn, arbitrary order.
    text = write_power_csv([(d, [t], [w]) for d, t, w in samples]).decode("utf-8")
    with parser_sizes(block):
        traces = parse_power_csv(io.StringIO(text, newline=""))
    expected = {}
    for device_id, timestamp, watts in sorted(samples, key=lambda s: (s[0], s[1])):
        times, powers = expected.setdefault(device_id, ([], []))
        times.append(timestamp)
        powers.append(watts)
    assert [(t.device_id, t.times.tolist(), t.watts.tolist()) for t in traces] == [
        (device_id, times, powers) for device_id, (times, powers) in sorted(expected.items())
    ]


def reference_write_power_csv(rows) -> bytes:
    """The row-at-a-time writer that the block writer replaced."""
    out = io.StringIO()
    out.write(",".join(POWER_CSV_HEADER) + "\n")
    for device_id, timestamp, watts in rows:
        out.write(f"{device_id},{float(timestamp)!r},{float(watts)!r}\n")
    return out.getvalue().encode("utf-8")


# Integers within float64's exact range print as floats through both writers.
NUMBERS = st.floats(allow_nan=False) | st.integers(-(2**53), 2**53)


@settings(max_examples=200, deadline=None)
@given(times=st.lists(NUMBERS, max_size=6), data=st.data())
def test_block_writer_matches_the_row_writer(times, data):
    """Blocks on one shared grid, or on a copy of it, print as the row loop does."""
    grid = np.array(times, dtype=np.float64)
    blocks = [
        (device_id, grid if shared else list(times), data.draw(st.lists(NUMBERS, min_size=len(times), max_size=len(times))))
        for device_id, shared in data.draw(st.lists(st.tuples(DEVICE_IDS, st.booleans()), max_size=4))
    ]
    rows = [(d, t, w) for d, _, watts in blocks for t, w in zip(times, watts)]
    assert write_power_csv(blocks) == reference_write_power_csv(rows)
