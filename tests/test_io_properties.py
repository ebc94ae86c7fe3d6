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
import itertools
import math
import os
import pickle
import re
import signal
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
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
    """The traces a parser returns, or the (type, message, line) it raises.

    A ``UnicodeDecodeError``'s message is its reason: its offsets count from
    wherever its decoder started.
    """
    try:
        traces = parse(make_stream())
    except Exception as exc:
        message = exc.reason if isinstance(exc, UnicodeDecodeError) else str(exc)
        return ("error", type(exc), message, getattr(exc, "line", None))
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
def csv_texts(draw, quotes=True):
    """Power CSV texts with ``\n``, ``\r\n`` or lone ``\r`` line endings,
    and quoted records unless ``quotes`` is false."""
    header = draw(
        st.sampled_from(
            ["device_id,timestamp,watts"] * 4
            + [" device_id , timestamp,watts", '"device_id",timestamp,watts', "device,t,w"]
        )
    )
    lines = [header]
    kinds = ["row"] * 10 + ["blank", "space", "short", "long", "quoted", "pair"]
    if not quotes:
        kinds.remove("quoted")
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(kinds))
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


HEADER = "device_id,timestamp,watts\n"


#: Block sizes that put block edges inside short inputs, and the default.
BLOCKS = st.integers(5, 20) | st.just(axpue.io._BLOCK_BYTES)


@contextlib.contextmanager
def parser_sizes(block=axpue.io._BLOCK_BYTES, field_limit=None, batch=axpue.io._BATCH_ROWS):
    """The parser with small blocks, which it also reads in, a csv field
    limit, and batches of ``batch`` rows or more when traces are built."""
    old_limit = csv.field_size_limit(field_limit or csv.field_size_limit())
    try:
        with mock.patch.multiple(axpue.io, _BLOCK_BYTES=block, _BATCH_ROWS=batch):
            yield
    finally:
        csv.field_size_limit(old_limit)


#: ``parser_sizes`` arguments: block and csv field limit.
SIZES = st.tuples(BLOCKS, st.none() | st.integers(8, 40))


def sizes(block=axpue.io._BLOCK_BYTES, field_limit=None):
    return block, field_limit


def parse_bytes(text):
    """The parser's outcome on ``text``, read as UTF-8 bytes."""
    return outcome(parse_power_csv, lambda: io.BytesIO(text.encode()))


def reference(text):
    """The reference's outcome on ``text``, read as ``csv`` reads a file."""
    return outcome(reference_parse_power_csv, lambda: io.StringIO(text, newline=""))


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
@example(text=HEADER + "s1,0,1\r\ns1,60,1\r\n", sizes=sizes(block=7))
# A lone \r ends a line, as in csv.
@example(text=HEADER + "s1,0,1\rs1,60,1\n", sizes=sizes())
# A line longer than the block.
@example(text=HEADER + "s1,0,1\nsensor-a,60.0,100.5\ns1,60,1\n", sizes=sizes(block=10))
# A block completed past a small csv field limit.
@example(
    text=HEADER + "s1,0,1\ns2,1970-01-01T00:00:00Z,1\n", sizes=sizes(block=16, field_limit=20)
)
# A quoted record that opens in one block and closes in the next.
@example(text=HEADER + 's1,0,1\n"s2\nz",0,1\ns1,60,1\n', sizes=sizes(block=8))
@example(text=HEADER + 's1,0,1\n"s2\n\nz",0,1\ns1,60,1\n', sizes=sizes(block=8))
# A quoted row in the first block, and a bad watts value two blocks later.
@example(text=HEADER + '"s1",0,1\ns1,60,1\ns1,120,x\ns1,180,1\n', sizes=sizes(block=8))
def test_chunked_parser_matches_row_loop(text, sizes):
    with parser_sizes(*sizes):
        assert parse_bytes(text) == reference(text)


def test_text_stream_is_rejected():
    with pytest.raises(TypeError, match="needs a binary stream"):
        parse_power_csv(io.StringIO(HEADER + "s1,0,1\n"))


def test_field_over_csv_limit_raises_like_csv():
    text = "device_id,timestamp,watts\ns1,0,1\n" + "s" * 40 + ",0,1\n"
    with parser_sizes(field_limit=20):
        expected = reference(text)
        assert expected[0] == "error"
        assert parse_bytes(text) == expected


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
    with open(path, "rb") as f:
        with pytest.raises(error) as caught:
            parse_power_csv(f)
    assert getattr(caught.value, "line", None) == line


@contextlib.contextmanager
def ranges(cpus, range_bytes=1):
    """The parser with ``cpus`` CPUs and ranges of ``range_bytes`` bytes or more."""
    with mock.patch.multiple(axpue.io, _RANGE_BYTES=range_bytes, _cpu_count=lambda: cpus):
        yield


def file_outcome(path, **sizes):
    """The parser's outcome on the file at ``path``."""
    with parser_sizes(**sizes), open(path, "rb") as f:
        return outcome(parse_power_csv, lambda: f)


def reference_file_outcome(path):
    """The reference's outcome on the file at ``path``, read as ``csv`` reads a file."""
    with open(path, encoding="utf-8", newline="") as f:
        return outcome(reference_parse_power_csv, lambda: f)


def ranged_outcome(path, cpus, range_bytes=1, **sizes):
    """The ranged parse's outcome and the byte ranges it forked children for.

    Afterwards, no child of this process is left, reaped or not.
    """
    forked, fork_range = [], axpue.io._fork_range

    def spy(fd, start, end):
        forked.append((start, end))
        return fork_range(fd, start, end)

    with ranges(cpus, range_bytes), mock.patch.object(axpue.io, "_fork_range", spy):
        result = file_outcome(path, **sizes)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return result, forked


def range_cuts(path, cpus):
    """The offsets where the parser cuts the file at ``path`` into ranges."""
    with ranges(cpus), open(path, "rb") as f:
        return axpue.io._range_cuts(f.fileno())


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    text=csv_texts(quotes=False),
    cpus=st.integers(2, 4),
    range_bytes=st.integers(1, 64),
    block=BLOCKS,
)
def test_ranged_parse_matches_row_loop(tmp_path, text, cpus, range_bytes, block):
    path = tmp_path / "power.csv"
    path.write_bytes(text.encode())
    expected = reference_file_outcome(path)
    assert ranged_outcome(path, cpus, range_bytes, block=block)[0] == expected


def rows(*times, device="s1", watts="1"):
    return "".join(f"{device},{t},{watts}\n" for t in times)


@pytest.mark.parametrize(
    "cpus, text, where",
    [
        # Bad rows in the ranges of two children: the first one's error wins.
        (3, HEADER + rows(0, 60, 120) + "s1,180,x\n" + rows(240) + "s1,300,y\n", ["", "x", "y"]),
        # A bad row in this process's range, and one in a child's.
        (2, HEADER + "s1,0,x\n" + rows(60, 120) + "s1,180,y\n", ["x", "y"]),
        # The same sample in two ranges: the later line is reported.
        (2, HEADER + rows(0, 60, 120, 180, 60, 240), ["s1,60,", "s1,60,"]),
        # A device seen only in the last range.
        (3, HEADER + rows(0, 60, 120, 180, 240, 300) + rows(0, 60, device="s0"), ["", "", "s0"]),
        # A cut just before a blank line.
        (2, HEADER + rows(*range(100, 150, 10)) + "\n" + rows(*range(150, 200, 10)), ["", "^\n"]),
    ],
    ids=[
        "bad-rows-in-two-children",
        "bad-rows-here-and-in-a-child",
        "duplicate-across-ranges",
        "device-in-last-range",
        "cut-at-blank-line",
    ],
)
def test_ranged_parse_pinned_cases(tmp_path, cpus, text, where):
    """Each range's text matches its pattern in ``where``."""
    path = tmp_path / "power.csv"
    path.write_bytes(text.encode())
    cuts = range_cuts(path, cpus)
    assert len(cuts) == cpus + 1
    data = path.read_bytes()
    pieces = [data[start:end].decode() for start, end in zip(cuts, cuts[1:])]
    assert all(re.search(pattern, piece) for pattern, piece in zip(where, pieces))
    expected = reference_file_outcome(path)
    assert ranged_outcome(path, cpus) == (expected, list(zip(cuts[1:-1], cuts[2:])))


def test_quoted_file_is_parsed_in_one_process(tmp_path):
    path = tmp_path / "power.csv"
    path.write_bytes((HEADER + rows(0, 60, 120) + '"s1",180,1\n' + rows(240, 300)).encode())
    expected = reference_file_outcome(path)
    assert ranged_outcome(path, 4) == (expected, [])


PARENT = os.getpid()


def _crash(stream, samples, line, parse_rows=axpue.io._parse_rows):
    """``_parse_rows`` that kills a child with its range read, and sends nothing."""
    line = parse_rows(stream, samples, line)
    if os.getpid() != PARENT:
        os._exit(0)
    return line


def _bad_result(obj, out, protocol):
    """``pickle.dump`` that sends a broken pickle, from a child that then exits 0."""
    out.write(b"\x80\x05junk")


def _result_then_error(obj, out, protocol):
    """``pickle.dump`` that sends a whole result without samples, then fails."""
    out.write(pickle.dumps(([], 0, ([], [], [], [])), protocol=protocol))
    raise OSError("the child fails after sending")


@pytest.mark.parametrize(
    "patch",
    [("_parse_rows", _crash), ("pickle.dump", _bad_result), ("pickle.dump", _result_then_error)],
    ids=["crash", "bad-result", "result-then-error"],
)
@pytest.mark.parametrize("bad", ["", "s1,130,x\n"], ids=["good-file", "bad-row"])
def test_failed_children_are_not_trusted(tmp_path, patch, bad):
    """Ranges whose children send no result are parsed again in this process."""
    path = tmp_path / "power.csv"
    path.write_bytes((HEADER + rows(0, 60, 120) + bad + rows(180, 240, 300, device="s2")).encode())
    expected = reference_file_outcome(path)
    name, fake = patch
    target = axpue.io.pickle if name == "pickle.dump" else axpue.io
    with mock.patch.object(target, name.rpartition(".")[2], fake):
        result, forked = ranged_outcome(path, 3)
    assert forked and result == expected


def _reaped_elsewhere(pid, options, waitpid=os.waitpid):
    """``os.waitpid`` on a child that another waiter reaps first."""
    status = waitpid(pid, options)
    if pid < 0:
        return status
    raise ChildProcessError(pid)


@pytest.mark.parametrize("bad", ["", "s1,0,x\n"], ids=["good-file", "bad-row-here"])
def test_children_reaped_elsewhere_are_not_trusted(tmp_path, bad):
    """A child whose exit status is lost is not trusted, nor killed twice."""
    path = tmp_path / "power.csv"
    path.write_bytes((HEADER + bad + rows(60, 120, 180) + rows(240, 300, device="s2")).encode())
    expected = reference_file_outcome(path)
    with mock.patch.object(os, "waitpid", _reaped_elsewhere):
        result, forked = ranged_outcome(path, 3)
    assert forked and result == expected


@contextlib.contextmanager
def sigchld_ignored():
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        yield
    finally:
        signal.signal(signal.SIGCHLD, previous)


@contextlib.contextmanager
def another_thread():
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        yield
    finally:
        done.set()
        thread.join()


@pytest.mark.parametrize("context", [sigchld_ignored, another_thread])
@pytest.mark.parametrize("bad", ["", "s1,0,x\n"], ids=["good-file", "bad-row"])
def test_no_fork_where_children_could_hang_or_vanish(tmp_path, context, bad):
    """Ignored ``SIGCHLD`` reaps children before ``waitpid``; a child forked
    beside other threads could wait forever on a lock one of them held."""
    path = tmp_path / "power.csv"
    path.write_bytes((HEADER + bad + rows(60, 120, 180) + rows(240, 300, device="s2")).encode())
    expected = reference_file_outcome(path)
    assert ranged_outcome(path, 3)[1]
    with context():
        assert ranged_outcome(path, 3) == (expected, [])


@pytest.mark.parametrize(
    "watts, error, line",
    [("x", ParseError, 10), ("1", UnicodeDecodeError, None)],
    ids=["bad-row-first", "only-the-byte"],
)
def test_undecodable_byte_in_a_child_range(tmp_path, watts, error, line):
    """Results and errors do not depend on the CPU count."""
    path = tmp_path / "power.csv"
    text = HEADER + rows(*range(0, 480, 60)) + f"s1,480,{watts}\n"
    path.write_bytes(text.encode() + b"s1,\xff,1\n" + rows(540, 600).encode())
    with ranges(cpus=1):
        expected = file_outcome(path)
    assert expected[1::2] == (error, line)
    result, forked = ranged_outcome(path, 2)
    # The child's range holds line 10 and the byte.
    assert len(forked) == 1 and forked[0][0] <= text.index("s1,480,")
    assert result == expected


def raising(failure):
    """An iterator that raises ``failure`` when asked for its first item."""
    raise failure
    yield


#: A power CSV text and the offset of its encoding where a 0xff byte goes in.
WITH_A_BAD_BYTE = csv_texts().flatmap(
    lambda text: st.tuples(st.just(text), st.integers(0, len(text.encode())))
)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=WITH_A_BAD_BYTE, block=BLOCKS, cpus=st.integers(2, 3))
# The byte in a quoted record that is still open.
@example(case=(HEADER + '"s1\nz",0,100', len(HEADER) + 4), block=axpue.io._BLOCK_BYTES, cpus=2)
# ... in the block after the one that opened it.
@example(case=(HEADER + 's1,0,1\n"s2\nz",0,1\n', len(HEADER) + 11), block=8, cpus=2)
# Between the \r and the \n of a line end, and inside a two-byte character.
@example(case=(HEADER + "s1,0,x\r\ns1,60,1\r\n", len(HEADER) + 7), block=8, cpus=2)
@example(case=(HEADER + "s1,0,1\n\u00e9,60,1\n", len(HEADER) + 8), block=5, cpus=2)
def test_undecodable_byte_is_raised_after_the_lines_before_it(tmp_path, case, block, cpus):
    """Both the one-process and the ranged parse check every whole line
    before the byte, as the reference does, and then raise its error."""
    text, at = case
    data = text.encode()
    data = data[:at] + b"\xff" + data[at:]
    with pytest.raises(UnicodeDecodeError) as caught:
        data.decode("utf-8")
    failure = caught.value
    # The whole lines before the byte, split as csv splits a file.
    lines = io.StringIO(data[: failure.start].decode("utf-8"), newline="").readlines()
    if lines and not lines[-1].endswith(("\n", "\r")):
        del lines[-1]
    expected = outcome(reference_parse_power_csv, lambda: itertools.chain(lines, raising(failure)))
    with parser_sizes(block):
        assert outcome(parse_power_csv, lambda: io.BytesIO(data)) == expected
    path = tmp_path / "power.csv"
    path.write_bytes(data)
    assert ranged_outcome(path, cpus, block=block)[0] == expected


def exact(result):
    """An ``outcome`` whose trace values compare bit for bit: -0.0 is not 0.0."""
    if result[0] == "error":
        return result
    return ("ok", [(d, np.array(t).tobytes(), np.array(w).tobytes()) for d, t, w in result[1]])


def rises_per_device(text):
    """Whether each device's times in ``text`` rise strictly in file order."""
    last = {}
    for row in itertools.islice(csv.reader(io.StringIO(text, newline="")), 1, None):
        if not row:
            continue
        device, time = row[0].strip(), float(row[1])
        if device in last and not time > last[device]:
            return False
        last[device] = time
    return True


@st.composite
def rising_texts(draw):
    """Power CSV texts whose rows hold each device's rising times, one
    device at a time, time-major (every device once per time), or in a
    random interleaving; or one edit away from that: a row moved, a time
    repeated, or two rows swapped.  Some have blank lines, a quoted field
    or ``\r\n`` endings, which ``csv.reader`` blocks take."""
    per_device = []
    for name in draw(st.lists(st.sampled_from(["s1", "s2", "s3", "é"]), min_size=1, max_size=4, unique=True)):
        rows = []
        for time in sorted(draw(st.sets(st.integers(-3, 40), min_size=1, max_size=8))):
            # Padded fields name the same device.
            field = draw(st.sampled_from([name] * 4 + [f" {name}", f"{name} "]))
            rows.append([field, time, draw(st.sampled_from(["1", "0", "-0.0", "100.5"]))])
        per_device.append(rows)
    layout = draw(st.sampled_from(["device-major", "time-major", "interleaved"]))
    if layout == "device-major":
        rows = [row for device in per_device for row in device]
    elif layout == "time-major":
        # Stable: at equal times, devices keep their order.
        rows = sorted((row for device in per_device for row in device), key=lambda row: row[1])
    else:
        queues = [iter(device) for device in per_device]
        order = draw(st.permutations([k for k, device in enumerate(per_device) for _ in device]))
        rows = [next(queues[k]) for k in order]
    edit = draw(st.sampled_from([None] * 3 + ["move", "repeat", "swap"]))
    i = draw(st.integers(0, len(rows) - 1))
    if edit == "move":
        rows.insert(draw(st.integers(0, len(rows) - 1)), rows.pop(i))
    elif edit == "repeat":
        j = draw(st.sampled_from([i + 1, draw(st.integers(0, len(rows)))]))
        rows.insert(j, [rows[i][0], rows[i][1], draw(st.sampled_from(["2", "0"]))])
    elif edit == "swap" and i + 1 < len(rows):
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
    lines = []
    for field, time, watts in rows:
        # -0.0 equals 0.0, so after 0.0 it repeats the time.
        stamp = draw(st.sampled_from([f"{time}.0", str(time)] + ["-0.0"] * (time == 0)))
        lines.append(f"{field},{stamp},{watts}")
        if draw(st.integers(0, 15)) == 0:
            lines.append(draw(st.sampled_from(["", f'"{field}",{stamp},{watts}'])))
    ending = draw(st.sampled_from(["\n"] * 5 + ["\r\n"]))
    return HEADER + "".join(line + ending for line in lines)


BATCH = axpue.io._BATCH_ROWS


@settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    text=rising_texts(),
    block=st.integers(5, 30) | st.just(axpue.io._BLOCK_BYTES),
    batch=st.integers(1, 3) | st.just(BATCH),
    cpus=st.integers(2, 3),
    range_bytes=st.integers(1, 64),
)
# An equal time across a block seam, and across a range cut.
@example(text=HEADER + rows(0, 60) + "s1,60,2\n" + rows(120), block=5, batch=BATCH, cpus=2, range_bytes=1)
# ... and across a batch seam, time-major.
@example(text=HEADER + "s1,0,1\ns2,0,1\ns1,60,1\ns2,0,2\n", block=5, batch=1, cpus=2, range_bytes=64)
# -0.0 after 0.0, and 0.0 after -0.0: equal times, not rising ones.
@example(text=HEADER + "s1,0.0,1\ns1,-0.0,2\n", block=axpue.io._BLOCK_BYTES, batch=BATCH, cpus=2, range_bytes=1)
@example(text=HEADER + "s1,-0.0,1\ns1,0.0,2\n", block=5, batch=BATCH, cpus=2, range_bytes=1)
@example(text=HEADER + "s1,-0.0,1\ns2,0,1\ns1,0.0,2\n", block=5, batch=1, cpus=2, range_bytes=1)
# A device split into two runs of one block, and across batch seams: both rise.
@example(
    text=HEADER + rows(0, 60) + rows(0, device="s2") + rows(120),
    block=axpue.io._BLOCK_BYTES,
    batch=BATCH,
    cpus=2,
    range_bytes=64,
)
@example(text=HEADER + rows(0, 60) + rows(0, device="s2") + rows(120), block=5, batch=2, cpus=2, range_bytes=1)
# A time that falls, within a block, and at a block and batch seam.
@example(text=HEADER + rows(60, 0) + rows(0, device="s2"), block=5, batch=BATCH, cpus=2, range_bytes=1)
@example(text=HEADER + rows(60) + rows(0, device="s2") + rows(0), block=5, batch=1, cpus=2, range_bytes=64)
# ... below the last time of the batch before, though above its first.
@example(text=HEADER + rows(0, 60) + rows(0, device="s2") + rows(30), block=5, batch=2, cpus=2, range_bytes=64)
# Runs that cross block seams, batch seams and a range cut.
@example(
    text=HEADER + rows(*range(0, 300, 30)) + rows(*range(0, 300, 30), device="s2"),
    block=12,
    batch=3,
    cpus=2,
    range_bytes=1,
)
# Time-major rows of three devices across every kind of seam.
@example(
    text=HEADER + "".join(rows(t, device=d) for t in range(0, 300, 30) for d in ("s3", "s1", "s2")),
    block=12,
    batch=2,
    cpus=3,
    range_bytes=1,
)
# A duplicate in a plain block, and in a csv.reader block with a blank line.
@example(text=HEADER + rows(0, 0, 60), block=axpue.io._BLOCK_BYTES, batch=BATCH, cpus=2, range_bytes=1)
@example(text=HEADER + rows(0) + "\n" + rows(0, 60), block=axpue.io._BLOCK_BYTES, batch=BATCH, cpus=2, range_bytes=1)
def test_trace_building_matches_row_loop(tmp_path, text, block, batch, cpus, range_bytes):
    """Traces built by partitioning batches and traces built by sorting match
    the row loop, bit for bit, and duplicates are reported with the same
    line; the sort is taken exactly when some device's times do not rise
    strictly in file order."""
    expected = exact(reference(text))
    sort = mock.patch.object(
        axpue.io._Samples,
        "_sorted_traces",
        autospec=True,
        side_effect=axpue.io._Samples._sorted_traces,
    )
    with parser_sizes(block, batch=batch), sort as sorted_traces:
        assert exact(parse_bytes(text)) == expected
    assert sorted_traces.called != rises_per_device(text)
    path = tmp_path / "power.csv"
    path.write_bytes(text.encode())
    assert exact(ranged_outcome(path, cpus, range_bytes, block=block, batch=batch)[0]) == expected


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
    data = write_power_csv([(d, [t], [w]) for d, t, w in samples])
    with parser_sizes(block):
        traces = parse_power_csv(io.BytesIO(data))
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
