"""Ingestion and serialization of telemetry, runs, inventories, and reports.

File formats (UTF-8 throughout):

* power samples: CSV with exact header ``device_id,timestamp,watts``;
  timestamps are epoch seconds or RFC 3339 strings and are normalized to
  epoch seconds at parse time.
* runs: JSON lines, one object per line with keys ``run_id``, ``category``,
  ``start``, ``end``, ``work`` (``{"type": ..., "value": ...}``) and
  ``devices``.
* inventory: JSON list of ``{"device_id", "category", "label"}`` objects.
* report: JSON document (machine round-trip, field-exact) or a CSV table
  with columns workload, IT power (kW), total facility power (kW),
  performance (+unit), PUE, ApPUE, AoPUE.

Serialization is deterministic: stable key order, ``\\n`` line endings, and
shortest round-tripping float representations.
"""

from __future__ import annotations

import contextlib
import csv
import io as _stdio
import itertools
import json
import math
import os
import pickle
import signal
import stat
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Callable, Iterable, NoReturn

import numpy as np

from .errors import (
    AxpueError,
    DuplicateSampleError,
    InvalidPowerError,
    InvalidWindowError,
    ParseError,
    SchemaError,
    ValidationError,
)
from .integrate import PowerTrace
from .model import (
    ApplicationCategory,
    ApplicationRun,
    DeviceCategory,
    DeviceRecord,
    EnergyWindow,
    Inventory,
    MetricsReport,
    PerformanceRate,
    RateUnit,
    RunMetrics,
    WorkKind,
    WorkMeasure,
)

POWER_CSV_HEADER = ("device_id", "timestamp", "watts")
REPORT_SCHEMA = "axpue-report/1"
REPORT_CSV_HEADER = (
    "workload",
    "it_power_kw",
    "total_facility_power_kw",
    "performance",
    "pue",
    "appue",
    "aopue",
)


def _parse_timestamp(text: str) -> float:
    """Epoch seconds from a numeric literal or an RFC 3339 string."""
    try:
        return float(text)
    except ValueError:
        pass
    iso = text.strip()
    if iso.endswith(("Z", "z")):
        iso = iso[:-1] + "+00:00"
    moment = datetime.fromisoformat(iso)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return moment.timestamp()


#: Bytes of power CSV read before a block's last line is completed.
_BLOCK_BYTES = 1 << 16
#: Bytes of power CSV per forked range: a file under twice this is parsed in
#: one process.  A child costs a few milliseconds, so two ranges lose to one
#: process on files of a MiB or so; ranges of 4 MiB keep that cost small
#: next to a range's parse.
_RANGE_BYTES = 4 << 20
#: Bytes read at a time when a file is scanned.
_SCAN_BYTES = 1 << 20


def _split_block(text: str) -> tuple[list, list, list] | None:
    """Split a block of lines into device, timestamp and watts columns, if safe.

    Plain blocks are split with ``str`` methods, which is only what
    ``csv.reader`` would do when every line holds exactly two commas and
    ends in ``\\n``, there is no ``"`` or ``\\r``, and no field is longer than
    ``csv.field_size_limit()``; the caller keeps blocks short enough for the
    last rule.  Returns None otherwise, and for an empty block.  Device
    fields after the first keep a leading ``\\n``, which device-id stripping
    removes.
    """
    if not text.endswith("\n") or '"' in text or "\r" in text:
        return None
    count = text.count("\n")
    # With a comma before each newline, every line starts a new field and
    # each newline is the first character of its field.
    fields = text.replace("\n", ",\n").split(",")
    if len(fields) != 3 * count + 1 or "".join(fields[3::3]).count("\n") != count:
        return None
    del fields[-1]
    return fields[0::3], fields[1::3], fields[2::3]


def _raise_first_bad_row(rows: Iterable, first_line: int) -> NoReturn:
    """Raise the error of the first bad row, checking rows one at a time.

    Only called on a block whose column checks failed; it never returns.
    """
    for line, row in enumerate(rows, start=first_line):
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
    raise AssertionError("a block failed its column checks but no row is bad")


class _Samples:
    """Power samples collected block by block as numpy columns."""

    def __init__(self):
        self.ids: dict[str, int] = {}  # stripped device id -> code
        self.codes_by_field: dict[str, int] = {}  # raw device field -> code
        # Per-block arrays of device codes, times and watts, and each block's
        # line numbers: the first one's, as an int, when its rows are
        # consecutive lines, or else an array of each row's.
        self.columns: tuple[list, ...] = ([], [], [], [])

    def add(self, columns: tuple, lines: int | np.ndarray) -> bool:
        """Convert and check one block's columns; False if any row is bad.

        ``lines`` is the block's first line number when its rows are
        consecutive lines, or else each row's line number.
        """
        if not columns:
            return True
        devices, stamps, watts = columns
        count = len(devices)
        codes_by_field = self.codes_by_field
        for field in set(devices).difference(codes_by_field):
            device_id = field.strip()
            if not device_id:
                return False
            codes_by_field[field] = self.ids.setdefault(device_id, len(self.ids))
        codes = np.fromiter(map(codes_by_field.__getitem__, devices), np.int32, count)
        try:
            times = np.fromiter(map(float, stamps), np.float64, count)
        except ValueError:
            # RFC 3339 stamps: parse each distinct string of the block once.
            try:
                epoch = {text: _parse_timestamp(text) for text in set(stamps)}
            except (ValueError, OverflowError):
                return False
            times = np.fromiter(map(epoch.__getitem__, stamps), np.float64, count)
        try:
            power = np.fromiter(map(float, watts), np.float64, count)
        except ValueError:
            return False
        if not (np.isfinite(power).all() and power.min() >= 0 and np.isfinite(times).all()):
            return False
        for column, values in zip(self.columns, (codes, times, power, lines)):
            column.append(values)
        return True

    def merge(self, names: list[str], columns: tuple[list, ...], offset: int) -> None:
        """Append the block columns of another ``_Samples``, in place.

        ``names`` are its device ids in code order, and ``offset`` is added
        to its line numbers.
        """
        remap = np.array([self.ids.setdefault(name, len(self.ids)) for name in names], np.int32)
        codes, _, _, lines = columns
        for block in codes:
            np.take(remap, block, out=block, mode="clip")
        lines[:] = [first + offset for first in lines]
        for column, blocks in zip(self.columns, columns):
            column.extend(blocks)

    def traces(self) -> list[PowerTrace]:
        """One trace per device in device-id order; rejects duplicate samples.

        When each device's times rise strictly in file order, whatever the
        interleaving of devices (a writer that goes one device at a time, and
        a poller that reads every meter once per interval, leave them so),
        no sort is needed and no duplicate can exist.  Each batch of
        consecutive blocks is partitioned by device, stably, which keeps each
        device's rows in file order; each device's slice is copied into its
        list of pieces, and the batch's blocks are released.  A one-process
        parse then peaks near 24 bytes a row: the 20 of the block columns
        (a 4-byte device code, the time and the watts), and one block's
        strings.  Otherwise the columns are joined, sorted stably by device
        and time, and each device's samples gathered and checked for
        duplicates, with several joined columns alive at once: about 42
        bytes a row.  The finished traces take 16.  Line numbers are joined
        only to report a duplicate.
        """
        codes, times, watts, _ = self.columns
        if not codes:
            return []
        devices = len(self.ids)
        batches = _batches(codes)
        if not _rise_per_device(codes, times, batches, devices):
            return self._sorted_traces()
        time_pieces = [[] for _ in range(devices)]
        watt_pieces = [[] for _ in range(devices)]
        for k0, k1 in batches:
            group, starts, order = _partition(codes[k0:k1], devices)
            batch_times = np.concatenate(times[k0:k1])[order]
            batch_watts = np.concatenate(watts[k0:k1])[order]
            for column in self.columns:
                column[k0:k1] = [None] * (k1 - k0)
            ends = [*starts[1:].tolist(), len(order)]
            # Copies, so that the batch is freed, and later pieces reuse its heap.
            for code, lo, hi in zip(group.tolist(), starts.tolist(), ends):
                time_pieces[code].append(batch_times[lo:hi].copy())
                watt_pieces[code].append(batch_watts[lo:hi].copy())
            del order, batch_times, batch_watts  # before the next batch's are made
        # Built in code order, the order each batch's pieces were cut in, so
        # that the pieces freed as each trace is built merge into holes that
        # the next traces fit in.
        traces = [
            PowerTrace(name, _join(time_pieces[code]), _join(watt_pieces[code]))
            for name, code in self.ids.items()
        ]
        return sorted(traces, key=lambda trace: trace.device_id)

    def _sorted_traces(self) -> list[PowerTrace]:
        """The traces of :meth:`traces`, from sorted joined columns."""
        codes, times, watts, lines = self.columns
        counts = list(map(len, codes))
        names = sorted(self.ids)
        rank = np.empty(len(names), dtype=np.intp)
        rank[[self.ids[name] for name in names]] = np.arange(len(names))
        devices = rank[_join(codes)]
        times = _join(times)
        # Stable: samples of a device at equal times stay in line order.
        order = np.lexsort((times, devices))
        ends = np.cumsum(np.bincount(devices, minlength=len(names)))
        del devices
        watts = _join(watts)
        traces = []
        for name, lo, hi in zip(names, [0, *ends[:-1].tolist()], ends.tolist()):
            rows = order[lo:hi]
            device_times = times[rows]
            duplicate = np.flatnonzero(device_times[1:] == device_times[:-1])
            if duplicate.size:
                i = int(duplicate[0])
                lines = np.concatenate(
                    [
                        first if isinstance(first, np.ndarray) else np.arange(first, first + count)
                        for first, count in zip(lines, counts)
                    ]
                )
                raise DuplicateSampleError(
                    f"device {name!r}: duplicate timestamp {float(device_times[i])!r}",
                    line=int(max(lines[rows[i]], lines[rows[i + 1]])),
                )
            traces.append(PowerTrace(name, device_times, watts[rows]))
        return traces


#: Rows in a batch of consecutive blocks that :meth:`_Samples.traces`
#: partitions by device.  A batch's temporaries take a few dozen bytes a row,
#: so 16K rows keep them under a MB, small next to a large file's columns,
#: while the dozen numpy calls a batch costs stay a small part of its time.
_BATCH_ROWS = 1 << 14


def _batches(blocks: list[np.ndarray]) -> list[tuple[int, int]]:
    """Consecutive ranges ``(start, end)`` of ``blocks`` that each hold
    ``_BATCH_ROWS`` rows or more, but for the last one."""
    ends, rows = [], 0
    for k, block in enumerate(blocks, start=1):
        rows += len(block)
        if rows >= _BATCH_ROWS:
            ends.append(k)
            rows = 0
    if rows:
        ends.append(len(blocks))
    return list(zip([0, *ends], ends))


def _partition(codes: list[np.ndarray], devices: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of a batch of code blocks, ordered stably by device code.

    Returns the batch's device codes in rising order, where each one's rows
    start in that order, and the order.
    """
    # Every code is below ``devices``, so the cast keeps it; numpy's stable
    # sort is a radix sort for 8- and 16-bit integers.
    batch = np.concatenate(codes, dtype=np.min_scalar_type(devices), casting="unsafe")
    order = np.argsort(batch, kind="stable")
    batch = batch[order]
    starts = np.flatnonzero(np.concatenate(([True], batch[1:] != batch[:-1])))
    return batch[starts], starts, order


def _rise_per_device(
    codes: list[np.ndarray], times: list[np.ndarray], batches: list[tuple[int, int]], devices: int
) -> bool:
    """Whether each device's times rise strictly in file order.

    In each of ``batches``, each row is compared with the one before it from
    the same device, the last one of the batches before included.  Equal
    times fail, ``0.0`` after ``-0.0`` included.  Only one batch's
    temporaries are alive at a time.
    """
    last = np.full(devices, -np.inf)  # each device's last time; parsed times are finite
    for k0, k1 in batches:
        group, starts, order = _partition(codes[k0:k1], devices)
        batch = np.concatenate(times[k0:k1])[order]
        # Compared, not subtracted: far-apart times must not overflow.
        rising = batch[1:] > batch[:-1]
        rising[starts[1:] - 1] = True  # a device's first row is compared with ``last``
        if not (rising.all() and (batch[starts] > last[group]).all()):
            return False
        last[group] = batch[np.append(starts[1:], len(batch)) - 1]
        del order, batch, rising  # before the next batch's are made
    return True


def _join(blocks: list[np.ndarray]) -> np.ndarray:
    """Concatenate and release a column's blocks; a lone block is not copied."""
    column = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    blocks.clear()
    return column


def _line_end(data: bytes, start: int) -> int:
    """The offset after the first line end in ``data`` at or after ``start``, or 0.

    A ``\\r`` that ends ``data`` is not known to end a line until the next
    byte shows that it is not the start of a ``\\r\\n``.
    """
    newline = data.find(b"\n", start) + 1
    cr = data.find(b"\r", start, newline or len(data)) + 1
    if not cr or cr == newline - 1:
        return newline
    return cr if cr < len(data) else 0


class _Lines:
    """The UTF-8 text of a binary source, handed out in whole lines.

    ``read(size)`` returns up to ``size`` bytes, and ``b""`` at the end.  A
    line ends where ``csv`` ends one in a file opened with ``newline=""``:
    after a ``\\n``, and after a ``\\r`` that no ``\\n`` follows.  Iterating
    gives one line at a time.
    """

    def __init__(self, read: Callable[[int], bytes]):
        self.read = read
        self.data, self.start = b"", 0  # bytes read, and the first not handed out

    def block(self, size: int) -> str:
        """The next lines, through the one that holds their byte number
        ``size``, or all that is left; "" at the end of the source.

        Before an undecodable byte, the block is only the whole lines in
        front of it, so that they are checked before the next call raises
        the byte's ``UnicodeDecodeError``.
        """
        data, start = self.data, self.start
        while not (cut := _line_end(data, start + size - 1)) and (
            chunk := self.read(max(_BLOCK_BYTES, len(data) - start))
        ):
            data, start = data[start:] + chunk, 0
        cut = cut or len(data)
        try:
            text = data[start:cut].decode("utf-8")
        except UnicodeDecodeError as exc:
            bad = start + exc.start
            cut = max(data.rfind(b"\n", start, bad), data.rfind(b"\r", start, bad)) + 1
            if not cut:
                raise
            text = data[start:cut].decode("utf-8")
        self.data, self.start = data, cut
        return text

    def __iter__(self):
        return iter(lambda: self.block(1), "")


def _csv_rows(block: str, lines: _Lines) -> tuple[list[list[str]], Exception | None]:
    """The records of ``block`` as ``csv.reader`` gives them.

    A quoted record left open at the end of the block is closed with the
    next of ``lines``.  Returns the records, and the exception that stopped
    ``csv.reader``, to raise once they are checked.
    """
    block_lines = _stdio.StringIO(block, newline="").readlines()
    reader = csv.reader(itertools.chain(block_lines, lines))
    rows = []
    try:
        for row in reader:
            rows.append(row)
            if reader.line_num >= len(block_lines):
                break
    except (csv.Error, UnicodeDecodeError) as exc:
        return rows, exc
    return rows, None


def _read_header(lines: _Lines) -> None:
    """Read the header record of ``lines`` and check it."""
    header = next(csv.reader(lines), None)
    if header is None:
        raise ParseError("empty power CSV: missing header", line=1)
    if tuple(h.strip() for h in header) != POWER_CSV_HEADER:
        raise ParseError(
            f"expected header {','.join(POWER_CSV_HEADER)!r}, got {','.join(header)!r}",
            line=1,
        )


def _parse_rows(lines: _Lines, samples: _Samples, line: int) -> int:
    """Check and add the rows of ``lines`` to ``samples``, block by block.

    ``line`` is the number of the first line read; returns the number of the
    line after the last one.
    """
    while block := lines.block(_BLOCK_BYTES):
        columns = _split_block(block) if len(block) <= csv.field_size_limit() else None
        if columns is not None:
            count = len(columns[0])
            if not samples.add(columns, line):
                _raise_first_bad_row(zip(*columns), line)
            line += count
            del columns  # before the next block is split
        else:
            rows, failure = _csv_rows(block, lines)
            # Blank rows are skipped, but they count as lines.
            numbers = [number for number, row in enumerate(rows, start=line) if row]
            full = [row for row in rows if row]
            if not (
                all(len(row) == 3 for row in full)
                and samples.add(tuple(zip(*full)), np.array(numbers, dtype=np.intp))
            ):
                _raise_first_bad_row(rows, line)
            if failure is not None:
                raise failure
            line += len(rows)
    return line


def _range_lines(fd: int, start: int, end: int) -> _Lines:
    """The lines of bytes ``start`` up to ``end`` of the file ``fd``, read with ``pread``."""

    def read(size: int) -> bytes:
        nonlocal start
        data = os.pread(fd, min(size, end - start), start)
        start += len(data)
        return data

    return _Lines(read)


def _file_descriptor(stream: IO[bytes]) -> int | None:
    """The descriptor of the regular file ``stream`` reads from its first byte, or None."""
    with contextlib.suppress(AttributeError, OSError, ValueError):
        fd = stream.fileno()
        if stat.S_ISREG(os.fstat(fd).st_mode) and stream.tell() == 0:
            return fd
    return None


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _line_start(fd: int, offset: int) -> int:
    """The offset of the first line of the file ``fd`` that starts at or after ``offset``."""
    offset -= 1
    while chunk := os.pread(fd, _SCAN_BYTES, offset):
        if (newline := chunk.find(b"\n")) >= 0:
            return offset + newline + 1
        offset += len(chunk)
    return offset


def _may_fork() -> bool:
    """Whether a forked child can be trusted to run and to be waited for.

    Not in a process with other threads, where a child could block forever
    on a lock one of them held at the fork, and not where ``SIGCHLD`` is
    ignored or handled, which reaps children before ``waitpid`` can.
    """
    return (
        hasattr(os, "fork")
        and threading.active_count() == 1
        and signal.getsignal(signal.SIGCHLD) == signal.SIG_DFL
    )


def _range_cuts(fd: int) -> list[int] | None:
    """Offsets that cut the file ``fd`` into byte ranges of whole lines, one per CPU.

    The first range holds the header, and every cut falls after a ``\\n``.
    None when :func:`_may_fork` says no, when there are not two ranges of
    ``_RANGE_BYTES`` and two CPUs, and when the file holds a ``"``: a quoted
    record could cross a cut.
    """
    size = os.fstat(fd).st_size
    count = min(_cpu_count(), size // _RANGE_BYTES)
    if count < 2 or not _may_fork():
        return None
    body = None
    for offset in range(0, size, _SCAN_BYTES):
        chunk = os.pread(fd, _SCAN_BYTES, offset)
        if b'"' in chunk:
            return None
        if body is None and (newline := chunk.find(b"\n")) >= 0:
            body = offset + newline + 1
    if body is None:
        return None
    cuts = [0]
    for i in range(1, count):
        cut = _line_start(fd, body + (size - body) * i // count)
        if cuts[-1] < cut < size:
            cuts.append(cut)
    return [*cuts, size] if len(cuts) > 1 else None


def _fork_range(fd: int, start: int, end: int) -> tuple[int, IO[bytes]] | None:
    """A child that parses bytes ``start`` up to ``end`` of the file ``fd``.

    It counts lines from 0 and pickles its device ids, line count and block
    columns into a pipe; it sends nothing if the range fails.  Returns the
    child's pid and the pipe's read end, or None if no child could start.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            samples = _Samples()
            count = _parse_rows(_range_lines(fd, start, end), samples, 0)
            with open(write_end, "wb") as out:
                pickle.dump((list(samples.ids), count, samples.columns), out, protocol=5)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _child_result(child: tuple[int, IO[bytes]] | None) -> tuple | None:
    """What a range's child sent, or None if it failed; the child is reaped."""
    if child is None:
        return None
    pid, pipe = child
    with pipe:
        try:
            result = pickle.load(pipe)
        except Exception:  # a child that died mid-write leaves any partial pickle
            result = None
    try:
        _, status = os.waitpid(pid, 0)
    except ChildProcessError:  # reaped elsewhere: how it ended is unknown
        return None
    return result if status == 0 else None


def _parse_ranges(lines: _Lines, fd: int | None, ranges: list[tuple[int, int]]) -> _Samples:
    """Parse ``lines``, the header and the rows before the first of ``ranges``,
    here, and each byte range of the file ``fd`` in a forked child.

    Children's columns are merged in file order.  A range whose child failed
    is parsed again here, with its right first line, so that it raises the
    error the one-process parse raises.  No child is left unreaped.
    """
    children = []
    try:
        for start, end in ranges:
            children.append(_fork_range(fd, start, end))
        samples = _Samples()
        _read_header(lines)
        line = _parse_rows(lines, samples, 2)
        for start, end in ranges:
            result = _child_result(children[0])
            del children[0]
            if result is None:
                line = _parse_rows(_range_lines(fd, start, end), samples, line)
            else:
                names, count, columns = result
                samples.merge(names, columns, line)
                line += count
        return samples
    finally:
        for child in children:
            if child is not None:
                pid, pipe = child
                pipe.close()
                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


def parse_power_csv(stream: IO[bytes]) -> list[PowerTrace]:
    """Parse power samples into one trace per device, sorted by device_id.

    Rows may arrive in any order; each device's samples are sorted by time.
    When each device's times rise strictly in file order, in any
    interleaving of devices (device-major rows, and time-major ones as a
    poller that reads every meter once per interval writes them), no sort
    is needed: batches of parsed blocks are partitioned by device and freed
    as they are used, and the parse holds about 24 bytes a row at its peak.
    Rows that go back in time or repeat one are sorted, about 42 bytes a
    row (see :meth:`_Samples.traces`).
    Duplicate (device, timestamp) pairs, malformed rows, and negative watt
    readings are rejected with the offending 1-based line number (the row's
    record number when a quoted field spans lines).

    ``stream`` is a binary stream (a file opened with ``"rb"``, ``BytesIO``)
    of UTF-8 text, whose lines end as ``csv`` ends them: at ``\\n``,
    ``\\r\\n`` or a lone ``\\r``.  After the header, it is read in blocks of
    whole lines of about ``_BLOCK_BYTES`` bytes.  A plain block is split with
    string methods; any other block, and one longer than
    ``csv.field_size_limit()``, is tokenized by ``csv.reader``, with the
    lines after it that close a quoted record it leaves open.  Each block is
    converted and checked column-wise; one that fails is re-checked row by
    row to report its first bad row.  Every whole line before the first
    undecodable byte is checked before that byte's ``UnicodeDecodeError`` is
    raised.

    A regular file read from its start, with no ``"``, of at least two
    ranges of ``_RANGE_BYTES`` bytes, is cut into one range of whole lines
    per available CPU, and each range after the first is parsed by a forked
    child (see :func:`_parse_ranges`), unless the process runs other Python
    threads or has ``SIGCHLD`` ignored or handled; results and errors do not
    depend on the number of ranges.  Python 3.12 and later warn on
    ``os.fork`` in a process with threads, as numpy's OpenBLAS pool is; it
    registers ``pthread_atfork`` handlers.
    """
    if isinstance(stream, _stdio.TextIOBase):
        raise TypeError("parse_power_csv needs a binary stream, such as a file opened 'rb'")
    fd = _file_descriptor(stream)
    cuts = None if fd is None else _range_cuts(fd)
    if cuts is None:
        return _parse_ranges(_Lines(stream.read), fd, []).traces()
    ranges = list(zip(cuts[1:-1], cuts[2:]))
    return _parse_ranges(_range_lines(fd, 0, cuts[1]), fd, ranges).traces()


def write_power_csv(blocks: Iterable[tuple[str, np.ndarray, np.ndarray]]) -> bytes:
    """Serialize ``(device_id, times, watts)`` blocks; inverse of the parser.

    Each block's rows are written in order, one per sample.  Values go
    through float64, so an integer prints as ``0.0`` and every value as its
    shortest round-tripping ``repr``.  Consecutive blocks whose ``times``
    hold the same float64 bits (the simulator's grid) format them once.
    """
    parts = [",".join(POWER_CSV_HEADER) + "\n"]
    times_seen, stamps = None, []
    for device_id, times, watts in blocks:
        times = np.asarray(times, dtype=np.float64)
        # Keyed on the bits, not the object: a buffer refilled in place
        # between blocks is formatted again, and -0.0 is not 0.0.
        if (key := times.tobytes()) != times_seen:
            times_seen = key
            stamps = list(map(repr, times.tolist()))
        watts = np.asarray(watts, dtype=np.float64).tolist()
        parts.append(
            "".join([f"{device_id},{stamp},{w!r}\n" for stamp, w in zip(stamps, watts, strict=True)])
        )
    return "".join(parts).encode("utf-8")


def _load_json(data: bytes | str, what: str, line: int | None = None) -> object:
    """Decode UTF-8 JSON; any text that is not JSON is a :class:`SchemaError`."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{what}: {exc.reason}", line=line) from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what}: {exc.msg}", line=line) from exc
    except ValueError as exc:  # an integer literal beyond the int digit limit
        raise SchemaError(f"{what}: {str(exc).partition(';')[0]}", line=line) from exc
    except RecursionError as exc:
        raise SchemaError(f"{what}: nested too deeply", line=line) from exc


def _run_to_obj(run: ApplicationRun) -> dict:
    return {
        "run_id": run.run_id,
        "category": run.category.value,
        "start": run.start,
        "end": run.end,
        "work": {"type": run.work.kind.value, "value": run.work.amount},
        "devices": sorted(run.attributed_devices),
    }


def _run_from_obj(obj: dict, line: int) -> ApplicationRun:
    for key in ("run_id", "category", "start", "end", "work", "devices"):
        if key not in obj:
            raise SchemaError(f"missing key {key!r}", line=line)
    if not isinstance(obj["run_id"], str):
        raise SchemaError(f"run_id must be a string, got {obj['run_id']!r}", line=line)
    try:
        category = ApplicationCategory(obj["category"])
    except ValueError:
        raise SchemaError(f"unknown category {obj['category']!r}", line=line) from None
    work_obj = obj["work"]
    if not isinstance(work_obj, dict) or "type" not in work_obj or "value" not in work_obj:
        raise SchemaError("work must be an object with 'type' and 'value'", line=line)
    try:
        kind = WorkKind(work_obj["type"])
    except ValueError:
        raise SchemaError(f"unknown work type {work_obj['type']!r}", line=line) from None
    value = work_obj["value"]
    if isinstance(value, float):
        if not value.is_integer():
            raise SchemaError(f"work value must be an integer, got {value!r}", line=line)
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"work value must be an integer, got {value!r}", line=line)
    devices = obj["devices"]
    if not isinstance(devices, list) or not all(isinstance(d, str) for d in devices):
        raise SchemaError("devices must be a list of device ids", line=line)
    if isinstance(obj["start"], bool) or isinstance(obj["end"], bool):
        raise SchemaError("bad start/end timestamp", line=line)
    try:
        start = float(obj["start"]) if isinstance(obj["start"], (int, float)) else _parse_timestamp(obj["start"])
        end = float(obj["end"]) if isinstance(obj["end"], (int, float)) else _parse_timestamp(obj["end"])
    except (ValueError, OverflowError, TypeError):
        raise SchemaError("bad start/end timestamp", line=line) from None
    if end <= start:
        raise InvalidWindowError(
            f"run {obj['run_id']!r}: end ({end}) must be > start ({start})", line=line
        )
    try:
        return ApplicationRun(
            run_id=obj["run_id"],
            category=category,
            start=start,
            end=end,
            work=WorkMeasure(kind=kind, amount=value),
            attributed_devices=frozenset(devices),
        )
    except ValidationError as exc:
        raise SchemaError(str(exc), line=line) from exc


def parse_runs_jsonl(stream: IO[str] | Iterable[str]) -> list[ApplicationRun]:
    """Parse one JSON object per line into validated runs (blank lines skipped).

    Run ids are unique: a repeated one is a :class:`SchemaError` on its
    second line.
    """
    runs = []
    run_ids = set()
    for line_no, raw in enumerate(stream, start=1):
        if not raw.strip():
            continue
        obj = _load_json(raw, "invalid JSON", line=line_no)
        if not isinstance(obj, dict):
            raise SchemaError("each line must be a JSON object", line=line_no)
        run = _run_from_obj(obj, line_no)
        if run.run_id in run_ids:
            raise SchemaError(f"duplicate run_id {run.run_id!r}", line=line_no)
        run_ids.add(run.run_id)
        runs.append(run)
    return runs


def write_runs_jsonl(runs: Iterable[ApplicationRun]) -> bytes:
    out = _stdio.StringIO()
    for run in runs:
        out.write(json.dumps(_run_to_obj(run), sort_keys=True) + "\n")
    return out.getvalue().encode("utf-8")


def parse_inventory_json(stream: IO[str] | str) -> list[DeviceRecord]:
    """Parse a JSON device list; unknown categories are schema errors."""
    text = stream if isinstance(stream, str) else stream.read()
    data = _load_json(text, "invalid JSON")
    if not isinstance(data, list):
        raise SchemaError("inventory must be a JSON list of device objects")
    devices = []
    for i, obj in enumerate(data):
        if not isinstance(obj, dict) or "device_id" not in obj or "category" not in obj:
            raise SchemaError(f"inventory entry {i}: need device_id and category")
        try:
            category = DeviceCategory(obj["category"])
        except ValueError:
            raise SchemaError(
                f"inventory entry {i}: unknown category {obj['category']!r}"
            ) from None
        label = obj.get("label", "")
        if not isinstance(label, str):
            raise SchemaError(f"inventory entry {i}: label must be a string, got {label!r}")
        devices.append(DeviceRecord(device_id=obj["device_id"], category=category, label=label))
    return devices


def write_inventory_json(devices: Iterable[DeviceRecord]) -> bytes:
    data = [
        {"device_id": d.device_id, "category": d.category.value, "label": d.label}
        for d in devices
    ]
    return (json.dumps(data, sort_keys=True, indent=2) + "\n").encode("utf-8")


def format_quantity(value: float) -> str:
    """Three-decimal display used for powers, PUE, AoPUE, and rates."""
    return f"{value:.3f}"


def format_appue(value: float) -> str:
    """ApPUE display: four decimals at or above 1, three below."""
    return f"{value:.4f}" if value >= 1 else f"{value:.3f}"


def _report_to_obj(report: MetricsReport) -> dict:
    """The report as a JSON object, with ``per_run`` left empty."""
    return {
        "schema": REPORT_SCHEMA,
        "window": {
            "start": report.window.start,
            "end": report.window.end,
            "energy_joules_by_category": {
                cat.value: report.window.energy_by_category[cat]
                for cat in DeviceCategory
            },
        },
        "pue": report.pue,
        "per_run": [],
        "weighted_appue": report.weighted_appue,
        "aggregated_aopue": report.aggregated_aopue,
        "provenance": dict(report.provenance),
    }


def _json_scalar(value: object) -> str:
    """``value`` spelled as ``json.dump`` spells it inside a document.

    A finite float (a subclass too) is its ``float.__repr__`` and a string
    its ``encode_basestring_ascii``, which is what ``json`` writes for them.
    Everything else, ``NaN``, the infinities, ``int``, ``bool`` and ``None``
    included, goes through ``json.dumps``.
    """
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return json.dumps(value)


#: One ``per_run`` element as ``json.dump(sort_keys=True, indent=2)`` lays it
#: out at its depth in the report.
_REPORT_ROW = """    {{
      "aopue": {},
      "appue": {},
      "category": {},
      "facility_power_kw": {},
      "it_power_kw": {},
      "performance": {{
        "unit": {},
        "value": {}
      }},
      "run_id": {},
      "weight": {}
    }}"""


def _report_row_json(row: RunMetrics) -> str:
    return _REPORT_ROW.format(
        *map(
            _json_scalar,
            (
                row.aopue,
                row.appue,
                row.category.value,
                row.facility_power_kw,
                row.it_power_kw,
                row.performance.unit.value,
                row.performance.value,
                row.run_id,
                row.weight,
            ),
        )
    )


def report_csv_row(row: RunMetrics, pue: float) -> list[str]:
    magnitude, unit = row.performance.reported()
    return [
        row.run_id,
        format_quantity(row.it_power_kw),
        format_quantity(row.facility_power_kw),
        f"{format_quantity(magnitude)} {unit}",
        format_quantity(pue),
        format_appue(row.appue),
        format_quantity(row.aopue),
    ]


def _report_to_csv(report: MetricsReport) -> str:
    out = _stdio.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_CSV_HEADER)
    if report.per_run:
        for row in report.per_run:
            writer.writerow(report_csv_row(row, report.pue))
    else:
        duration = report.window.duration
        writer.writerow(
            [
                "(window)",
                format_quantity(report.window.it_energy / duration / 1000.0),
                format_quantity(report.window.total_facility_energy / duration / 1000.0),
                "",
                format_quantity(report.pue),
                "",
                "",
            ]
        )
    return out.getvalue()


def write_report(report: MetricsReport, fmt: str = "json") -> bytes:
    """Serialize a report deterministically as JSON or a results-table CSV.

    The JSON bytes are those of ``json.dump(..., sort_keys=True, indent=2)``
    plus a final newline.  Only the document around ``per_run`` goes through
    ``json``; each row is written from one fixed template whose every leaf,
    strings included, is spelled by :func:`_json_scalar` as ``json`` spells
    it, so the rows need no per-row dict and no pure-Python encoder pass.
    """
    if fmt == "json":
        # The rows go in at the first '"per_run": []': every key sorted
        # before it is a number or null, so it is the top-level key.
        head, _, tail = json.dumps(_report_to_obj(report), sort_keys=True, indent=2).partition(
            '"per_run": []'
        )
        rows = ",\n".join(map(_report_row_json, report.per_run))
        text = "".join(
            (head, '"per_run": ', f"[\n{rows}\n  ]" if rows else "[]", tail, "\n")
        )
    elif fmt == "csv":
        text = _report_to_csv(report)
    else:
        raise ValidationError(f"unknown report format {fmt!r}")
    return text.encode("utf-8")


def _json(value: object, *types: type) -> object:
    """``value`` if its JSON type is one of ``types`` (a boolean is no int).

    An integer beyond float range raises :class:`OverflowError`.
    """
    if type(value) not in types:
        names = " or ".join(t.__name__ for t in types)
        raise TypeError(f"expected {names}, got {value!r}")
    if type(value) is int:
        float(value)
    return value


def read_report(data: bytes | str) -> MetricsReport:
    """Parse a JSON report back into a validated :class:`MetricsReport`.

    Its ``per_run`` rows must have unique run ids.
    """
    obj = _load_json(data, "invalid JSON report")
    if not isinstance(obj, dict) or obj.get("schema") != REPORT_SCHEMA:
        raise SchemaError(f"not a {REPORT_SCHEMA} document")
    number, optional = (int, float), (int, float, type(None))
    try:
        energies = _json(obj["window"]["energy_joules_by_category"], dict)
        window = EnergyWindow(
            start=_json(obj["window"]["start"], *number),
            end=_json(obj["window"]["end"], *number),
            energy_by_category={
                DeviceCategory(cat): _json(joules, *number)
                for cat, joules in energies.items()
            },
        )
        per_run = tuple(
            RunMetrics(
                run_id=_json(row["run_id"], str),
                category=ApplicationCategory(row["category"]),
                it_power_kw=_json(row["it_power_kw"], *number),
                facility_power_kw=_json(row["facility_power_kw"], *number),
                performance=PerformanceRate(
                    value=_json(row["performance"]["value"], *number),
                    unit=RateUnit(row["performance"]["unit"]),
                ),
                appue=_json(row["appue"], *number),
                aopue=_json(row["aopue"], *number),
                weight=_json(row["weight"], *number),
            )
            for row in obj["per_run"]
        )
        run_ids = set()
        for row in per_run:
            if row.run_id in run_ids:
                raise SchemaError(f"duplicate run_id {row.run_id!r}")
            run_ids.add(row.run_id)
        return MetricsReport(
            window=window,
            pue=_json(obj["pue"], *number),
            per_run=per_run,
            weighted_appue=_json(obj["weighted_appue"], *optional),
            aggregated_aopue=_json(obj["aggregated_aopue"], *optional),
            provenance=_json(obj.get("provenance", {}), dict),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"malformed report document: {exc}") from exc


@dataclass(frozen=True)
class ScenarioBundle:
    """Parsed inputs of one computation; :func:`~axpue.engine.analyze` validates them."""

    inventory: Inventory
    traces: tuple[PowerTrace, ...]
    runs: tuple[ApplicationRun, ...]


def load_bundle(
    power_path: str | Path, runs_path: str | Path, inventory_path: str | Path
) -> ScenarioBundle:
    """Parse the three input files of a computation.

    Only the files themselves are checked here.  Whether devices resolve
    against the inventory and whether telemetry covers every window is
    checked once, by :func:`~axpue.engine.analyze`.  The power CSV is
    handed to :func:`parse_power_csv` as a file opened with ``"rb"``, so a
    large one is parsed in byte ranges by forked children, one per
    available CPU.
    """
    inventory = _parse_file(lambda f: Inventory(parse_inventory_json(f)), inventory_path)
    traces = _parse_file(parse_power_csv, power_path, "rb")
    runs = _parse_file(parse_runs_jsonl, runs_path)
    return ScenarioBundle(inventory=inventory, traces=tuple(traces), runs=tuple(runs))


def _parse_file(parse, path: str | Path, mode: str = "r"):
    """``parse`` the file at ``path``, opened with ``mode`` (a text one as
    UTF-8); its errors carry the ``path``.

    Undecodable bytes, and a CSV field longer than ``csv.field_size_limit()``,
    are a :class:`ParseError`.
    """
    with open(path, mode, encoding=None if "b" in mode else "utf-8") as f:
        try:
            try:
                return parse(f)
            except UnicodeDecodeError as exc:
                raise ParseError(f"not valid UTF-8 ({exc.reason})") from exc
            except csv.Error as exc:
                raise ParseError(str(exc)) from exc
        except AxpueError as exc:
            exc.path = str(path)
            raise
