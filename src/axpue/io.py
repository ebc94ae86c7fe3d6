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

import collections
import contextlib
import csv
import io as _stdio
import itertools
import json
import math
import operator
import os
import pickle
import signal
import stat
import struct
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, NoReturn

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
    _CATEGORY_CODES,
    _CATEGORY_OF_CODE,
    _KIND_CODES,
    _UNIT_OF_CODE,
    ApplicationCategory,
    ApplicationRun,
    DeviceCategory,
    DeviceRecord,
    EnergyWindow,
    Inventory,
    MetricsReport,
    RateUnit,
    ReportRows,
    RunTable,
    WorkKind,
    WorkMeasure,
    _check_rate,
    _check_run,
    _check_unit,
    _check_work_amount,
    _column,
    _reported,
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
#: Rows of power CSV per forked part of a write: fewer than twice this are
#: formatted in one process.  A row takes about half a microsecond, so a
#: part of 64K rows keeps a child's few milliseconds small next to its work.
_PART_ROWS = 1 << 16
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
    """Power samples, partitioned by device as their blocks arrive.

    Blocks are collected into a batch until it holds ``_BATCH_ROWS`` rows,
    and ``_DEVICE_ROWS`` rows for each device seen.  The batch is then
    partitioned by device, stably, so that each device's rows keep their
    file order; each device's watts are copied into its pieces, and the
    batch's blocks are freed.  Devices whose times in the batch hold the
    same float64 bits, as devices on one grid do, append one shared,
    read-only time piece (see :func:`_alike_slices`), which
    :attr:`shared_pieces` also shares with other batches; any other
    device's times are copied on their own.  Of a batch, only its device
    codes in file order are kept besides, at 1 or 2 bytes a row, with its
    blocks' line numbers: a device's k-th row in its pieces is its k-th row
    in file order, which names a duplicate's line.
    """

    def __init__(self):
        self.ids: dict[str, int] = {}  # stripped device id -> code
        self.codes_by_field: dict[str, int] = {}  # raw device field -> code
        self.batch: tuple[list, ...] = ([], [], [])  # its blocks of codes, times and watts
        self.batch_rows = 0
        # Per code: its time and watt pieces.
        self.pieces: dict[int, tuple[list, list]] = collections.defaultdict(lambda: ([], []))
        self.codes: list[np.ndarray] = []  # each batch's device codes, in file order
        self.shared_pieces: dict = {}  # time pieces that devices share, see _shared_grid
        # Each block's line numbers: a range when its rows are consecutive lines.
        self.lines: list[range | np.ndarray] = []

    def add(self, columns: tuple, lines: range | np.ndarray) -> bool:
        """Convert and check one block's columns; False if any row is bad.

        ``lines`` are the line numbers of the block's rows.
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
        for blocks, values in zip(self.batch, (codes, times, power)):
            blocks.append(values)
        self.lines.append(lines)
        self.batch_rows += count
        if self.batch_rows >= max(_BATCH_ROWS, _DEVICE_ROWS * len(self.ids)):
            self._partition()
        return True

    def _partition(self) -> None:
        """Move the batch's rows into each device's pieces, and free its blocks."""
        codes, times, watts = self.batch
        if not codes:
            return
        # Every code is below the device count, so the cast keeps it; numpy's
        # stable sort is a radix sort for 8- and 16-bit integers.
        batch = np.concatenate(codes, dtype=np.min_scalar_type(len(self.ids)), casting="unsafe")
        order = np.argsort(batch, kind="stable")
        grouped = batch[order]
        starts = np.flatnonzero(np.concatenate(([True], grouped[1:] != grouped[:-1])))
        batch_times = np.concatenate(times)[order]
        batch_watts = np.concatenate(watts)[order]
        for blocks in self.batch:
            blocks.clear()
        self.batch_rows = 0
        self.codes.append(batch)
        ends = [*starts[1:].tolist(), len(order)]
        # Copies, so that the batch is freed, and later pieces reuse its heap.
        firsts, alike = _alike_slices(batch_times, starts)
        batch_pieces: list[np.ndarray] = []
        for code, lo, hi, first, shared in zip(
            grouped[starts].tolist(), starts.tolist(), ends, firsts, alike
        ):
            if first < len(batch_pieces):
                piece = batch_pieces[first]
            elif shared:
                piece = _shared_grid(self.shared_pieces, batch_times[lo:hi].copy())
            else:
                piece = batch_times[lo:hi].copy()
            batch_pieces.append(piece)
            time_pieces, watt_pieces = self.pieces[code]
            time_pieces.append(piece)
            watt_pieces.append(batch_watts[lo:hi].copy())

    def joined(self) -> tuple[list, list, list, list]:
        """What :meth:`merge` takes: each device's times and watts joined,
        in code order, and the batches' codes and the blocks' lines.

        Devices whose joined times hold the same bits share one array (see
        :func:`_shared_grid`), which ``pickle`` then sends once.
        """
        self._partition()
        pieces = [self.pieces[code] for code in self.ids.values()]
        grids: dict = {}
        joined: dict = {}
        times = []
        for time_pieces, _ in pieces:
            device_times, rises = _join_times(joined, grids, time_pieces)
            times.append(device_times if rises else _shared_grid(grids, device_times))
        watts = [_join(watt_pieces) for _, watt_pieces in pieces]
        return times, watts, self.codes, self.lines

    def merge(self, names: list[str], columns: tuple[list, ...], offset: int) -> None:
        """Append the rows of another ``_Samples``, which follow these in the file.

        ``names`` are its device ids in code order, ``columns`` are its
        :meth:`joined`, and ``offset`` is added to its line numbers.
        """
        self._partition()
        times, watts, codes, lines = columns
        for name, device_times, device_watts in zip(names, times, watts):
            time_pieces, watt_pieces = self.pieces[self.ids.setdefault(name, len(self.ids))]
            time_pieces.append(device_times)
            watt_pieces.append(device_watts)
        remap = np.array([self.ids[name] for name in names], np.min_scalar_type(len(self.ids)))
        self.codes.extend(remap[batch] for batch in codes)
        self.lines.extend(
            range(block.start + offset, block.stop + offset)
            if isinstance(block, range)
            else block + offset
            for block in lines
        )

    def traces(self) -> list[PowerTrace]:
        """One trace per device in device-id order; rejects duplicate samples.

        Each device's pieces are joined.  Only a device whose times do not
        rise strictly in file order is sorted (see :meth:`_sorted`); of
        several devices with a repeated time, the first in device-id order
        is reported.  Devices whose times then hold the same bits share one
        array (see :func:`_shared_grid`), and each trace holds its arrays
        uncopied.
        """
        self._partition()
        traces, duplicates, grids, joined = [], {}, {}, {}
        # Built in code order, the order each batch's pieces were cut in, so
        # that the pieces freed as each trace is built merge into holes that
        # the next traces fit in.
        for name, code in self.ids.items():
            time_pieces, watt_pieces = self.pieces[code]
            (times, rises), watts = _join_times(joined, grids, time_pieces), _join(watt_pieces)
            if not rises:
                try:
                    times, watts = self._sorted(name, code, times, watts)
                except DuplicateSampleError as exc:
                    duplicates[name] = exc
                    continue
                times = _shared_grid(grids, times)
            traces.append(PowerTrace._owning(name, times, watts))
        if duplicates:
            raise duplicates[min(duplicates)]
        return sorted(traces, key=lambda trace: trace.device_id)

    def _sorted(
        self, name: str, code: int, times: np.ndarray, watts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Device ``code``'s times, in file order, and its watts, sorted
        stably by time; a repeated time raises, at the later line of the
        first repeat."""
        order = np.argsort(times, kind="stable")
        times = times[order]
        repeats = np.flatnonzero(times[1:] == times[:-1])
        if repeats.size:
            i = int(repeats[0])
            # Stable, so row ``order[i + 1]`` is the later of the two in file order.
            raise DuplicateSampleError(
                f"device {name!r}: duplicate timestamp {float(times[i])!r}",
                line=self._line(code, int(order[i + 1])),
            )
        return times, watts[order]

    def _line(self, code: int, row: int) -> int:
        """The line of device ``code``'s ``row``-th row in file order."""
        rows = np.flatnonzero(np.concatenate(self.codes, dtype=np.intp) == code)
        return int(np.concatenate(self.lines)[rows[row]])


#: Rows in a batch of blocks that :class:`_Samples` partitions by device.  A
#: batch's temporaries take a few dozen bytes a row, so 16K rows keep them
#: under a MB, small next to a large file's traces, while the dozen numpy
#: calls a batch costs stay a small part of its time.
_BATCH_ROWS = 1 << 14
#: Rows a batch holds for each device seen, at the least.  With more than
#: ``_BATCH_ROWS // _DEVICE_ROWS`` devices a batch grows with them, so that
#: a time-major file's pieces hold several rows each, not about one.
_DEVICE_ROWS = 8


def _alike_slices(times: np.ndarray, starts: np.ndarray) -> tuple[list[int], list[bool]]:
    """For each slice of ``times`` cut at ``starts``: the first slice that
    holds its float64 bits, and whether another slice holds them too.

    A slice is compared only with the first slice of its length and first
    time, all rows of the batch at once, so that the cost is a few numpy
    calls a batch whatever the number of slices.  A slice unlike that one
    is its own first.
    """
    sizes = np.diff(starts, append=times.size)
    bits = times.view(np.int64)
    heads = bits[starts]
    order = np.lexsort((heads, sizes))  # stable: each group's slices stay in order
    new = np.empty(order.size, bool)
    new[0] = True
    new[1:] = (np.diff(sizes[order]) != 0) | (np.diff(heads[order]) != 0)
    if new.all():
        return list(range(starts.size)), [False] * starts.size
    firsts = np.empty_like(order)
    firsts[order] = order[new][np.cumsum(new) - 1]
    # Row k of each slice against row k of its group's first slice.
    rows = np.repeat(starts[firsts] - starts, sizes)
    rows += np.arange(times.size)
    same = np.logical_and.reduceat(bits == bits[rows], starts)
    del rows
    firsts = np.where(same, firsts, np.arange(starts.size))
    return firsts.tolist(), (np.bincount(firsts, minlength=starts.size)[firsts] > 1).tolist()


def _shared_grid(grids: dict, times: np.ndarray) -> np.ndarray:
    """``times`` made read-only, or the array of ``grids`` that holds its float64 bits.

    ``grids`` keeps the first array seen of each length, first and last
    time: one lookup per array, and one compare of bits where those match,
    so that no array is compared with more than one other, and ``-0.0`` is
    not taken for ``0.0``.  A later grid of the same length and end times
    but other bits is not shared.
    """
    grid = grids.setdefault((times.size, float(times[0]), float(times[-1])), times)
    if grid is not times and np.array_equal(grid.view(np.int64), times.view(np.int64)):
        return grid
    times.setflags(write=False)
    return times


def _join_times(joined: dict, grids: dict, pieces: list[np.ndarray]) -> tuple[np.ndarray, bool]:
    """A device's time ``pieces`` joined, and whether they rise strictly;
    rising times are shared by bits (see :func:`_shared_grid`).

    ``joined`` keeps the rising times joined so far from each list of
    pieces that starts with a read-only one, such as a piece that devices
    share, by the pieces' ids, so that the next device that holds the very
    same pieces gets them with no join or compare.  Every device's pieces
    are alive before the first is joined, so no two of them have the same
    id.
    """
    key = tuple(map(id, pieces)) if not pieces[0].flags.writeable else None
    if (hit := joined.get(key)) is not None:
        pieces.clear()
        return hit, True
    times = _join(pieces)
    # Compared, not subtracted: far-apart times must not overflow.  Equal
    # times fail, ``0.0`` after ``-0.0`` included.
    if not (times[1:] > times[:-1]).all():
        return times, False
    times = _shared_grid(grids, times)
    if key is not None:
        joined[key] = times
    return times, True


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
    gives one line at a time, from blocks of ``_BLOCK_BYTES``; the lines of
    a block not yet given when the iterator is closed are handed out again.
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

    def __iter__(self) -> Iterator[str]:
        lines = []
        try:
            while block := self.block(_BLOCK_BYTES):
                lines = _stdio.StringIO(block, newline="").readlines()
                lines.reverse()
                while lines:
                    yield lines.pop()
        finally:
            # The block's bytes are still in ``data``, right before ``start``.
            self.start -= sum(len(line.encode("utf-8")) for line in lines)


def _csv_rows(block: str, lines: _Lines) -> tuple[list[list[str]], Exception | None]:
    """The records of ``block`` as ``csv.reader`` gives them.

    A quoted record left open at the end of the block is closed with the
    next of ``lines``.  Returns the records, and the exception that stopped
    ``csv.reader``, to raise once they are checked.
    """
    block_lines = _stdio.StringIO(block, newline="").readlines()
    with contextlib.closing(iter(lines)) as more:
        reader = csv.reader(itertools.chain(block_lines, more))
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
    with contextlib.closing(iter(lines)) as more:
        header = next(csv.reader(more), None)
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
            if not samples.add(columns, range(line, line + count)):
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


def _part_count(size: int, unit: int) -> int:
    """How many parts of ``unit`` or more, one per CPU, to cut work of
    ``size`` into; each part after the first goes to a forked child.

    1 when there are not two such parts and two CPUs, and when
    :func:`_may_fork` says no.
    """
    count = min(_cpu_count(), size // unit)
    return count if count >= 2 and _may_fork() else 1


def _range_cuts(fd: int) -> list[int] | None:
    """Offsets that cut the file ``fd`` into byte ranges of whole lines, one per CPU.

    The first range holds the header, and every cut falls after a ``\\n``.
    None when :func:`_part_count` gives one range of ``_RANGE_BYTES`` or
    more, and when the file holds a ``"``: a quoted record could cross a cut.
    """
    size = os.fstat(fd).st_size
    count = _part_count(size, _RANGE_BYTES)
    if count < 2:
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


@contextlib.contextmanager
def _forked(function: Callable, calls: list[tuple]) -> Iterator[Iterator[object]]:
    """Call ``function(*args)`` in one forked child per ``args`` in ``calls``.

    Yields an iterator over the children's results, in the order of
    ``calls``: what ``function`` returned, pickled through a pipe, or None
    if the child could not start, raised, exited non-zero or was reaped by
    another waiter.  Taking a result reaps its child.  Every child not yet
    reaped when the block exits, on an error too, is killed and reaped.
    """
    children: list[tuple[int, IO[bytes]] | None] = []

    def results():
        while children:
            result = None
            if (child := children[0]) is not None:
                pid, pipe = child
                with pipe:
                    try:
                        result = pickle.load(pipe)
                    except Exception:  # a child that died mid-write leaves any partial pickle
                        pass
                try:
                    if os.waitpid(pid, 0)[1] != 0:
                        result = None
                except ChildProcessError:  # reaped elsewhere: how it ended is unknown
                    result = None
            del children[0]
            yield result

    try:
        for args in calls:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                children.append(None)
                continue
            if pid == 0:
                status = 1
                try:
                    os.close(read_end)
                    result = function(*args)
                    with open(write_end, "wb") as out:
                        pickle.dump(result, out, protocol=5)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        yield results()
    finally:
        for child in children:
            if child is not None:
                pid, pipe = child
                pipe.close()
                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


def _parse_range(fd: int, start: int, end: int) -> tuple:
    """Parse bytes ``start`` up to ``end`` of the file ``fd``, counting lines
    from 0: its device ids, its line count and its :meth:`_Samples.joined`."""
    samples = _Samples()
    count = _parse_rows(_range_lines(fd, start, end), samples, 0)
    return list(samples.ids), count, samples.joined()


def _parse_ranges(lines: _Lines, fd: int | None, ranges: list[tuple[int, int]]) -> _Samples:
    """Parse ``lines``, the header and the rows before the first of ``ranges``,
    here, and each byte range of the file ``fd`` in a forked child.

    Children's samples are merged in file order.  A range whose child failed
    is parsed again here, with its right first line, so that it raises the
    error the one-process parse raises.
    """
    with _forked(_parse_range, [(fd, start, end) for start, end in ranges]) as results:
        samples = _Samples()
        _read_header(lines)
        line = _parse_rows(lines, samples, 2)
        samples._partition()  # so that the batch is freed before a child's samples arrive
        for (start, end), result in zip(ranges, results):
            if result is None:
                line = _parse_rows(_range_lines(fd, start, end), samples, line)
            else:
                names, count, columns = result
                samples.merge(names, columns, line)
                line += count
    return samples


def parse_power_csv(stream: IO[bytes]) -> list[PowerTrace]:
    """Parse power samples into one trace per device, sorted by device_id.

    Rows may arrive in any order; each device's samples are sorted by time.
    Batches of parsed blocks are partitioned by device as they arrive, and
    freed, which keeps each device's rows in file order.  Only a device
    whose times do not rise strictly in file order is then sorted, on its
    own: device-major rows, and time-major ones as a poller that reads every
    meter once per interval writes them, need no sort (see
    :class:`_Samples`).  A batch holds ``_BATCH_ROWS`` rows and
    ``_DEVICE_ROWS`` rows for each device seen, so that many devices do not
    cut it into pieces of about a row.  Devices whose times in a batch hold
    the same float64 bits, as devices on one grid do, share one read-only
    time piece, so their pieces keep the watts' 8 bytes a row and that
    piece.  On the 585K rows of 203 devices on one grid, device-major or
    time-major, the parse peaks at about 13 bytes a row in one process and
    11 in the parent of a parse in two ranges; rows in random order peak at
    about 22.  Devices whose joined times hold the same bits share one
    read-only array (see :func:`_shared_grid`), so traces on one grid keep
    8 bytes a row and the grid.
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


def _format_rows(times: np.ndarray, devices: list[tuple[str, np.ndarray]]) -> bytes:
    """``devices``, each ``(device_id, watts)`` sampled at ``times``, as
    encoded CSV lines: the stamps are spelled once, and each device's rows
    joined into one string."""
    stamps = list(map(repr, times.tolist()))
    return "".join(
        ["".join([f"{device_id},{stamp},{w!r}\n" for stamp, w in zip(stamps, watts.tolist())])
         for device_id, watts in devices]
    ).encode("utf-8")


def write_power_csv(times: np.ndarray, devices: Iterable[tuple[str, np.ndarray]]) -> bytes:
    """Serialize ``(device_id, watts)`` devices, all sampled at ``times``;
    inverse of the parser.

    Each device's rows are written in order, one per sample.  Values go
    through float64, so an integer prints as ``0.0`` and every value as its
    shortest round-tripping ``repr``.  A watts column whose length is not
    that of ``times`` raises ``ValueError`` before any row is formatted.

    The devices are cut into one part per CPU, at device boundaries (see
    :func:`_part_count`, with parts of ``_PART_ROWS`` rows or more, and no
    more parts than devices), and each part after the first is formatted by
    a forked child.  A part whose child fails is formatted again here, so
    the bytes do not depend on the number of parts.
    """
    times = np.asarray(times, dtype=np.float64)
    devices = [(device_id, np.asarray(watts, dtype=np.float64)) for device_id, watts in devices]
    for device_id, watts in devices:
        if watts.shape != times.shape:
            raise ValueError(f"device {device_id!r}: {watts.size} watts for {times.size} times")
    count = max(min(_part_count(times.size * len(devices), _PART_ROWS), len(devices)), 1)
    cuts = [len(devices) * i // count for i in range(count + 1)]
    parts = [devices[a:b] for a, b in zip(cuts, cuts[1:])]
    with _forked(_format_rows, [(times, part) for part in parts[1:]]) as results:
        out = [",".join(POWER_CSV_HEADER).encode("utf-8") + b"\n", _format_rows(times, parts[0])]
        for part, result in zip(parts[1:], results):
            out.append(_format_rows(times, part) if result is None else result)
    return b"".join(out)


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


#: Enum members by their JSON spelling, found with no enum call.
_CATEGORIES = {category.value: category for category in ApplicationCategory}
_WORK_KINDS = {kind.value: kind for kind in WorkKind}
_RUN_KEYS = ("run_id", "category", "start", "end", "work", "devices")
_run_fields = operator.itemgetter(*_RUN_KEYS)


def _run_fields_from_obj(obj: dict, line: int) -> tuple:
    """The fields of one run object, checked as the parse and then
    :class:`WorkMeasure` and :class:`ApplicationRun` check them: ``(run_id,
    category, start, end, kind, amount, devices)``."""
    try:
        run_id, category, start, end, work, devices = _run_fields(obj)
    except (KeyError, TypeError):
        for key in _RUN_KEYS:
            if key not in obj:
                raise SchemaError(f"missing key {key!r}", line=line) from None
        raise
    # Only JSON's own types arrive here, so exact type tests do what
    # isinstance does, and a bool is never taken for an int.
    if type(run_id) is not str:
        raise SchemaError(f"run_id must be a string, got {run_id!r}", line=line)
    if type(category) is not str or category not in _CATEGORIES:
        raise SchemaError(f"unknown category {category!r}", line=line)
    category = _CATEGORIES[category]
    if type(work) is not dict or "type" not in work or "value" not in work:
        raise SchemaError("work must be an object with 'type' and 'value'", line=line)
    kind, value = work["type"], work["value"]
    if type(kind) is not str or kind not in _WORK_KINDS:
        raise SchemaError(f"unknown work type {kind!r}", line=line)
    kind = _WORK_KINDS[kind]
    if type(value) is float and value.is_integer():
        value = int(value)
    elif type(value) is not int:
        raise SchemaError(f"work value must be an integer, got {value!r}", line=line)
    if type(devices) is not list or not {str}.issuperset(map(type, devices)):
        raise SchemaError("devices must be a list of device ids", line=line)
    if type(start) is bool or type(end) is bool:
        raise SchemaError("bad start/end timestamp", line=line)
    try:
        start = float(start) if type(start) in (int, float) else _parse_timestamp(start)
        end = float(end) if type(end) in (int, float) else _parse_timestamp(end)
    except (ValueError, OverflowError, TypeError):
        raise SchemaError("bad start/end timestamp", line=line) from None
    if end <= start:
        raise InvalidWindowError(
            f"run {run_id!r}: end ({end}) must be > start ({start})", line=line
        )
    try:
        _check_work_amount(value)
        _check_run(run_id, category, start, end, kind, devices)
    except ValidationError as exc:
        raise SchemaError(str(exc), line=line) from exc
    return run_id, category, start, end, kind, value, devices


def _run_from_obj(obj: dict, line: int) -> ApplicationRun:
    run_id, category, start, end, kind, amount, devices = _run_fields_from_obj(obj, line)
    return ApplicationRun(run_id, category, start, end, WorkMeasure(kind, amount), frozenset(devices))


#: The C scanner that ``json.loads`` runs, called without its Python wrapper.
_scan_json = json.JSONDecoder().scan_once
#: JSON's whitespace; ``str.strip`` removes more, ``\x0c`` for one.
_JSON_SPACE = " \t\n\r"
_pack_double = struct.Struct("d").pack


def parse_runs_jsonl(stream: IO[str] | Iterable[str]) -> RunTable:
    """Parse one JSON object per line into a table of validated runs (blank
    lines skipped).

    The :class:`~axpue.model.RunTable` holds the runs as columns: a run
    costs its id string, its bounds as float64, two one-byte codes, its
    work counter and one reference to its devices, whose sorted tuple and
    id strings are shared by every run that names the same ones.  Run ids
    are unique: a repeated one is a :class:`SchemaError` on its second line.
    """
    run_ids: list[str] = []
    categories, kinds = bytearray(), bytearray()
    # Bounds go in as native doubles, float64's bits, and no float object
    # outlives its line.
    starts, ends = bytearray(), bytearray()
    amounts: list[int] = []
    devices: list[tuple[str, ...]] = []
    seen = set()
    names: dict[str, str] = {}
    # A run's devices as its line lists them -> their shared sorted tuple.
    device_sets: dict[tuple[str, ...], tuple[str, ...]] = {}
    for line_no, raw in enumerate(stream, start=1):
        if not raw.strip():
            continue
        # What json.loads(raw) does, minus its Python-level wrapper.  A line
        # that it would reject (a BOM, text after the value, any decode
        # error), and a bytes line, goes through _load_json, for the same
        # result or message.
        try:
            text = raw.strip(_JSON_SPACE)
            obj, stop = _scan_json(text, 0)
            decoded = stop == len(text)
        except (TypeError, StopIteration, ValueError, RecursionError):
            decoded = False
        if not decoded:
            obj = _load_json(raw, "invalid JSON", line=line_no)
        if not isinstance(obj, dict):
            raise SchemaError("each line must be a JSON object", line=line_no)
        run_id, category, start, end, kind, amount, listed = _run_fields_from_obj(obj, line_no)
        if run_id in seen:
            raise SchemaError(f"duplicate run_id {run_id!r}", line=line_no)
        seen.add(run_id)
        key = tuple(listed)
        if (ids := device_sets.get(key)) is None:
            ids = device_sets[key] = tuple(sorted({names.setdefault(d, d) for d in key}))
        run_ids.append(run_id)
        categories.append(_CATEGORY_CODES[category])
        starts += _pack_double(start)
        ends += _pack_double(end)
        kinds.append(_KIND_CODES[kind])
        amounts.append(amount)
        devices.append(ids)
    return RunTable(
        tuple(run_ids),
        bytes(categories),
        memoryview(bytes(starts)).cast("d"),
        memoryview(bytes(ends)).cast("d"),
        bytes(kinds),
        tuple(amounts),
        tuple(devices),
    )


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
        try:
            devices.append(DeviceRecord(device_id=obj["device_id"], category=category, label=label))
        except ValidationError as exc:
            raise SchemaError(f"inventory entry {i}: {exc}") from exc
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


#: The JSON spelling of each category code's member, and of its rate unit.
_JSON_CATEGORIES = tuple(encode_basestring_ascii(c.value) for c in _CATEGORY_OF_CODE)
_JSON_UNITS = tuple(encode_basestring_ascii(unit.value) for unit in _UNIT_OF_CODE)
#: Report rows spelled at a time: the writer holds the text and bytes of one
#: slice of rows beside the report bytes written so far.
_SLICE_ROWS = 128


def _json_column(values: list) -> Iterable[str]:
    """``map(_json_scalar, values)``, a column at a time where it can be.

    A column of exact floats whose sum is finite (so every one of them is)
    is spelled with ``float.__repr__``, and one of exact strings with
    ``encode_basestring_ascii``, which is what ``_json_scalar`` does for
    each of them.
    """
    kinds = set(map(type, values))
    if kinds == {float} and math.isfinite(sum(values)):
        return map(float.__repr__, values)
    if kinds == {str}:
        return map(encode_basestring_ascii, values)
    return map(_json_scalar, values)


def _json_rows(rows: ReportRows) -> str:
    """The ``per_run`` elements of ``rows``, without the separator after the
    last one: each is ``_REPORT_ROW`` filled a column at a time."""
    return ",\n".join(
        map(
            _REPORT_ROW.format,
            _json_column(list(rows.aopues)),
            _json_column(list(rows.appues)),
            map(_JSON_CATEGORIES.__getitem__, rows.categories),
            _json_column(list(rows.facility_power_kws)),
            _json_column(list(rows.it_power_kws)),
            map(_JSON_UNITS.__getitem__, rows.categories),
            _json_column(list(rows.performances)),
            _json_column(list(rows.run_ids)),
            _json_column(list(rows.weights)),
        )
    )


def _slices(rows: ReportRows) -> Iterator[ReportRows]:
    """``rows`` in consecutive slices of at most ``_SLICE_ROWS`` rows."""
    return (rows[start:start + _SLICE_ROWS] for start in range(0, len(rows), _SLICE_ROWS))


def _table_rows(rows: ReportRows, pue: float) -> Iterator[list[str]]:
    """The results-table rows of ``rows``, the rows of a report at ``pue``."""
    pue_text = format_quantity(pue)
    for run_id, code, it_kw, facility_kw, value, appue, aopue in zip(
        rows.run_ids, rows.categories, rows.it_power_kws, rows.facility_power_kws,
        rows.performances, rows.appues, rows.aopues,
    ):
        magnitude, unit = _reported(_UNIT_OF_CODE[code], value)
        yield [
            run_id,
            format_quantity(it_kw),
            format_quantity(facility_kw),
            f"{format_quantity(magnitude)} {unit}",
            pue_text,
            format_appue(appue),
            format_quantity(aopue),
        ]


def _report_csv(report: MetricsReport) -> Iterator[str]:
    """The results-table CSV text, in parts of at most ``_SLICE_ROWS`` rows."""
    out = _stdio.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_CSV_HEADER)
    if not report.per_run:
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
    for rows in _slices(report.per_run):
        writer.writerows(_table_rows(rows, report.pue))
        yield out.getvalue()
        out.seek(0)
        out.truncate()
    yield out.getvalue()


def _report_json(report: MetricsReport) -> Iterator[str]:
    """The JSON report text, in parts of at most ``_SLICE_ROWS`` rows.  Only
    the document around ``per_run`` goes through ``json``; each row is
    written from one fixed template whose every leaf, strings included, is
    spelled by :func:`_json_column` as ``json`` spells it, so the rows need
    no per-row dict and no pure-Python encoder pass.
    """
    # The rows go in at the first '"per_run": []': every key sorted before
    # it is a number or null, so it is the top-level key.
    head, _, tail = json.dumps(_report_to_obj(report), sort_keys=True, indent=2).partition(
        '"per_run": []'
    )
    if not report.per_run:
        yield "".join((head, '"per_run": []', tail, "\n"))
        return
    yield head + '"per_run": [\n'
    for i, rows in enumerate(_slices(report.per_run)):
        if i:
            yield ",\n"
        yield _json_rows(rows)
    yield "".join(("\n  ]", tail, "\n"))


def write_report(report: MetricsReport, fmt: str = "json") -> bytes:
    """Serialize a report deterministically as JSON or a results-table CSV.

    The JSON bytes are those of ``json.dump(..., sort_keys=True, indent=2)``
    plus a final newline.  The text is spelled and encoded a slice of rows
    at a time into one growing buffer, so the whole text never exists
    beside its bytes.
    """
    if fmt == "json":
        parts = _report_json(report)
    elif fmt == "csv":
        parts = _report_csv(report)
    else:
        raise ValidationError(f"unknown report format {fmt!r}")
    out = _stdio.BytesIO()
    for part in parts:
        out.write(part.encode("utf-8"))
    return out.getvalue()


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
        # The rows go straight into columns, each field read and checked in
        # the order a RunMetrics and its PerformanceRate would be.
        run_ids, categories = [], bytearray()
        it_kws, facility_kws, performances, appues, aopues, weights = columns = (
            [], [], [], [], [], []
        )
        for row in obj["per_run"]:
            run_ids.append(run_id := _json(row["run_id"], str))
            categories.append(_CATEGORY_CODES[category := ApplicationCategory(row["category"])])
            it_kws.append(_json(row["it_power_kw"], *number))
            facility_kws.append(_json(row["facility_power_kw"], *number))
            value = _json(row["performance"]["value"], *number)
            unit = RateUnit(row["performance"]["unit"])
            _check_rate(value)
            _check_unit(run_id, category, unit)
            performances.append(value)
            appues.append(_json(row["appue"], *number))
            aopues.append(_json(row["aopue"], *number))
            weights.append(_json(row["weight"], *number))
        seen = set()
        for run_id in run_ids:
            if run_id in seen:
                raise SchemaError(f"duplicate run_id {run_id!r}")
            seen.add(run_id)
        return MetricsReport(
            window=window,
            pue=_json(obj["pue"], *number),
            per_run=ReportRows(tuple(run_ids), bytes(categories), *map(_column, columns)),
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
    runs: RunTable


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
    return ScenarioBundle(inventory=inventory, traces=tuple(traces), runs=runs)


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
