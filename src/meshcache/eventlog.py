"""Append-only CSV event log shared by the sidecars and workload actors.

Row format, one event per line:

    <nanos>,<component>,<method>,<event>,<value>

value may be empty (cache hit/miss rows leave it blank). A row is an
EventRow, a named tuple, but the log keeps no object per row. A row is
its timestamp and its kind, the (component, method, event, value) tuple,
and the log packs the two into one 12-byte record of a bytearray (ROW):
the timestamp as an int64 and the kind as a uint32 index into the log's
table of distinct kinds, which holds one copy of each. A run has a few
dozen kinds against tens of thousands of rows, so a row costs 12 bytes
and no object, and the timestamp int it was recorded with is freed.
record() therefore refuses a timestamp that is not an int or lies outside
int64 (TypeError, ValueError) rather than wrapping it, and a negative one
(ValueError), which parse_event_row would refuse, so every log it writes
reads back.

A row is appended in one C-level step, so rows recorded from several
threads never mix; a kind's index is assigned under a lock, once per new
kind. Even so, both backends run every component that records on one
thread (the virtual scheduler's, or the TCP backend's loop), and callers
read the rows once the run has ended.

Rows stay in record order, which is timestamp order: every component
stamps a row with a read of the run's one monotonic clock made just
before it records, on that one thread, so no row can carry an earlier
time than one recorded before it. Every reader hands them out as
recorded, with no sort.

Every reader unpacks WRITE_BLOCK_ROWS rows at a time in one call, into
one flat tuple. stamped_codes() hands the rows out as (timestamp, index)
pairs, which the harness's fold reads against kinds(); stamped_kinds()
as (timestamp, kind) pairs; rows() as EventRows. write_to() formats and
writes one block at a time, so writing a log holds one block's text, not
the whole file's. Each kind's text after the timestamp is formatted once
per write, so a row costs one int's formatting; render() joins the same
blocks.
"""

from __future__ import annotations

import struct
import threading
from collections.abc import Iterable
from itertools import chain
from typing import Iterator, NamedTuple


class EventRow(NamedTuple):
    timestamp_ns: int
    component: str
    method: str
    event: str
    value: str = ""

# Builds an EventRow from the tuple of its fields, skipping the field
# constructor's argument handling.
_new = tuple.__new__

# A row's kind: (component, method, event, value).
RowKind = tuple[str, str, str, str]

# One row: its timestamp_ns and its kind's index in the log's kinds().
ROW = struct.Struct("<qI")

# Rows unpacked, formatted and written per block: about 36 KB of text at
# the harness's row widths.
WRITE_BLOCK_ROWS = 1024

# A whole block of rows, unpacked in one call.
_BLOCK = struct.Struct("<" + "qI" * WRITE_BLOCK_ROWS)
_pack = ROW.pack


def _refusal(timestamp_ns: object) -> Exception:
    """The error for a timestamp that ROW cannot hold, or that is negative."""
    if not isinstance(timestamp_ns, int):
        return TypeError(f"timestamp_ns must be an int, got {type(timestamp_ns).__name__}")
    if -(2**63) <= timestamp_ns < 0:
        return ValueError(f"timestamp_ns {timestamp_ns} is negative")
    return ValueError(f"timestamp_ns {timestamp_ns} is outside int64")


class EventLog:
    """In-memory event sink."""

    def __init__(self) -> None:
        # Every distinct kind recorded, mapped to its index: the order of
        # first recording, so the keys in order are kinds().
        self._codes: dict[RowKind, int] = {}
        self._new_kind = threading.Lock()
        # One ROW per row.
        self._rows = bytearray()

    def record(
        self,
        timestamp_ns: int,
        component: str,
        method: str,
        event: str,
        value: str = "",
    ) -> None:
        kind = (component, method, event, value)
        try:
            row = _pack(timestamp_ns, self._codes[kind])
        except KeyError:
            self._record_first(timestamp_ns, kind)
            return
        except struct.error:
            raise _refusal(timestamp_ns) from None
        # A negative timestamp packs, but parse_event_row refuses it.
        if timestamp_ns < 0:
            raise _refusal(timestamp_ns)
        self._rows += row

    def _record_first(self, timestamp_ns: int, kind: RowKind) -> None:
        """Record the first row of its kind, which takes the next index once
        its timestamp is known to pack and not to be negative."""
        try:
            _pack(timestamp_ns, 0)
        except struct.error:
            raise _refusal(timestamp_ns) from None
        if timestamp_ns < 0:
            raise _refusal(timestamp_ns)
        with self._new_kind:
            code = self._codes.setdefault(kind, len(self._codes))
        self._rows += _pack(timestamp_ns, code)

    def kinds(self) -> list[RowKind]:
        """Every distinct kind recorded, indexed as stamped_codes() gives them."""
        return list(self._codes)

    def _flat_blocks(self) -> Iterator[tuple[int, ...]]:
        """Up to WRITE_BLOCK_ROWS rows at a time, in record order, each block
        one flat tuple: timestamp, index, timestamp, index, ..."""
        rows = self._rows
        end = len(rows)
        whole = end - end % _BLOCK.size
        for offset in range(0, whole, _BLOCK.size):
            yield _BLOCK.unpack_from(rows, offset)
        if whole < end:
            rest = struct.Struct("<" + "qI" * ((end - whole) // ROW.size))
            yield rest.unpack_from(rows, whole)

    def stamped_codes(self) -> Iterator[tuple[int, int]]:
        """Each row as (timestamp_ns, index into kinds()), in record order."""
        slots = chain.from_iterable(self._flat_blocks())
        return zip(slots, slots)

    def stamped_kinds(self) -> Iterator[tuple[int, RowKind]]:
        """Each row as (timestamp_ns, kind), in record order."""
        slots = chain.from_iterable(self._flat_blocks())
        return zip(slots, map(self.kinds().__getitem__, slots))

    def rows(self) -> list[EventRow]:
        kinds = self.kinds()
        return [_new(EventRow, (ts, *kinds[code])) for ts, code in self.stamped_codes()]

    def _blocks(self) -> Iterator[str]:
        """CSV text of up to WRITE_BLOCK_ROWS rows at a time, in record order."""
        # ",component,method,event,value\n" of every kind, formatted once.
        tails = [f",{','.join(kind)}\n" for kind in self.kinds()]
        for block in self._flat_blocks():
            slots = iter(block)
            yield "".join([f"{ts}{tails[code]}" for ts, code in zip(slots, slots)])

    def render(self) -> str:
        """Whole log as CSV text, one line per row in record order."""
        return "".join(self._blocks())

    def write_to(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for block in self._blocks():
                fh.write(block)


def split_kinds(rows: Iterable[EventRow]) -> Iterator[tuple[int, RowKind]]:
    """EventRows as the (timestamp_ns, kind) pairs EventLog.stamped_kinds()
    yields."""
    return ((ts, (component, method, event, value))
            for ts, component, method, event, value in rows)


def parse_event_row(line: str, row_number: int) -> EventRow:
    parts = line.split(",")
    if len(parts) != 5:
        raise ValueError(
            f"row {row_number}: expected 5 comma-separated fields, got {len(parts)}"
        )
    try:
        timestamp_ns = int(parts[0])
    except ValueError:
        raise ValueError(f"row {row_number}: bad timestamp {parts[0]!r}") from None
    if timestamp_ns < 0:
        raise ValueError(f"row {row_number}: negative timestamp {timestamp_ns}")
    component, method, event, value = parts[1], parts[2], parts[3], parts[4]
    if not component or not method or not event:
        raise ValueError(f"row {row_number}: empty component, method, or event field")
    return EventRow(timestamp_ns, component, method, event, value)


def parse_event_lines(lines: Iterable[str]) -> Iterator[EventRow]:
    """Parse CSV lines into rows one at a time, skipping blank lines; errors
    carry 1-based row numbers. A line may still end in its line break, as
    the lines of an open file do."""
    for i, line in enumerate(lines, start=1):
        if line.strip():
            yield parse_event_row(line.rstrip("\r\n"), i)


def parse_event_log(text: str) -> list[EventRow]:
    """Parse CSV text back into rows; errors carry 1-based row numbers."""
    return list(parse_event_lines(text.splitlines()))
