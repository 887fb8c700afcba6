"""Append-only CSV event log shared by the sidecars and workload actors.

Row format, one event per line:

    <nanos>,<component>,<method>,<event>,<value>

value may be empty (cache hit/miss rows leave it blank). A row is an
EventRow, a named tuple, but the log keeps no object per row. A row is
its timestamp and its kind, the (component, method, event, value) tuple,
and the log holds them as two slots of one flat list. Rows of one kind
share one kind tuple, and a run has a few dozen kinds against tens of
thousands of rows, so a row costs two references. It also leaves the
cyclic garbage collector nothing per row to track. stamped_kinds() hands
the rows out as (timestamp, kind) pairs, the input of the harness's
fold; rows() hands them out as EventRows. The log has no lock: both
backends run every component that records on one thread (the virtual
scheduler's, or the TCP backend's loop), and callers read the rows once
the run has ended.

Rows stay in record order, which is timestamp order: every component
stamps a row with a read of the run's one monotonic clock made just
before it records, on that one thread, so no row can carry an earlier
time than one recorded before it. Every reader hands them out as
recorded, with no sort.

write_to() formats and writes WRITE_BLOCK_ROWS rows at a time, so writing
a log holds one block's text at once, not the whole file's. Each kind's
text after the timestamp is formatted once per write, so a row costs one
int's formatting; render() joins the same blocks.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import islice
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

# Rows formatted and written per block: about 150 KB of text at the
# harness's row widths.
WRITE_BLOCK_ROWS = 4096


class EventLog:
    """In-memory event sink."""

    def __init__(self) -> None:
        # Every distinct kind recorded, mapped to itself: the one copy
        # that every row of that kind holds.
        self._kinds: dict[RowKind, RowKind] = {}
        # Two slots per row: timestamp_ns, kind.
        self._rows: list[int | RowKind] = []

    def record(
        self,
        timestamp_ns: int,
        component: str,
        method: str,
        event: str,
        value: str = "",
    ) -> None:
        kind = (component, method, event, value)
        self._rows += (timestamp_ns, self._kinds.setdefault(kind, kind))

    def stamped_kinds(self) -> Iterator[tuple[int, RowKind]]:
        """Each row as (timestamp_ns, kind), in record order."""
        slots = iter(self._rows)
        return zip(slots, slots)

    def rows(self) -> list[EventRow]:
        return [_new(EventRow, (ts, *kind)) for ts, kind in self.stamped_kinds()]

    def _blocks(self) -> Iterator[str]:
        """CSV text of up to WRITE_BLOCK_ROWS rows at a time, in record order."""
        # ",component,method,event,value\n" of every kind, formatted once.
        tails = {kind: f",{','.join(kind)}\n" for kind in self._kinds}
        stamped = self.stamped_kinds()
        while block := "".join([
            f"{ts}{tails[kind]}" for ts, kind in islice(stamped, WRITE_BLOCK_ROWS)
        ]):
            yield block

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
