"""Append-only CSV event log shared by the sidecars and workload actors.

Row format, one event per line:

    <nanos>,<component>,<method>,<event>,<value>

value may be empty (cache hit/miss rows leave it blank). A row is an
EventRow, a named tuple, but the log keeps each one as the plain tuple of
its fields: it holds one per event, and a plain tuple of ints and strings
is cheaper to build and is soon untracked by the cyclic garbage
collector, which would otherwise traverse every row again and again.
rows() hands the rows out as EventRows; iterating the log yields the
plain tuples, for a fold that unpacks them by position. The log is a
plain in-memory list with no lock: both backends run every component
that records on one thread (the virtual scheduler's, or the TCP
backend's loop), and callers read the rows once the run has ended.

Rows stay in record order, which is timestamp order: every component
stamps a row with a read of the run's one monotonic clock made just
before it records, on that one thread, so no row can carry an earlier
time than one recorded before it. rows(), iteration and render() hand
them out as recorded, with no sort.
"""

from __future__ import annotations

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

# What the log keeps per row: the plain tuple of an EventRow's fields.
RowFields = tuple[int, str, str, str, str]


class EventLog:
    """In-memory event sink."""

    def __init__(self) -> None:
        self._rows: list[RowFields] = []

    def record(
        self,
        timestamp_ns: int,
        component: str,
        method: str,
        event: str,
        value: str = "",
    ) -> None:
        self._rows.append((timestamp_ns, component, method, event, value))

    def rows(self) -> list[EventRow]:
        return [_new(EventRow, row) for row in self._rows]

    def __iter__(self) -> Iterator[RowFields]:
        return iter(self._rows)

    def render(self) -> str:
        """Whole log as CSV text, one line per row in record order."""
        return "".join([
            f"{ts},{component},{method},{event},{value}\n"
            for ts, component, method, event, value in self._rows
        ])

    def write_to(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.render())


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


def parse_event_log(text: str) -> list[EventRow]:
    """Parse CSV text back into rows; errors carry 1-based row numbers."""
    rows = []
    for i, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        rows.append(parse_event_row(line, i))
    return rows
