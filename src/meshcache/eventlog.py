"""Append-only CSV event log shared by the sidecars and workload actors.

Row format, one event per line:

    <nanos>,<component>,<method>,<event>,<value>

value may be empty (cache hit/miss rows leave it blank). A row is an
EventRow, a named tuple, but the log keeps no object per row: it holds
one flat list with five slots per row, the row's fields in order. A run
records one row per event, and a flat list costs five references a row
where a tuple per row costs a tuple header as well. It also leaves the
cyclic garbage collector nothing per row to track: the rows' fields are
ints and strings, which it never traverses. rows() hands the rows out as
EventRows; iterating the log yields the plain tuple of each row's
fields, for a fold that unpacks them by position. The log has no lock:
both backends run every component that records on one thread (the
virtual scheduler's, or the TCP backend's loop), and callers read the
rows once the run has ended.

Rows stay in record order, which is timestamp order: every component
stamps a row with a read of the run's one monotonic clock made just
before it records, on that one thread, so no row can carry an earlier
time than one recorded before it. rows(), iteration and render() hand
them out as recorded, with no sort.

write_to() formats and writes WRITE_BLOCK_ROWS rows at a time, so writing
a log holds one block's text at once, not the whole file's; render()
joins the same blocks.
"""

from __future__ import annotations

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

# The plain tuple of an EventRow's fields, as iterating the log yields it.
RowFields = tuple[int, str, str, str, str]

# Rows formatted and written per block: about 150 KB of text at the
# harness's row widths.
WRITE_BLOCK_ROWS = 4096


class EventLog:
    """In-memory event sink."""

    def __init__(self) -> None:
        # Five slots per row: timestamp_ns, component, method, event, value.
        self._rows: list[int | str] = []

    def record(
        self,
        timestamp_ns: int,
        component: str,
        method: str,
        event: str,
        value: str = "",
    ) -> None:
        self._rows += (timestamp_ns, component, method, event, value)

    def rows(self) -> list[EventRow]:
        return [_new(EventRow, row) for row in self]

    def __iter__(self) -> Iterator[RowFields]:
        fields = iter(self._rows)
        return zip(fields, fields, fields, fields, fields)

    def _blocks(self) -> Iterator[str]:
        """CSV text of up to WRITE_BLOCK_ROWS rows at a time, in record order."""
        rows = iter(self)
        while block := "".join([
            f"{ts},{component},{method},{event},{value}\n"
            for ts, component, method, event, value in islice(rows, WRITE_BLOCK_ROWS)
        ]):
            yield block

    def render(self) -> str:
        """Whole log as CSV text, one line per row in record order."""
        return "".join(self._blocks())

    def write_to(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for block in self._blocks():
                fh.write(block)


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
