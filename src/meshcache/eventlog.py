"""Append-only CSV event log shared by the sidecars and workload actors.

Row format, one event per line:

    <nanos>,<component>,<method>,<event>,<value>

value may be empty (cache hit/miss rows leave it blank). Each row is an
EventRow, a named tuple: the log holds one per event, so it is kept as
small and as cheap to build as a tuple (and compares equal to the plain
tuple of its fields). The log is an in-memory list guarded by a lock so
actors on different threads (the TCP backend) can interleave safely; the
virtual backend is single-threaded and pays only the lock overhead.
"""

from __future__ import annotations

import threading
from typing import NamedTuple


class EventRow(NamedTuple):
    timestamp_ns: int
    component: str
    method: str
    event: str
    value: str = ""

    def render(self) -> str:
        return (
            f"{self.timestamp_ns},{self.component},{self.method},"
            f"{self.event},{self.value}"
        )


class EventLog:
    """Thread-safe in-memory event sink."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rows: list[EventRow] = []

    def record(
        self,
        timestamp_ns: int,
        component: str,
        method: str,
        event: str,
        value: str = "",
    ) -> None:
        row = EventRow(timestamp_ns, component, method, event, value)
        with self._lock:
            self._rows.append(row)

    def rows(self) -> list[EventRow]:
        with self._lock:
            return list(self._rows)

    def render(self) -> str:
        """Whole log as CSV text, rows sorted by timestamp (stable)."""
        rows = sorted(self.rows(), key=lambda r: r.timestamp_ns)
        return "".join(row.render() + "\n" for row in rows)

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
