"""CSV event log: rendering, parsing, record order, thread safety, memory."""

import sys
import threading
import tracemalloc

import pytest

from meshcache.eventlog import WRITE_BLOCK_ROWS, EventLog, parse_event_log, parse_event_row


def test_row_renders_five_fields_with_trailing_value():
    log = EventLog()
    log.record(1500000000, "cache", "GetValue", "hit")
    log.record(2, "estimator", "GetValue", "estimate", "5")
    assert log.render() == (
        "1500000000,cache,GetValue,hit,\n"
        "2,estimator,GetValue,estimate,5\n"
    )


def test_render_writes_rows_in_record_order():
    log = EventLog()
    log.record(20, "cache", "GetValue", "miss")
    log.record(10, "client", "GetValue", "ok")
    log.record(20, "estimator", "GetValue", "estimate", "3")
    assert log.render().splitlines() == [
        "20,cache,GetValue,miss,",
        "10,client,GetValue,ok,",
        "20,estimator,GetValue,estimate,3",
    ]
    assert [row.timestamp_ns for row in log.rows()] == [20, 10, 20]


def test_parse_roundtrips_render():
    log = EventLog()
    log.record(1, "cache", "GetValue", "miss")
    log.record(2, "client", "SetValue", "ok")
    log.record(3, "estimator", "GetValue", "estimate", "0")
    assert parse_event_log(log.render()) == log.rows()


def test_parse_skips_blank_lines():
    rows = parse_event_log("\n1,c,m,e,\n\n2,c,m,e,v\n\n")
    assert [r.timestamp_ns for r in rows] == [1, 2]


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("1,c,m,e", "5 comma-separated fields"),
        ("1,c,m,e,v,extra", "5 comma-separated fields"),
        ("abc,c,m,e,", "bad timestamp"),
        ("-5,c,m,e,", "negative timestamp"),
        ("1,,m,e,", "empty"),
        ("1,c,,e,", "empty"),
        ("1,c,m,,", "empty"),
    ],
)
def test_parse_rejects_malformed_rows(line, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_event_row(line, 1)


def test_parse_errors_carry_the_row_number():
    text = "1,c,m,e,\nnot-a-row\n"
    with pytest.raises(ValueError, match="row 2"):
        parse_event_log(text)


def test_write_to_file(tmp_path):
    log = EventLog()
    log.record(7, "cache", "GetValue", "hit")
    path = tmp_path / "events.csv"
    log.write_to(path)
    assert path.read_text() == "7,cache,GetValue,hit,\n"


def test_concurrent_recording_loses_nothing():
    log = EventLog()

    def spam(base):
        for i in range(500):
            log.record(base + i, "client", "GetValue", "ok", str(base))

    threads = [threading.Thread(target=spam, args=(i * 1000,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    rows = log.rows()
    assert len(rows) == 2000
    # A row's five slots are appended in one step, so no row mixes the
    # fields of two threads' rows.
    assert all(row.value == str(row.timestamp_ns // 1000 * 1000) for row in rows)
    assert sorted(row.timestamp_ns for row in rows) == [
        base + i for base in range(0, 4000, 1000) for i in range(500)
    ]


def realistic_log(n):
    """n rows shaped like a run's: 1800 s nanosecond stamps, the three components."""
    shapes = [
        ("client", "GetValue", "ok", ""),
        ("cache", "GetValue", "miss", ""),
        ("estimator", "GetValue", "estimate", "12"),
    ]
    log = EventLog()
    for i in range(n):
        log.record(1_800_000_000_000 + i * 1_000_003, *shapes[i % 3])
    return log


def test_a_log_of_several_blocks_writes_what_render_and_rows_give(tmp_path):
    log = EventLog()
    n = 2 * WRITE_BLOCK_ROWS + 3
    for i in range(n):
        # Empty and non-empty values alternate, so each block boundary
        # falls between rows of both kinds.
        log.record(i, "cache", "GetValue", "hit", str(i) if i % 2 else "")
    path = tmp_path / "events.csv"
    log.write_to(path)
    text = path.read_text(encoding="ascii")
    rows = log.rows()
    assert len(rows) == n
    assert text == log.render()
    assert text == "".join(f"{r.timestamp_ns},{r.component},{r.method},{r.event},{r.value}\n"
                           for r in rows)
    for i in (WRITE_BLOCK_ROWS - 1, WRITE_BLOCK_ROWS, 2 * WRITE_BLOCK_ROWS):
        assert rows[i] == (i, "cache", "GetValue", "hit", str(i) if i % 2 else "")
    assert parse_event_log(text) == rows


def test_an_empty_log_writes_an_empty_file(tmp_path):
    log = EventLog()
    log.write_to(tmp_path / "events.csv")
    assert (tmp_path / "events.csv").read_bytes() == b""
    assert log.render() == "" and log.rows() == []


def test_writing_a_log_holds_a_block_not_the_file(tmp_path):
    # A log written in one piece holds every row's line, their join and its
    # encoding at once: over three times the file's size. Block by block
    # the peak is one block's worth.
    log = realistic_log(50_000)
    path = tmp_path / "events.csv"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        log.write_to(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 1_500_000
    assert peak < size / 2, f"write_to peaked at {peak} B for a {size} B file"


def test_a_row_costs_no_object_of_its_own():
    # Fields built beforehand, as a run's clock and interned names are, so
    # what is traced is the log's own storage: two references a row, its
    # timestamp and its kind, which every row of that kind shares. Five
    # references a row cost 40 B, and a tuple per row 88 B.
    n = 30_000
    stamps = list(range(10**12, 10**12 + n))
    log = EventLog()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for ts in stamps:
            log.record(ts, "estimator", "GetValue", "estimate", "12")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log.rows()) == n
    assert held / n < 24, f"{held / n:.1f} B per row"
