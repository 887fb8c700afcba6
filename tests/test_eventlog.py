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


def test_a_row_holds_no_timestamp_int():
    # Each row stamped with a fresh int, as a run's clock makes one per
    # request: a row is one 12-byte record, and the int is freed once it is
    # recorded. Kept as a slot it cost 52 B a row.
    n = 30_000
    log = EventLog()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            log.record(1_800_000_000_000 + i * 1_000_003, "client", "GetValue", "ok")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log.rows()) == n
    assert held / n <= 16, f"{held / n:.1f} B per row"


def test_more_kinds_than_a_16_bit_index_holds_round_trip(tmp_path):
    n = 70_000  # past 65,536, so no kind index fits in 16 bits
    log = EventLog()
    for i in range(n):
        log.record(i, "estimator", "GetValue", "estimate", str(i))
    log.record(n, "estimator", "GetValue", "estimate", "0")  # a kind seen before
    assert len(log.kinds()) == n
    path = tmp_path / "events.csv"
    log.write_to(path)
    rows = parse_event_log(path.read_text(encoding="ascii"))
    assert rows == log.rows()
    assert [r.value for r in rows] == [str(i) for i in range(n)] + ["0"]
    assert [r.timestamp_ns for r in rows] == list(range(n + 1))


def test_the_int64_extremes_round_trip(tmp_path):
    log = EventLog()
    for ts in (0, 2**63 - 1, 1, 2**63 - 2):
        log.record(ts, "cache", "GetValue", "miss")
    path = tmp_path / "events.csv"
    log.write_to(path)
    rows = parse_event_log(path.read_text(encoding="ascii"))
    assert [r.timestamp_ns for r in rows] == [0, 2**63 - 1, 1, 2**63 - 2]
    assert rows == log.rows()


@pytest.mark.parametrize(
    "timestamp_ns, error, fragment",
    [
        (2**63, ValueError, "outside int64"),
        (-(2**63) - 1, ValueError, "outside int64"),
        (10**30, ValueError, "outside int64"),
        (1.0, TypeError, "must be an int, got float"),
        ("5", TypeError, "must be an int, got str"),
        (None, TypeError, "must be an int, got NoneType"),
        (-1, ValueError, "timestamp_ns -1 is negative"),
        (-5, ValueError, "timestamp_ns -5 is negative"),
    ],
)
def test_record_refuses_a_timestamp_it_cannot_pack(timestamp_ns, error, fragment):
    log = EventLog()
    log.record(7, "cache", "GetValue", "hit")
    with pytest.raises(error, match=fragment):
        log.record(timestamp_ns, "cache", "GetValue", "hit")
    # Nothing of a refused row is kept: not wrapped, not half written, and
    # not its kind when it would have been the first of that kind.
    with pytest.raises(error, match=fragment):
        log.record(timestamp_ns, "cache", "GetValue", "miss")
    assert log.rows() == [(7, "cache", "GetValue", "hit", "")]
    assert log.kinds() == [("cache", "GetValue", "hit", "")]
    log.record(8, "cache", "GetValue", "miss")
    assert log.render() == "7,cache,GetValue,hit,\n8,cache,GetValue,miss,\n"


def test_every_reader_gives_the_rows_as_recorded():
    log = realistic_log(3 * WRITE_BLOCK_ROWS + 5)
    rows = log.rows()
    kinds = log.kinds()
    assert [(ts, kinds[code]) for ts, code in log.stamped_codes()] == [
        (r.timestamp_ns, tuple(r[1:])) for r in rows
    ]
    assert len(kinds) == 3 and kinds[0] == ("client", "GetValue", "ok", "")
