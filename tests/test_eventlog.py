"""CSV event log: rendering, parsing, record order, thread safety."""

import threading

import pytest

from meshcache.eventlog import EventLog, parse_event_log, parse_event_row


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
            log.record(base + i, "client", "GetValue", "ok")

    threads = [threading.Thread(target=spam, args=(i * 1000,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(log.rows()) == 2000
