"""Per-request records: immutable named tuples whose fast builders match the field constructor."""

import re
from pathlib import Path

import pytest

from meshcache.cache import CacheEntry
from meshcache.effects import Call, DirectLink, Sleep
from meshcache.eventlog import EventLog, EventRow
from meshcache.ttl import ObservationHistory, empty_history, observe
from meshcache.wire import (
    KIND_REQUEST,
    KIND_RESPONSE,
    STATUS_ERROR,
    STATUS_OK,
    Message,
    decode,
    encode,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "meshcache"

RESPONSE = Message.response("GetValue", b"41", (("cache-control", "max-age=5"),), request_id=7)
RECORDS = [
    (RESPONSE, "payload", b"x"),
    (Sleep(5), "duration_ns", 6),
    (Call(DirectLink(lambda m: m), RESPONSE), "message", RESPONSE),
    (CacheEntry(RESPONSE, 10), "expires_at_ns", 11),
    (ObservationHistory(2, b"d", (1, 2), 3), "last_touched", 4),
]


@pytest.mark.parametrize("record, name, value", RECORDS, ids=lambda r: type(r).__name__)
def test_assigning_a_field_raises(record, name, value):
    before = tuple(record)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.extra = value  # no instance dict either
    assert tuple(record) == before


@pytest.mark.parametrize("record, name, value", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_tuples_of_their_fields(record, name, value):
    # Unlike the frozen dataclasses they replace, they iterate and equal
    # the plain tuple of their fields.
    assert record == tuple(record)
    assert list(record) == [getattr(record, f) for f in type(record)._fields]


def same_value(fast, reference):
    assert type(fast) is type(reference)
    assert fast == reference
    assert repr(fast) == repr(reference)
    assert hash(fast) == hash(reference)


def test_message_builders_match_the_field_constructor():
    meta = (("cache-control", "max-age=5"), ("x-trace", "abc"))
    same_value(Message.request("GetValue"), Message(KIND_REQUEST, "GetValue"))
    same_value(
        Message.request("SetValue", b"7", list(meta), request_id=3),
        Message(KIND_REQUEST, "SetValue", b"7", meta, None, 3),
    )
    same_value(
        Message.response("GetValue", b"41", meta, request_id=9),
        Message(kind=KIND_RESPONSE, method="GetValue", payload=b"41", metadata=meta,
                status=STATUS_OK, request_id=9),
    )
    same_value(
        Message.error_response("GetValue", "boom", 4),
        Message(KIND_RESPONSE, "GetValue", b"boom", (), STATUS_ERROR, 4),
    )
    same_value(RESPONSE.with_request_id(11), RESPONSE._replace(request_id=11))
    same_value(
        RESPONSE.with_metadata("cache-control", "max-age=0"),
        RESPONSE._replace(metadata=(("cache-control", "max-age=0"),)),
    )
    bare = Message.response("GetValue")
    same_value(
        bare.with_metadata("a", "1"),
        Message(KIND_RESPONSE, "GetValue", b"", (("a", "1"),), STATUS_OK),
    )
    assert bare.metadata == ()  # the copy does not touch the original
    for message in (Message.request("M", b"p", meta, 2**64 - 1), Message.error_response("", "x")):
        same_value(decode(encode(message)), message)
    same_value(decode(encode(RESPONSE)), RESPONSE)


def test_event_log_rows_match_the_field_constructor():
    log = EventLog()
    log.record(5, "estimator", "GetValue", "estimate", "3")
    log.record(6, "cache", "GetValue", "hit")
    first, second = log.rows()
    same_value(first, EventRow(5, "estimator", "GetValue", "estimate", "3"))
    same_value(
        second, EventRow(timestamp_ns=6, component="cache", method="GetValue", event="hit")
    )


def test_histories_from_observe_match_the_validating_constructor():
    h = empty_history(2)
    same_value(h, ObservationHistory(history_depth=2))
    h = observe(h, 10, b"a")
    same_value(h, ObservationHistory(2, b"a", (10,), 10))
    h = observe(h, 12, b"a")
    same_value(h, ObservationHistory(2, b"a", (10,), 12))
    h = observe(observe(h, 15, b"b"), 15, b"c")
    same_value(h, ObservationHistory(2, b"c", (15, 15), 15))


def test_observe_validates_what_it_builds():
    # _make skips the checks; observe() builds through the constructor,
    # so a history that slipped past them is refused at the next step.
    with pytest.raises(ValueError, match="history_depth"):
        observe(ObservationHistory._make((0, None, (), None)), 1, b"a")
    with pytest.raises(ValueError, match="non-decreasing"):
        observe(ObservationHistory._make((2, b"a", (5, 3), None)), 6, b"a")
    with pytest.raises(ValueError, match="history_depth"):
        empty_history(0)


def test_no_source_builds_a_history_past_its_checks():
    bypass = re.compile(
        r"ObservationHistory\._make|\._replace\(|(?:tuple\.__new__|\b_new)\(\s*ObservationHistory"
    )
    offenders = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if bypass.search(line)
    ]
    assert offenders == []
