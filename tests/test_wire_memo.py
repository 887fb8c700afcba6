"""The codec's two frame memos: bounded in entries and frame size, and never visible.

encode() and decode() remember checked frames, keyed on everything but the
request id. These tests run more distinct frames than a memo holds, so
frames are evicted and remembered again, and require the same frames,
messages and exception classes as tests/reference_wire.py throughout.
"""

import random

import pytest
import reference_wire
from meshcache import wire
from meshcache.wire import DecodeError, EncodeError, Message, decode, encode
from test_wire_equivalence import outcome

MEMOS = (wire._ENCODED_FRAMES, wire._DECODED_FRAMES)


def assert_memos_bounded():
    for memo in MEMOS:
        assert len(memo) <= wire._MEMO_ENTRIES
    # A frame is remembered without its 8 id bytes, and by decode() without
    # its 4-byte length prefix too.
    bound = wire._MEMO_FRAME_BYTES
    assert all(len(a) + 8 + len(b) <= bound for a, b in wire._ENCODED_FRAMES.values())
    assert all(len(key) + 12 <= bound for key in wire._DECODED_FRAMES)


def test_the_codec_agrees_with_the_reference_past_the_memo_bound():
    rng = random.Random(13)
    distinct = 3 * wire._MEMO_ENTRIES
    methods = [f"Method{i}" for i in range(distinct)]
    metadata = [(("cache-control", f"max-age={i}"),) for i in range(distinct)]
    # A few long-lived frames recur among the many, as a sidecar's would.
    messages = []
    for i in range(4 * distinct):
        n = i if i < distinct else rng.randrange(distinct)
        if rng.random() < 0.3:
            n = rng.randrange(4)
        if rng.random() < 0.5:
            messages.append(Message.request(methods[n], b"k%d" % i, request_id=i))
        else:
            status = rng.choice(["ok", "error"])
            messages.append(
                Message.response(methods[n], b"v", metadata[n], status=status, request_id=i)
            )
    cleared = [0, 0]
    for message in messages:
        before = [len(memo) for memo in MEMOS]
        frame = encode(message)
        assert frame == reference_wire.encode(message)
        assert decode(frame) == message == reference_wire.decode(frame)
        for i, memo in enumerate(MEMOS):
            cleared[i] += len(memo) < before[i]
        # A memo hit must not hide a broken field beside it.
        broken = message._replace(request_id=-1)
        assert outcome(encode, broken) is EncodeError
        cut = frame[:-1]
        assert outcome(decode, cut) == outcome(reference_wire.decode, cut)
        assert_memos_bounded()
    assert all(cleared), "a memo never reached its bound"


def test_frames_longer_than_the_bound_are_decoded_but_not_remembered():
    # A value is at most 65535 bytes long (u16 length), so the metadata
    # here is 17 of the longest values: over 1 MiB in all.
    long_value = "v" * 0xFFFF
    metadata = tuple((f"x-long-{i}", long_value) for i in range(17))
    message = Message.response("M" * 300, b"payload", metadata, request_id=5)
    frame = encode(message)
    assert len(frame) > 1024 * 1024
    assert frame == reference_wire.encode(message)
    assert decode(frame) == message == reference_wire.decode(frame)
    assert message[:5] not in wire._ENCODED_FRAMES
    for memo in MEMOS:
        assert long_value not in repr(list(memo.items()))
    assert_memos_bounded()


def test_a_frame_of_exactly_the_bound_is_remembered_and_one_byte_more_is_not():
    bound = wire._MEMO_FRAME_BYTES
    # prefix, kind and status, method, id, pair count, payload length
    fixed = 4 + 2 + 2 + 1 + 8 + 2 + 4
    for size, kept in ((bound, True), (bound + 1, False)):
        message = Message.response("M", b"p" * (size - fixed), request_id=3)
        frame = encode(message)
        assert len(frame) == size
        assert (message[:5] in wire._ENCODED_FRAMES) is kept
        assert decode(frame) == message
        at = _id_at(message)
        assert (frame[4:at] + frame[at + 8 :] in wire._DECODED_FRAMES) is kept
    assert_memos_bounded()


def test_unhashable_fields_are_checked_and_encoded_without_being_remembered():
    for memo in MEMOS:
        memo.clear()
    listed = Message("response", "M", b"", [["k", "v"]], "ok", 1)
    assert encode(listed) == reference_wire.encode(listed)
    assert not wire._ENCODED_FRAMES
    assert outcome(encode, listed._replace(metadata=[["K", "v"]])) is EncodeError
    assert outcome(encode, listed._replace(method=["M"])) == outcome(
        reference_wire.encode, listed._replace(method=["M"])
    )


def test_a_byte_array_decodes_as_its_bytes():
    frame = encode(Message.response("M", b"x", (("k", "v"),), request_id=3))
    assert decode(bytearray(frame)) == decode(frame) == reference_wire.decode(bytearray(frame))
    with pytest.raises(DecodeError):
        decode(bytearray(frame[:-1]))


def _id_at(message):
    """Where a frame of message holds its request id."""
    return 4 + (1 if message.is_request else 2) + 2 + len(message.method)


def _with_id(frame, at, request_id):
    return frame[:at] + request_id.to_bytes(8, "big") + frame[at + 8 :]


def _prefixed(body):
    """body under a length prefix that matches it."""
    return len(body).to_bytes(4, "big") + body


REMEMBERED = (
    Message.request("GetValue", b"key", request_id=7),
    Message.request("SetValue", b"w0-1", (("x-hop", "cache"),), request_id=7),
    Message.response("GetValue", b"value", (("cache-control", "max-age=5"),), request_id=7),
    Message.response("GetValue", b"bad", status="error", request_id=7),
)


@pytest.mark.parametrize("message", REMEMBERED, ids=lambda m: f"{m.kind}-{m.status}-{m.method}")
def test_a_remembered_frame_with_another_id_is_taken_from_the_frame_memo(message, monkeypatch):
    frame = encode(message)
    assert decode(frame) == message
    at = _id_at(message)
    stores = []
    # Only a memo miss stores; a hit returns before it.
    monkeypatch.setattr(wire, "_remember", lambda memo, key, value: stores.append(key))
    for request_id in (0, 1, 8, 2**32, 2**64 - 1):
        tagged = message._replace(request_id=request_id)
        variant = encode(tagged)
        assert variant == _with_id(frame, at, request_id) == reference_wire.encode(tagged)
        assert decode(variant) == tagged == reference_wire.decode(variant)
    assert stores == []
    # The id range is checked on every encode, a hit or not.
    for request_id in (-1, 2**64, "1"):
        broken = message._replace(request_id=request_id)
        assert outcome(encode, broken) is outcome(reference_wire.encode, broken)
        assert outcome(encode, broken) in (EncodeError, TypeError)


@pytest.mark.parametrize("message", REMEMBERED, ids=lambda m: f"{m.kind}-{m.status}-{m.method}")
def test_a_frame_that_differs_outside_its_id_decodes_as_the_reference_decodes_it(message):
    frame = encode(message)
    at = _id_at(message)
    body = frame[4:]
    variants = []
    for i in range(len(frame)):
        if at <= i < at + 8:
            continue
        variants += (frame[:i] + bytes([b]) + frame[i + 1 :] for b in range(256) if b != frame[i])
    for n in range(len(frame)):
        variants += (frame[:n], _prefixed(body[: max(0, n - 4)]))
    for b in range(256):
        variants += (frame + bytes([b]), _prefixed(body + bytes([b])))
    decoded = 0
    for variant in variants:
        decode(frame)  # remembered, even if a variant filled the memo
        expected = outcome(reference_wire.decode, variant)
        assert outcome(decode, variant) == expected, variant
        decoded += isinstance(expected, Message)
        assert_memos_bounded()
    # Changes in payload bytes, and in letters of the method, still decode.
    assert decoded > 0
