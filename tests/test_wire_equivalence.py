"""The single-pass codec agrees with the two-pass reference on every input.

Messages come from tests/test_wire.py plus a seeded random set. For each
message both codecs must produce the same frame (or raise the same
exception class); for each frame, each truncation and each single-byte
mutation of it, both decoders must produce the same Message or raise the
same exception class.
"""

import random
import string

import reference_wire
from meshcache.wire import MAX_FRAME_LEN, Message, decode, encode

SEED = 20261018
RANDOM_MESSAGES = 500

# The messages tests/test_wire.py encodes, valid and invalid.
WIRE_TEST_MESSAGES = [
    Message.request("GetValue"),
    Message.response("GetValue", b"41", request_id=7),
    Message.error_response("GetValue", "boom"),
    Message.response(
        "GetValue",
        b"\x00\xffbinary",
        metadata=(("cache-control", "max-age=5"), ("x-trace", "abc")),
        request_id=123456789,
    ),
    Message.response("", b""),
    Message.request(""),
    Message("nonsense", "M"),
    Message.request("M", metadata=(("UPPER", "v"),)),
    Message.request("M", metadata=(("k", "café"),)),
    Message.request("has,comma"),
    Message.request("M", request_id=2**64),
    Message("request", "M", status="ok"),
    Message("response", "M", status=None),
    Message.request("M", payload=b"x" * MAX_FRAME_LEN),
    Message.response("GetValue", b"abc", metadata=(("k", "v"),), request_id=9),
    Message.request("M"),
    Message.response("M"),
    Message.request("MM"),
    Message.request("M", payload=b"abcd"),
]


def outcome(fn, arg):
    """fn(arg), or the class of the exception it raised."""
    try:
        return fn(arg)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc)


def random_text(rng, alphabet, max_len):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def random_message(rng):
    """Mostly valid messages, with an occasional broken field."""
    kind = rng.choice(["request", "response"])
    method = random_text(rng, string.ascii_letters + string.digits + "._/", 12)
    status = rng.choice(["ok", "error"]) if kind == "response" else None
    metadata = tuple(
        (
            random_text(rng, string.ascii_lowercase + "-", 8) or "k",
            random_text(rng, string.printable.strip(), 16),
        )
        for _ in range(rng.choice([0, 0, 1, 2, 3]))
    )
    payload = rng.randbytes(rng.choice([0, 1, 16, rng.randint(0, 64)]))
    request_id = rng.choice([0, 1, rng.getrandbits(16), rng.getrandbits(64)])
    broken = rng.random()
    if broken < 0.03:
        method = method + rng.choice([",", "\n", "é"])
    elif broken < 0.06 and metadata:
        metadata = metadata + (("Upper", "v"),)
    elif broken < 0.08:
        status = rng.choice([None, "ok", "maybe"])
    elif broken < 0.09:
        request_id = -1
    return Message(kind, method, payload, metadata, status, request_id)


def mutations(rng, frame):
    """Each single-byte mutation worth trying: a few values at every position."""
    for i, byte in enumerate(frame):
        values = {0x00, 0x01, 0x2C, 0x80, 0xFF, byte ^ 0x20, rng.randrange(256)}
        values.discard(byte)
        for value in values:
            yield frame[:i] + bytes([value]) + frame[i + 1 :]


def check_frame(rng, frame, exhaustive=False):
    assert outcome(decode, frame) == outcome(reference_wire.decode, frame)
    for cut in range(len(frame)):
        assert outcome(decode, frame[:cut]) == outcome(reference_wire.decode, frame[:cut])
    assert outcome(decode, frame + b"\x00") == outcome(reference_wire.decode, frame + b"\x00")
    if exhaustive:
        mutated = (
            frame[:i] + bytes([v]) + frame[i + 1 :]
            for i in range(len(frame))
            for v in range(256)
        )
    else:
        mutated = mutations(rng, frame)
    for candidate in mutated:
        assert outcome(decode, candidate) == outcome(reference_wire.decode, candidate), candidate


def test_encode_and_decode_agree_with_the_reference_on_the_wire_tests():
    rng = random.Random(SEED)
    for message in WIRE_TEST_MESSAGES:
        frame = outcome(encode, message)
        assert frame == outcome(reference_wire.encode, message)
        if isinstance(frame, bytes) and len(frame) < 1024:
            check_frame(rng, frame, exhaustive=True)


def test_encode_and_decode_agree_with_the_reference_on_random_messages():
    rng = random.Random(SEED)
    frames = 0
    for _ in range(RANDOM_MESSAGES):
        message = random_message(rng)
        frame = outcome(encode, message)
        assert frame == outcome(reference_wire.encode, message), message
        if isinstance(frame, bytes):
            frames += 1
            assert decode(frame) == message
            check_frame(rng, frame)
    assert frames > 0.8 * RANDOM_MESSAGES
