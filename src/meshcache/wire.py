"""Unary request/response messages and their framed binary encoding.

Frame layout (all integers big-endian):

    u32  total remaining length (everything after these 4 bytes)
    u8   kind: 0x00 request, 0x01 response
    u8   status: 0x00 OK, 0x01 ERROR   (responses only)
    u16  method length, then method bytes (ASCII)
    u64  request id (echoed in responses)
    u16  metadata pair count; per pair: u16 key length + key bytes,
         u16 value length + value bytes
    u32  payload length, then payload bytes

Frames are capped at 16 MiB. The encoding is canonical: decode() rejects
anything encode() would not produce, so decode(encode(m)) == m and any
accepted byte string re-encodes to itself.

encode() and decode() remember the frames they have checked, in two small
bounded memos. A sidecar sends the same few frames again and again, each
differing from the last only in its request id, so a memo keyed on
everything but the id gives encode() the bytes around the id and decode()
the fields, with no field checked again; the id range is still checked on
every encode. A memo miss runs every check.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

MAX_FRAME_LEN = 16 * 1024 * 1024

KIND_REQUEST = "request"
KIND_RESPONSE = "response"

STATUS_OK = "ok"
STATUS_ERROR = "error"

_KIND_BYTE = {KIND_REQUEST: 0x00, KIND_RESPONSE: 0x01}
_STATUS_BYTE = {STATUS_OK: 0x00, STATUS_ERROR: 0x01}
_BYTE_STATUS = {v: k for k, v in _STATUS_BYTE.items()}


class EncodeError(ValueError):
    """Message violates a wire invariant; the message names the field."""


class DecodeError(ValueError):
    """Byte string is not a canonical frame."""


class TruncatedFrameError(DecodeError):
    pass


class OversizeFrameError(DecodeError):
    pass


class UnknownKindError(DecodeError):
    pass


class BadTextError(DecodeError):
    """Method or metadata bytes are not valid ASCII, or break CSV safety."""


class TrailingBytesError(DecodeError):
    pass


class Message(NamedTuple):
    """One unary request or response.

    metadata is an ordered tuple of (key, value) pairs; keys are lowercase
    ASCII. request_id is owned by the transport layer: links assign it on
    send and servers echo it, so application code can leave it at 0.

    A named tuple: immutable, as cheap to build as a tuple, and equal to
    the plain tuple of its fields. The builders below and decode() build
    it with tuple.__new__, skipping the field constructor's argument
    handling.
    """

    kind: str
    method: str
    payload: bytes = b""
    metadata: tuple[tuple[str, str], ...] = ()
    status: str | None = None
    request_id: int = 0

    @staticmethod
    def request(
        method: str,
        payload: bytes = b"",
        metadata: tuple[tuple[str, str], ...] = (),
        request_id: int = 0,
    ) -> "Message":
        return _new(Message, (KIND_REQUEST, method, payload, tuple(metadata), None, request_id))

    @staticmethod
    def response(
        method: str,
        payload: bytes = b"",
        metadata: tuple[tuple[str, str], ...] = (),
        status: str = STATUS_OK,
        request_id: int = 0,
    ) -> "Message":
        return _new(Message, (KIND_RESPONSE, method, payload, tuple(metadata), status, request_id))

    @staticmethod
    def error_response(method: str, detail: str, request_id: int = 0) -> "Message":
        return Message.response(
            method, detail.encode("ascii", "replace"), status=STATUS_ERROR, request_id=request_id
        )

    @property
    def is_request(self) -> bool:
        return self.kind == KIND_REQUEST

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def metadata_value(self, key: str) -> str | None:
        """First metadata value for key, or None."""
        for k, v in self.metadata:
            if k == key:
                return v
        return None

    def with_request_id(self, request_id: int) -> "Message":
        """Copy carrying request_id, as links tag requests and servers echo them."""
        kind, method, payload, metadata, status, _ = self
        return _new(Message, (kind, method, payload, metadata, status, request_id))

    def with_metadata(self, key: str, value: str) -> "Message":
        """Copy with any existing pairs for key dropped and (key, value) appended."""
        kind, method, payload, metadata, status, request_id = self
        if metadata:
            metadata = tuple(p for p in metadata if p[0] != key)
        return _new(
            Message, (kind, method, payload, metadata + ((key, value),), status, request_id)
        )


# Builds a Message from the tuple of its fields.
_new = tuple.__new__


def _method_ok(method: str) -> bool:
    return method.isascii() and "," not in method and "\n" not in method and "\r" not in method


def validate_method_name(method: str) -> None:
    """Reject method names that would break framing or CSV rows."""
    if not method:
        raise ValueError("method name must be non-empty")
    if not _method_ok(method):
        raise ValueError(f"method name must be ASCII without commas or newlines: {method!r}")


# The fixed-size runs of the layout, packed and unpacked in one call each.
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_REQUEST_HEAD = struct.Struct(">BH")  # kind, method length
_RESPONSE_HEAD = struct.Struct(">BBH")  # kind, status, method length
_ID_AND_PAIRS = struct.Struct(">QH")  # request id, metadata pair count

# The codec remembers the frames it has already checked, keyed on
# everything but the request id. A memo is cleared when it reaches
# _MEMO_ENTRIES entries, and a frame longer than _MEMO_FRAME_BYTES is never
# kept, so a peer cannot make the memos hold much memory. There is no lock:
# each memo operation is one dict operation on immutable keys and values,
# and threads that interleave can at worst clear a memo early or overshoot
# its bound by one entry each.
_MEMO_ENTRIES = 256
_MEMO_FRAME_BYTES = 256

# encode(): the message's fields but the request id -> the frame's bytes
# before and after the id.
_ENCODED_FRAMES: dict[tuple, tuple[bytes, bytes]] = {}
# decode(): the frame's bytes after the length prefix, less the 8 id bytes
# -> the message's fields but the request id.
_DECODED_FRAMES: dict[bytes, tuple] = {}


def _remember(memo: dict, key: object, value: object) -> None:
    """Keep key -> value, clearing a full memo first; an unhashable key is not kept."""
    if len(memo) >= _MEMO_ENTRIES:
        memo.clear()
    try:
        memo[key] = value
    except TypeError:
        pass


def encode(message: Message) -> bytes:
    """Serialize one message to a frame, byte-exact per the layout above.

    A frame encoded before with another request id is rebuilt from the
    bytes around its id; otherwise every field is checked. The request id
    is checked on every call.
    """
    kind, method, payload, metadata, status, request_id = message
    try:
        # A payload too long for the memo is not hashed.
        frame = _ENCODED_FRAMES.get(message[:5]) if len(payload) <= _MEMO_FRAME_BYTES else None
    except TypeError:  # an unhashable or unsized field
        frame = None
    if frame is not None:
        if not 0 <= request_id <= 0xFFFFFFFFFFFFFFFF:
            raise EncodeError("request_id out of u64 range")
        return frame[0] + _U64.pack(request_id) + frame[1]
    if kind not in _KIND_BYTE:
        raise EncodeError(f"kind must be request or response, got {kind!r}")
    if kind == KIND_REQUEST:
        if status is not None:
            raise EncodeError("status is only valid on responses")
        if not method:
            raise EncodeError("method must be non-empty for requests")
    elif status not in _STATUS_BYTE:
        raise EncodeError(f"status must be ok or error on responses, got {status!r}")
    if not _method_ok(method):
        raise EncodeError("method must be ASCII without commas or newlines")
    if len(method) > 0xFFFF:
        raise EncodeError("method too long")
    if not 0 <= request_id <= 0xFFFFFFFFFFFFFFFF:
        raise EncodeError("request_id out of u64 range")
    if len(metadata) > 0xFFFF:
        raise EncodeError("too many metadata pairs")
    raw = method.encode("ascii")
    if kind == KIND_REQUEST:
        head = _REQUEST_HEAD.pack(0x00, len(raw)) + raw
    else:
        head = _RESPONSE_HEAD.pack(0x01, _STATUS_BYTE[status], len(raw)) + raw  # type: ignore[index]
    # parts[0] becomes the length prefix once the body's length is known.
    parts = [b"", head, _U64.pack(request_id), _U16.pack(len(metadata))]
    for key, value in metadata:
        if not key or not key.isascii() or key != key.lower():
            raise EncodeError(f"metadata key must be non-empty lowercase ASCII: {key!r}")
        if not value.isascii():
            raise EncodeError(f"metadata value must be ASCII: {value!r}")
        if len(key) > 0xFFFF or len(value) > 0xFFFF:
            raise EncodeError("metadata pair too long")
        kb = key.encode("ascii")
        vb = value.encode("ascii")
        parts += (_U16.pack(len(kb)), kb, _U16.pack(len(vb)), vb)
    parts += (_U32.pack(len(payload)), payload)
    total = sum(map(len, parts))
    if total > MAX_FRAME_LEN:
        raise EncodeError("payload pushes frame past the 16 MiB cap")
    parts[0] = _U32.pack(total)
    frame = b"".join(parts)
    if total + 4 <= _MEMO_FRAME_BYTES:
        at = 4 + len(head)
        _remember(_ENCODED_FRAMES, message[:5], (frame[:at], frame[at + 8 :]))
    return frame


def _short() -> TruncatedFrameError:
    return TruncatedFrameError("frame shorter than its declared field lengths")


def decode(data: bytes) -> Message:
    """Parse exactly one frame; trailing bytes are an error.

    One pass over the buffer: every length is validated against the
    frame before it is read, and the resulting message must satisfy the
    same invariants encode() enforces. Once the head is read and the
    request id is known to lie inside the frame, a frame that differs
    from one decoded before only in its id takes that frame's fields,
    unchecked: the remembered frame passed every check, and any id is
    valid.
    """
    if type(data) is not bytes:
        data = bytes(data)
    size = len(data)
    if size < 4:
        raise TruncatedFrameError("missing frame length prefix")
    (total,) = _U32.unpack_from(data)
    if total > MAX_FRAME_LEN:
        raise OversizeFrameError(f"declared frame length {total} exceeds 16 MiB cap")
    end = 4 + total
    if size < end:
        raise TruncatedFrameError("frame body shorter than declared length")
    if size > end:
        raise TrailingBytesError("bytes present after the end of the frame")
    if end < 5:
        raise _short()
    kind_byte = data[4]
    if kind_byte == 0x00:
        kind, status, pos = KIND_REQUEST, None, 5
    elif kind_byte == 0x01:
        if end < 6:
            raise _short()
        status = _BYTE_STATUS.get(data[5])
        if status is None:
            raise DecodeError(f"unknown status byte 0x{data[5]:02x}")
        kind, pos = KIND_RESPONSE, 6
    else:
        raise UnknownKindError(f"unknown kind byte 0x{kind_byte:02x}")
    if pos + 2 > end:
        raise _short()
    stop = pos + 2 + _U16.unpack_from(data, pos)[0]
    if stop > end:
        raise _short()
    # None (never a key) stands for a frame too short to hold its id or
    # too long to remember.
    frame_key = None
    if end <= _MEMO_FRAME_BYTES and stop + 8 <= end:
        frame_key = data[4:stop] + data[stop + 8 :]
        fields = _DECODED_FRAMES.get(frame_key)
        if fields is not None:
            return _new(Message, fields + _U64.unpack_from(data, stop))
    try:
        method = data[pos + 2 : stop].decode("ascii")
        if not _method_ok(method):
            raise BadTextError("method contains a comma or newline")
        if kind_byte == 0x00 and not method:
            raise DecodeError("request method must be non-empty")
        pos = stop + 10
        if pos > end:
            raise _short()
        request_id, pair_count = _ID_AND_PAIRS.unpack_from(data, stop)
        metadata = []
        for _ in range(pair_count):
            if pos + 2 > end:
                raise _short()
            stop = pos + 2 + _U16.unpack_from(data, pos)[0]
            if stop > end:
                raise _short()
            key = data[pos + 2 : stop].decode("ascii")
            if stop + 2 > end:
                raise _short()
            pos = stop + 2 + _U16.unpack_from(data, stop)[0]
            if pos > end:
                raise _short()
            value = data[stop + 2 : pos].decode("ascii")
            if not key or key != key.lower():
                raise BadTextError(f"metadata key must be non-empty lowercase: {key!r}")
            metadata.append((key, value))
    except UnicodeDecodeError as exc:
        raise BadTextError("method or metadata is not ASCII") from exc
    if pos + 4 > end:
        raise _short()
    stop = pos + 4 + _U32.unpack_from(data, pos)[0]
    if stop > end:
        raise _short()
    if stop != end:
        raise DecodeError("declared frame length does not match field contents")
    fields = (kind, method, data[pos + 4 : stop], tuple(metadata), status)
    if frame_key is not None:
        _remember(_DECODED_FRAMES, frame_key, fields)
    return _new(Message, fields + (request_id,))
