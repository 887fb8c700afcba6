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


def _check(message: Message) -> None:
    kind, method, status = message.kind, message.method, message.status
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
    if not 0 <= message.request_id <= 0xFFFFFFFFFFFFFFFF:
        raise EncodeError("request_id out of u64 range")
    if len(message.metadata) > 0xFFFF:
        raise EncodeError("too many metadata pairs")
    for key, value in message.metadata:
        if not key or not key.isascii() or key != key.lower():
            raise EncodeError(f"metadata key must be non-empty lowercase ASCII: {key!r}")
        if not value.isascii():
            raise EncodeError(f"metadata value must be ASCII: {value!r}")
        if len(key) > 0xFFFF or len(value) > 0xFFFF:
            raise EncodeError("metadata pair too long")


# The fixed-size runs of the layout, packed and unpacked in one call each.
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_REQUEST_HEAD = struct.Struct(">IBH")  # length prefix, kind, method length
_RESPONSE_HEAD = struct.Struct(">IBBH")  # length prefix, kind, status, method length
_ID_AND_PAIRS = struct.Struct(">QH")  # request id, metadata pair count


def encode(message: Message) -> bytes:
    """Serialize one message to a frame, byte-exact per the layout above."""
    _check(message)
    method = message.method.encode("ascii")
    metadata = message.metadata
    payload = message.payload
    parts = [b"", method, _ID_AND_PAIRS.pack(message.request_id, len(metadata))]
    for key, value in metadata:
        kb = key.encode("ascii")
        vb = value.encode("ascii")
        parts += (_U16.pack(len(kb)), kb, _U16.pack(len(vb)), vb)
    parts.append(_U32.pack(len(payload)))
    parts.append(payload)
    request = message.kind == KIND_REQUEST
    # The body is everything after the length prefix.
    total = (3 if request else 4) + sum(map(len, parts))
    if total > MAX_FRAME_LEN:
        raise EncodeError("payload pushes frame past the 16 MiB cap")
    if request:
        parts[0] = _REQUEST_HEAD.pack(total, 0x00, len(method))
    else:
        parts[0] = _RESPONSE_HEAD.pack(total, 0x01, _STATUS_BYTE[message.status], len(method))  # type: ignore[index]
    return b"".join(parts)


def _short() -> TruncatedFrameError:
    return TruncatedFrameError("frame shorter than its declared field lengths")


def decode(data: bytes) -> Message:
    """Parse exactly one frame; trailing bytes are an error.

    One pass over the buffer: every length is validated against the
    frame before it is read, and the resulting message must satisfy the
    same invariants encode() enforces.
    """
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
    try:
        if pos + 2 > end:
            raise _short()
        stop = pos + 2 + _U16.unpack_from(data, pos)[0]
        if stop > end:
            raise _short()
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
    return _new(
        Message, (kind, method, bytes(data[pos + 4 : stop]), tuple(metadata), status, request_id)
    )
