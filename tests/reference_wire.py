"""The two-pass frame codec that meshcache.wire's single-pass one must agree with.

This is encode()/decode() as they were before the codec was rewritten
around precompiled structs: encode() checks the message and then packs
one field at a time, and decode() reads each field through a small
cursor object. Tests run both codecs on the same messages and frames and
require the same bytes, the same Message, or the same exception class.
"""

from __future__ import annotations

import struct

from meshcache.wire import (
    KIND_REQUEST,
    KIND_RESPONSE,
    MAX_FRAME_LEN,
    STATUS_ERROR,
    STATUS_OK,
    BadTextError,
    DecodeError,
    EncodeError,
    Message,
    OversizeFrameError,
    TrailingBytesError,
    TruncatedFrameError,
    UnknownKindError,
)

_KIND_BYTE = {KIND_REQUEST: 0x00, KIND_RESPONSE: 0x01}
_STATUS_BYTE = {STATUS_OK: 0x00, STATUS_ERROR: 0x01}
_BYTE_KIND = {v: k for k, v in _KIND_BYTE.items()}
_BYTE_STATUS = {v: k for k, v in _STATUS_BYTE.items()}


def _method_ok(method: str) -> bool:
    return method.isascii() and "," not in method and "\n" not in method and "\r" not in method


def _check(message: Message) -> None:
    if message.kind not in _KIND_BYTE:
        raise EncodeError(f"kind must be request or response, got {message.kind!r}")
    if message.is_request:
        if message.status is not None:
            raise EncodeError("status is only valid on responses")
        if not message.method:
            raise EncodeError("method must be non-empty for requests")
    else:
        if message.status not in _STATUS_BYTE:
            raise EncodeError(f"status must be ok or error on responses, got {message.status!r}")
    if not _method_ok(message.method):
        raise EncodeError("method must be ASCII without commas or newlines")
    if len(message.method) > 0xFFFF:
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


def encode(message: Message) -> bytes:
    """Serialize one message to a frame, byte-exact per the layout above."""
    _check(message)
    parts = [b"", bytes([_KIND_BYTE[message.kind]])]
    if not message.is_request:
        parts.append(bytes([_STATUS_BYTE[message.status]]))  # type: ignore[index]
    method_bytes = message.method.encode("ascii")
    parts.append(struct.pack(">H", len(method_bytes)))
    parts.append(method_bytes)
    parts.append(struct.pack(">Q", message.request_id))
    parts.append(struct.pack(">H", len(message.metadata)))
    for key, value in message.metadata:
        kb = key.encode("ascii")
        vb = value.encode("ascii")
        parts.append(struct.pack(">H", len(kb)))
        parts.append(kb)
        parts.append(struct.pack(">H", len(vb)))
        parts.append(vb)
    parts.append(struct.pack(">I", len(message.payload)))
    parts.append(message.payload)
    body = b"".join(parts)
    if len(body) > MAX_FRAME_LEN:
        raise EncodeError("payload pushes frame past the 16 MiB cap")
    return struct.pack(">I", len(body)) + body


class _Reader:
    __slots__ = ("buf", "pos", "end")

    def __init__(self, buf: bytes, start: int, end: int) -> None:
        self.buf = buf
        self.pos = start
        self.end = end

    def take(self, n: int) -> bytes:
        if self.pos + n > self.end:
            raise TruncatedFrameError("frame shorter than its declared field lengths")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")


def _ascii(raw: bytes, what: str) -> str:
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise BadTextError(f"{what} is not ASCII") from exc
    return text


def decode(data: bytes) -> Message:
    """Parse exactly one frame; trailing bytes are an error.

    Every length is validated against the buffer before reading, and the
    resulting message must satisfy the same invariants encode() enforces.
    """
    if len(data) < 4:
        raise TruncatedFrameError("missing frame length prefix")
    total = int.from_bytes(data[:4], "big")
    if total > MAX_FRAME_LEN:
        raise OversizeFrameError(f"declared frame length {total} exceeds 16 MiB cap")
    if len(data) < 4 + total:
        raise TruncatedFrameError("frame body shorter than declared length")
    if len(data) > 4 + total:
        raise TrailingBytesError("bytes present after the end of the frame")

    r = _Reader(data, 4, 4 + total)
    kind_byte = r.u8()
    if kind_byte not in _BYTE_KIND:
        raise UnknownKindError(f"unknown kind byte 0x{kind_byte:02x}")
    kind = _BYTE_KIND[kind_byte]
    status: str | None = None
    if kind == KIND_RESPONSE:
        status_byte = r.u8()
        if status_byte not in _BYTE_STATUS:
            raise DecodeError(f"unknown status byte 0x{status_byte:02x}")
        status = _BYTE_STATUS[status_byte]
    method = _ascii(r.take(r.u16()), "method")
    if not _method_ok(method):
        raise BadTextError("method contains a comma or newline")
    if kind == KIND_REQUEST and not method:
        raise DecodeError("request method must be non-empty")
    request_id = r.u64()
    pair_count = r.u16()
    metadata = []
    for _ in range(pair_count):
        key = _ascii(r.take(r.u16()), "metadata key")
        value = _ascii(r.take(r.u16()), "metadata value")
        if not key or key != key.lower():
            raise BadTextError(f"metadata key must be non-empty lowercase: {key!r}")
        metadata.append((key, value))
    payload = bytes(r.take(r.u32()))
    if r.pos != r.end:
        raise DecodeError("declared frame length does not match field contents")
    return Message(kind, method, payload, tuple(metadata), status, request_id)
