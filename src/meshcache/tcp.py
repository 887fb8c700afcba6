"""Framed TCP backend: a threaded unary server and a blocking client link.

One frame per unary message (see wire.py). Connections carry frames
sequentially; the server answers each request before reading the next one
on that connection, while separate connections are served concurrently.
Request ids are assigned per link and echoed by the server so a response
can be matched even when a handler returns a stored (cached) message.
"""

from __future__ import annotations

import socket
import struct
import threading
from typing import Generator

from .clock import Clock, SystemClock
from .effects import Call, Handler, TransportError, drive, invoke_handler
from .wire import MAX_FRAME_LEN, DecodeError, Message, OversizeFrameError, decode, encode


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("peer closed the connection")
        buf.extend(chunk)
    return bytes(buf)


def _recv_frame(sock: socket.socket) -> bytes:
    prefix = _recv_exact(sock, 4)
    (total,) = struct.unpack(">I", prefix)
    # decode() re-checks the cap; reject before allocating for huge lies.
    if total > MAX_FRAME_LEN:
        raise OversizeFrameError(f"declared frame length {total} exceeds {MAX_FRAME_LEN} byte cap")
    return prefix + _recv_exact(sock, total)


class ServerHandle:
    """Running server; close() stops accepting and drops open connections."""

    def __init__(self, listener: socket.socket, handler: Handler, clock: Clock) -> None:
        self._listener = listener
        self._handler = handler
        self._clock = clock
        self._conns: set[socket.socket] = set()
        self._lock = threading.Lock()
        self._closed = False
        self.address: tuple[str, int] = listener.getsockname()[:2]
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._conns.add(conn)
            threading.Thread(target=self._serve_conn, args=(conn,), daemon=True).start()

    def _serve_conn(self, conn: socket.socket) -> None:
        try:
            while True:
                try:
                    raw = _recv_frame(conn)
                except (ConnectionError, OSError):
                    return
                except DecodeError:
                    # Oversize length prefix: drop the connection rather than
                    # trust the declared length enough to even read it out.
                    return
                try:
                    request = decode(raw)
                except DecodeError as exc:
                    reply = Message.error_response("", f"bad frame: {exc}")
                    conn.sendall(encode(reply))
                    continue
                if not request.is_request:
                    reply = Message.error_response(
                        request.method, "expected a request frame", request.request_id
                    )
                else:
                    reply = drive(invoke_handler(self._handler, request), self._clock)
                    reply = reply.with_request_id(request.request_id)
                try:
                    conn.sendall(encode(reply))
                except OSError:
                    return
        finally:
            with self._lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        self._closed = True
        # close() alone leaves a thread blocked in accept() asleep for good;
        # shutdown() wakes it with an error.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def serve(
    handler: Handler,
    host: str = "127.0.0.1",
    port: int = 0,
    clock: Clock | None = None,
) -> ServerHandle:
    """Bind and start serving; returns immediately with the bound address.

    Handlers follow the effects.py contract: plain function or effect
    generator; exceptions surface to the client as ERROR responses and the
    connection survives.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen(64)
    handle = ServerHandle(listener, handler, clock or SystemClock())
    handle._accept_thread.start()
    return handle


class TcpLink:
    """Blocking link over one TCP connection.

    exchange() yields one Call effect, which drive() performs with send().
    send() is serialized with an internal lock so a link instance can be
    shared by the threads of one component; each call gets a fresh request
    id and the response id must match.
    """

    def __init__(self, address: tuple[str, int], timeout_s: float = 10.0) -> None:
        self._address = address
        self._timeout_s = timeout_s
        self._sock: socket.socket | None = None
        self._next_id = 1
        self._lock = threading.Lock()

    def _connect(self) -> socket.socket:
        if self._sock is None:
            try:
                sock = socket.create_connection(self._address, timeout=self._timeout_s)
            except OSError as exc:
                raise TransportError(f"connect to {self._address} failed: {exc}") from exc
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def exchange(self, request: Message) -> Generator:
        return (yield Call(self, request))

    def send(self, request: Message) -> Message:
        if not request.is_request:
            raise ValueError("links only send requests")
        with self._lock:
            request_id = self._next_id
            self._next_id += 1
            tagged = request.with_request_id(request_id)
            try:
                sock = self._connect()
                sock.sendall(encode(tagged))
                raw = _recv_frame(sock)
            except (OSError, ConnectionError) as exc:
                self._drop()
                raise TransportError(f"round trip to {self._address} failed: {exc}") from exc
            try:
                response = decode(raw)
            except DecodeError as exc:
                self._drop()
                raise TransportError(f"peer sent a bad frame: {exc}") from exc
            if response.is_request or response.request_id != request_id:
                self._drop()
                raise TransportError("response does not match the request id")
            return response

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        with self._lock:
            self._drop()

    def __enter__(self) -> "TcpLink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
