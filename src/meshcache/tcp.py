"""Framed TCP backend: one selector loop per process, and a blocking client link.

One frame per unary message (see wire.py). The first serve() starts the
process's loop, a daemon thread running one `selectors` loop, and every
server, link and real-clock actor of the process runs on it without
blocking. A served connection starts a task, invoke_handler(handler,
request), for each request frame as the frame arrives, and answers each
task when it finishes, tagged with that request's id; so the replies on
one connection may come out of order.

The loop interprets both effects, Sleep and Call. Sleep is a timer on
the system clock. Call(link, request) assigns the link's next request id,
queues the frame on the link's own non-blocking connection and parks the
task under that id until the response carrying it arrives, so the
requests a link has in flight share one connection. A peer close, a bad
frame or a request older than the link's timeout fails every request in
flight on that link with TransportError, and the next exchange
reconnects.

A connection sends once per loop turn. Writing a frame appends it to the
connection's buffer; after the turn's socket callbacks, timers and
handed-in callbacks, and before the loop selects again, each connection
written to sends its buffer with one send(). So the frames a turn writes
to one connection leave together, as Nagle's algorithm would coalesce
them in the kernel had TCP_NODELAY not turned it off. What the socket
does not take waits for EVENT_WRITE. A close first tries one
non-blocking send of what is buffered, so a frame written in the same
turn as the close still reaches the peer.

TcpLink.send() is the blocking form, for threads other than the loop's:
a direct round trip on a connection of its own, one link per thread.
"""

from __future__ import annotations

import errno
import heapq
import itertools
import os
import selectors
import socket
import struct
import threading
import time
import traceback
from collections import deque
from collections.abc import Callable, Generator, Sequence
from contextlib import ExitStack
from functools import partial
from typing import Any

from .clock import Clock, SystemClock, seconds_to_ns
from .effects import Call, Handler, Link, Sleep, TransportError, drive, invoke_handler  # noqa: F401
from .wire import MAX_FRAME_LEN, DecodeError, Message, OversizeFrameError, decode, encode

# tcp.drive stays importable: bench/tracer.py wraps it by that name.

_PREFIX = struct.Struct(">I")
_RECV_SIZE = 65536
# A server out of file descriptors tries to accept again after this long,
# unless one of its own connections closes first.
_ACCEPT_RETRY_NS = 100_000_000
# The longest TcpLink timeout, about 11.6 days. The loop waits for a link's
# deadline in epoll_wait, which takes at most 2**31 - 1 ms (24.8 days), and
# a blocking socket's timeout must fit the platform's time_t.
MAX_TIMEOUT_S = 1e6


class _FrameReader:
    """Splits a byte stream into whole frames, keeping a partial one."""

    __slots__ = ("_pending",)

    def __init__(self) -> None:
        self._pending = bytearray()

    def feed(self, data: bytes) -> list[bytes]:
        """Whole frames completed by data; an oversize length prefix raises.

        The cap is checked before the frame is buffered, so a peer that
        lies about a huge length is refused without reading it out.
        """
        pending = self._pending
        if pending:
            pending += data
            data = pending
        frames = []
        pos, size = 0, len(data)
        while size - pos >= 4:
            (total,) = _PREFIX.unpack_from(data, pos)
            if total > MAX_FRAME_LEN:
                raise OversizeFrameError(
                    f"declared frame length {total} exceeds {MAX_FRAME_LEN} byte cap"
                )
            end = pos + 4 + total
            if end > size:
                break
            # A read that is exactly one frame is passed on without a copy.
            frames.append(data if end - pos == size and not pending else bytes(data[pos:end]))
            pos = end
        if pending:
            del pending[:pos]
        elif pos < size:
            pending += data[pos:]
        return frames


def _read_response(frame: bytes, in_flight: dict[int, Any]) -> tuple[Message, Any]:
    """Decode a frame a link read and pop what waits for its request id.

    A bad frame, a request frame or an id nothing waits for is a
    TransportError, after which the link drops its connection.
    """
    try:
        response = decode(frame)
    except DecodeError as exc:
        raise TransportError(f"peer sent a bad frame: {exc}") from exc
    if response.is_request or response.request_id not in in_flight:
        raise TransportError("response does not match the request id")
    return response, in_flight.pop(response.request_id)


class _Loop:
    """The process's selector loop: timers, sockets, and callbacks handed in.

    Callbacks wait in one deque, which any thread may append to (a deque
    append is atomic). A thread other than the loop's also writes a byte
    to the wake pipe, so that a loop blocked in select() turns.

    A turn runs the socket callbacks select() reported, the due timers and
    the callbacks handed in; then each connection written to during the
    turn sends its buffer with one send(), before the loop selects again.
    """

    def __init__(self) -> None:
        self.selector = selectors.DefaultSelector()
        self._timers: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self._ready: deque[Callable[[], None]] = deque()
        # Connections written to this turn, each queued once by its first write.
        self.pending: list[_Connection] = []
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self.selector.register(self._wake_r, selectors.EVENT_READ, self._on_wake)
        self._thread = threading.Thread(target=self._run, name="meshcache-loop", daemon=True)
        self._thread.start()

    def on_loop_thread(self) -> bool:
        return threading.get_ident() == self._thread.ident

    def call_at(self, deadline_ns: int, fn: Callable[[], None]) -> None:
        heapq.heappush(self._timers, (deadline_ns, next(self._seq), fn))

    def hand_in(self, fn: Callable[[], None]) -> None:
        """Run fn on the loop's next turn; callable from any thread."""
        self._ready.append(fn)
        if self.on_loop_thread():
            return
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:
            pass  # the pipe is full, so the loop is already due to wake

    def run_sync(self, fn: Callable[[], Any]) -> Any:
        """Run fn on the loop and wait for its result; callable from any thread."""
        if self.on_loop_thread():
            return fn()
        done = threading.Event()
        outcome: list = [None, None]

        def call() -> None:
            try:
                outcome[0] = fn()
            except BaseException as exc:  # noqa: BLE001 - re-raised in the calling thread
                outcome[1] = exc
            finally:
                done.set()

        self.hand_in(call)
        done.wait()
        if outcome[1] is not None:
            raise outcome[1]
        return outcome[0]

    def _on_wake(self, events: int) -> None:
        try:
            while os.read(self._wake_r, 4096):
                pass
        except BlockingIOError:
            pass

    def _run(self) -> None:
        select = self.selector.select
        timers, ready, pending = self._timers, self._ready, self.pending
        pause = 0.0  # while select() fails: the wait before it is tried again
        while True:
            try:
                if ready or pending:
                    timeout: float | None = 0.0
                elif timers:
                    timeout = max(0.0, (timers[0][0] - time.monotonic_ns()) / 1e9)
                else:
                    timeout = None
                try:
                    selected = select(timeout)
                    pause = 0.0
                except Exception:  # noqa: BLE001 - reported once; timers and callbacks still run
                    if not pause:
                        traceback.print_exc()
                    pause = min(2 * pause or 0.001, 1.0)
                    time.sleep(pause)
                    selected = []
                for key, events in selected:
                    key.data(events)
                now = time.monotonic_ns()
                while timers and timers[0][0] <= now:
                    heapq.heappop(timers)[2]()
                for _ in range(len(ready)):
                    ready.popleft()()
                while pending:
                    pending.pop().send_pending()
            except Exception:  # noqa: BLE001 - the loop serves every other socket
                traceback.print_exc()


_loop: _Loop | None = None
_loop_lock = threading.Lock()


def _the_loop() -> _Loop:
    """The process's loop, started on first use."""
    global _loop
    if _loop is None:
        with _loop_lock:
            if _loop is None:
                _loop = _Loop()
    return _loop


class _Task:
    """An effect generator resumed by the loop.

    done(result, error) is called once, when the generator returns or
    raises. Call is performed as drive() performs it, except that nothing
    blocks, and Sleep is a timer; an effect that cannot be performed is
    thrown into the generator, as drive() throws a link's TransportError.
    """

    __slots__ = ("_loop", "_gen", "_done")

    def __init__(self, loop: _Loop, gen: Generator, done: Callable[[Any, BaseException | None], None]):
        self._loop = loop
        self._gen: Generator | None = gen
        self._done = done

    def step(self, value: Any = None, error: BaseException | None = None) -> None:
        gen = self._gen
        if gen is None:
            return  # finished or cancelled; a late wake-up does nothing
        try:
            effect = gen.send(value) if error is None else gen.throw(error)
        except StopIteration as stop:
            self._gen = None
            self._done(stop.value, None)
            return
        except Exception as exc:  # noqa: BLE001 - handed to whoever waits for the task
            self._gen = None
            self._done(None, exc)
            return
        try:
            if isinstance(effect, Call):
                if not isinstance(effect.link, TcpLink):
                    raise TypeError(f"the loop performs Call only on a TcpLink, got {effect.link!r}")
                effect.link._start(self._loop, effect.message, self)
            elif isinstance(effect, Sleep):
                self._loop.call_at(time.monotonic_ns() + effect.duration_ns, self.step)
            else:
                raise TypeError(f"unknown effect {effect!r}")
        except Exception as exc:  # noqa: BLE001 - thrown into the task on the next turn
            self.fail_later(exc)

    def fail_later(self, error: BaseException) -> None:
        """Throw error into the task on the loop's next turn, not from inside the caller."""
        self._loop.hand_in(partial(self.step, None, error))

    def cancel(self) -> None:
        gen, self._gen = self._gen, None
        if gen is not None:
            gen.close()


class _Connection:
    """One non-blocking socket on the loop, with its frame reader and write buffer.

    on_frame(conn, frame) gets each whole frame as it arrives;
    on_close(conn, reason) is called once, when the connection closes for
    any reason.
    """

    __slots__ = (
        "_loop", "_sock", "_reader", "_out", "_connecting", "_writing", "_on_frame", "_on_close",
        "closed",
    )

    def __init__(
        self,
        loop: _Loop,
        sock: socket.socket,
        on_frame: Callable[["_Connection", bytes], None],
        on_close: Callable[["_Connection", BaseException], None],
        connecting: bool = False,
    ) -> None:
        self._loop = loop
        self._sock = sock
        self._reader = _FrameReader()
        self._out = bytearray()
        self._connecting = connecting
        # Registered for EVENT_WRITE: connecting, or holding bytes the socket did not take.
        self._writing = connecting
        self._on_frame = on_frame
        self._on_close = on_close
        self.closed = False
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if connecting else 0)
        loop.selector.register(sock, events, self._on_event)

    @classmethod
    def connect(
        cls,
        loop: _Loop,
        address: tuple[str, int],
        on_frame: Callable[["_Connection", bytes], None],
        on_close: Callable[["_Connection", BaseException], None],
    ) -> "_Connection":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            err = sock.connect_ex(address)
            if err not in (0, errno.EINPROGRESS):
                raise ConnectionError(os.strerror(err))
        except OSError:
            sock.close()
            raise
        return cls(loop, sock, on_frame, on_close, connecting=err != 0)

    def _on_event(self, events: int) -> None:
        try:
            if events & selectors.EVENT_WRITE:
                self._flush()
            if events & selectors.EVENT_READ and not self.closed:
                self._read()
        except Exception as exc:  # noqa: BLE001 - fails this connection, not the loop
            traceback.print_exc()
            self.close(exc)

    def _read(self) -> None:
        try:
            data = self._sock.recv(_RECV_SIZE)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self.close(exc)
            return
        if not data:
            self.close(ConnectionError("peer closed the connection"))
            return
        try:
            frames = self._reader.feed(data)
        except OversizeFrameError as exc:
            self.close(exc)
            return
        for frame in frames:
            if self.closed:
                return
            self._on_frame(self, frame)

    def write(self, frame: bytes) -> None:
        """Buffer frame; the loop sends the turn's buffer once the turn's callbacks are done."""
        if self.closed:
            return
        out = self._out
        if not out and not self._writing:
            self._loop.pending.append(self)
        out += frame

    def send_pending(self) -> None:
        """Send the buffer with one send(); wait for EVENT_WRITE for what the socket leaves."""
        if self.closed:
            return
        try:
            self._send()
            if self._out and not self.closed:
                self._writing = True
                self._loop.selector.modify(
                    self._sock, selectors.EVENT_READ | selectors.EVENT_WRITE, self._on_event
                )
        except Exception as exc:  # noqa: BLE001 - fails this connection, not the loop
            traceback.print_exc()
            self.close(exc)

    def _send(self) -> None:
        try:
            sent = self._sock.send(self._out)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self.close(exc)
            return
        del self._out[:sent]

    def _flush(self) -> None:
        if self._connecting:
            err = self._sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if err:
                self.close(ConnectionError(f"connect failed: {os.strerror(err)}"))
                return
            self._connecting = False
        if self._out:
            self._send()
        if not self._out and not self.closed:
            self._writing = False
            self._loop.selector.modify(self._sock, selectors.EVENT_READ, self._on_event)

    def close(self, reason: BaseException) -> None:
        """Close once, after one non-blocking try to send what is buffered."""
        if self.closed:
            return
        self.closed = True
        if self._out and not self._connecting:
            try:
                self._sock.send(self._out)
            except OSError:
                pass
        self._loop.selector.unregister(self._sock)
        self._sock.close()
        self._on_close(self, reason)


def _answer_error(conn: _Connection, method: str, detail: str, request_id: int) -> None:
    """Answer with an ERROR frame, or close the connection if none can be framed.

    Either way the peer hears at once: a request is never left unanswered.
    """
    try:
        frame = encode(Message.error_response(method, detail, request_id))
    except Exception as exc:  # noqa: BLE001 - the peer gets a closed connection instead
        conn.close(exc)
        return
    conn.write(frame)


class ServerHandle:
    """Running server; close() stops accepting and drops open connections."""

    def __init__(self, loop: _Loop, listener: socket.socket, handler: Handler) -> None:
        self._loop = loop
        self._listener = listener
        self._handler = handler
        self._conns: set[_Connection] = set()
        self._listening = False
        self._closed = False
        self.address: tuple[str, int] = listener.getsockname()[:2]

    def _open(self) -> None:
        self._loop.selector.register(self._listener, selectors.EVENT_READ, self._accept)
        self._listening = True

    def _accept(self, events: int) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError as exc:
                if exc.errno in (errno.EMFILE, errno.ENFILE):
                    # Out of descriptors: the listener would stay readable
                    # and spin the loop, so stop reading it until one of
                    # its connections closes, or a while has passed for
                    # descriptors held elsewhere in the process.
                    self._loop.selector.unregister(self._listener)
                    self._listening = False
                    self._loop.call_at(time.monotonic_ns() + _ACCEPT_RETRY_NS, self._resume)
                return  # nothing left to accept
            sock.setblocking(False)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._conns.add(_Connection(self._loop, sock, self._serve_frame, self._forget))

    def _resume(self) -> None:
        if not self._listening and not self._closed:
            self._open()

    def _forget(self, conn: _Connection, reason: BaseException) -> None:
        self._conns.discard(conn)
        self._resume()

    def _serve_frame(self, conn: _Connection, frame: bytes) -> None:
        try:
            request = decode(frame)
        except DecodeError as exc:
            _answer_error(conn, "", f"bad frame: {exc}", 0)
            return
        if not request.is_request:
            _answer_error(conn, request.method, "expected a request frame", request.request_id)
            return
        answer = partial(self._answer, conn, request)
        _Task(self._loop, invoke_handler(self._handler, request), answer).step()

    @staticmethod
    def _answer(
        conn: _Connection, request: Message, response: Message | None, error: BaseException | None
    ) -> None:
        if conn.closed:
            return
        if error is None:
            try:
                frame = encode(response.with_request_id(request.request_id))  # type: ignore[union-attr]
            except Exception as exc:  # noqa: BLE001 - answered with an ERROR frame
                error = exc
            else:
                conn.write(frame)
                return
        _answer_error(
            conn, request.method, f"{type(error).__name__}: {error}", request.request_id
        )

    def _shutdown(self) -> None:
        if self._listening:
            self._loop.selector.unregister(self._listener)
            self._listening = False
        self._listener.close()
        for conn in list(self._conns):
            conn.close(ConnectionError("server closed"))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._loop.run_sync(self._shutdown)

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
    """Bind and start serving on the process's loop; returns the bound address at once.

    Handlers follow the effects.py contract: plain function or effect
    generator; exceptions surface to the client as ERROR responses and the
    connection survives. A handler runs on the loop thread, so it must
    not block: it waits by yielding Sleep or an exchange. The loop's
    timers run on the system clock, so clock, if given, must be one.
    """
    if clock is not None and not isinstance(clock, SystemClock):
        raise ValueError("the TCP backend runs on the system clock")
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(64)
        listener.setblocking(False)
    except OSError:
        listener.close()
        raise
    loop = _the_loop()
    handle = ServerHandle(loop, listener, handler)
    loop.hand_in(handle._open)
    return handle


def connector(stack: ExitStack) -> Callable[[Handler], Link]:
    """connect() over loopback TCP: each handler's server starts at its first
    connect, every connect opens a new link, and the stack closes them all."""
    servers: dict[Handler, ServerHandle] = {}

    def connect(handler: Handler) -> Link:
        if handler not in servers:
            servers[handler] = stack.enter_context(serve(handler))
        return stack.enter_context(TcpLink(servers[handler].address))

    return connect


def run_actors(actors: Sequence[Generator]) -> None:
    """Run effect generators on the loop and wait until all have returned.

    The first one to raise ends the run: the others are closed where they
    are suspended, and its exception is raised here. Call it from a
    thread other than the loop's, which it waits for.
    """
    if not actors:
        return
    loop = _the_loop()
    done = threading.Event()
    left = len(actors)
    failure: BaseException | None = None
    tasks: list[_Task] = []

    def finished(result: Any, error: BaseException | None) -> None:
        nonlocal left, failure
        if done.is_set():
            return
        if error is not None:
            failure = error
            try:
                for task in tasks:
                    task.cancel()
            finally:
                done.set()
            return
        left -= 1
        if left == 0:
            done.set()

    def start() -> None:
        tasks.extend(_Task(loop, actor, finished) for actor in actors)
        for task in tasks:
            task.step()

    loop.hand_in(start)
    done.wait()
    if failure is not None:
        raise failure


class TcpLink:
    """Link over TCP: multiplexed on the loop, or blocking with send().

    exchange() yields one Call effect. On the loop, the Call shares the
    link's one loop connection with the link's other requests in flight;
    each gets the next request id and is matched to the response carrying
    it, whatever order the responses come in. send() is a blocking round
    trip on a separate connection owned by the calling thread: use one
    link per thread, and never call it on the loop thread. Either way a
    round trip fails after timeout_s, which must be positive and at most
    MAX_TIMEOUT_S.
    """

    def __init__(self, address: tuple[str, int], timeout_s: float = 10.0) -> None:
        if not 0 < timeout_s <= MAX_TIMEOUT_S:
            raise ValueError(
                f"timeout_s must be positive and at most {MAX_TIMEOUT_S:g} s, got {timeout_s!r}"
            )
        self._address = address
        self._timeout_s = timeout_s
        self._timeout_ns = seconds_to_ns(timeout_s)
        self._ids = itertools.count(1)
        # The blocking connection of send().
        self._sock: socket.socket | None = None
        self._reader = _FrameReader()
        # The loop connection: request id -> (task, deadline) of each request in flight.
        self._conn: _Connection | None = None
        self._in_flight: dict[int, tuple[_Task, int]] = {}
        self._timer_armed = False

    def exchange(self, request: Message) -> Generator:
        return (yield Call(self, request))

    # On the loop ---------------------------------------------------------

    def _start(self, loop: _Loop, request: Message, task: _Task) -> None:
        if not request.is_request:
            raise ValueError("links only send requests")
        request_id = next(self._ids)
        frame = encode(request.with_request_id(request_id))
        conn = self._conn
        if conn is None:
            try:
                conn = _Connection.connect(loop, self._address, self._on_frame, self._on_close)
            except OSError as exc:
                raise TransportError(f"connect to {self._address} failed: {exc}") from exc
            self._conn = conn
        now = time.monotonic_ns()
        self._in_flight[request_id] = (task, now + self._timeout_ns)
        if not self._timer_armed:
            self._timer_armed = True
            loop.call_at(now + self._timeout_ns, partial(self._check_deadline, loop))
        conn.write(frame)

    def _on_frame(self, conn: _Connection, frame: bytes) -> None:
        try:
            response, (task, _) = _read_response(frame, self._in_flight)
        except TransportError as exc:
            conn.close(exc)
            return
        task.step(response)

    def _on_close(self, conn: _Connection, reason: BaseException) -> None:
        self._conn = None
        if not isinstance(reason, TransportError):
            reason = TransportError(f"round trip to {self._address} failed: {reason}")
        in_flight, self._in_flight = self._in_flight, {}
        for task, _ in in_flight.values():
            task.fail_later(reason)

    def _check_deadline(self, loop: _Loop) -> None:
        """Fail the link if its oldest request is overdue; else wait for that one."""
        self._timer_armed = False
        if not self._in_flight:
            return
        # Every request gets the same timeout, so the first in is the first due.
        _, deadline_ns = next(iter(self._in_flight.values()))
        if deadline_ns <= time.monotonic_ns():
            timeout = TransportError(
                f"round trip to {self._address} timed out after {self._timeout_s} s"
            )
            self._conn.close(timeout)  # type: ignore[union-attr]
        else:
            self._timer_armed = True
            loop.call_at(deadline_ns, partial(self._check_deadline, loop))

    # Blocking -----------------------------------------------------------

    def _connect(self) -> socket.socket:
        if self._sock is None:
            try:
                sock = socket.create_connection(self._address, timeout=self._timeout_s)
            except OSError as exc:
                raise TransportError(f"connect to {self._address} failed: {exc}") from exc
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def send(self, request: Message) -> Message:
        if not request.is_request:
            raise ValueError("links only send requests")
        request_id = next(self._ids)
        frame = encode(request.with_request_id(request_id))
        try:
            sock = self._connect()
            sock.sendall(frame)
            frames: list[bytes] = []
            while not frames:
                data = sock.recv(_RECV_SIZE)
                if not data:
                    raise ConnectionError("peer closed the connection")
                frames = self._reader.feed(data)
            if len(frames) > 1:
                raise TransportError("response does not match the request id")
            response, _ = _read_response(frames[0], {request_id: None})
        except (OSError, DecodeError) as exc:
            self._drop()
            raise TransportError(f"round trip to {self._address} failed: {exc}") from exc
        except TransportError:
            self._drop()
            raise
        return response

    def _drop(self) -> None:
        self._reader = _FrameReader()
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        self._drop()
        if self._conn is not None:
            _the_loop().run_sync(self._close_on_loop)

    def _close_on_loop(self) -> None:
        if self._conn is not None:
            self._conn.close(TransportError(f"link to {self._address} closed"))

    def __enter__(self) -> "TcpLink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
