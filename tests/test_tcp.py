"""Framed TCP transport: server lifecycle, link behavior, error paths."""

import errno
import json
import math
import os
import random
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from meshcache import tcp
from meshcache.clock import NS_PER_MS as MS
from meshcache.effects import Call, Sleep, TransportError, drive
from meshcache.tcp import MAX_TIMEOUT_S, TcpLink, _FrameReader, run_actors, serve
from meshcache.wire import MAX_FRAME_LEN, Message, OversizeFrameError, decode, encode


def other_threads():
    """Threads of this process beyond the main thread and the TCP loop's."""
    return [
        t for t in threading.enumerate()
        if t is not threading.main_thread() and t.name != "meshcache-loop"
    ]


def echo_handler(request):
    return Message.response(request.method, request.payload)


def test_roundtrip_over_loopback():
    with serve(echo_handler) as handle:
        with TcpLink(handle.address) as link:
            response = link.send(Message.request("Echo", b"hello"))
            assert response.ok and response.payload == b"hello"


def test_request_ids_are_assigned_and_echoed():
    with serve(lambda r: Message.response(r.method, b"", request_id=0)) as handle:
        with TcpLink(handle.address) as link:
            first = link.send(Message.request("M"))
            second = link.send(Message.request("M"))
            # The link tags requests 1, 2, ... and the server echoes them
            # even when the handler returned a response with id 0.
            assert (first.request_id, second.request_id) == (1, 2)


def test_handler_exception_keeps_connection_alive():
    calls = []

    def flaky(request):
        calls.append(request.payload)
        if request.payload == b"boom":
            raise RuntimeError("handler exploded")
        return Message.response(request.method, b"fine")

    with serve(flaky) as handle:
        with TcpLink(handle.address) as link:
            err = link.send(Message.request("M", b"boom"))
            assert err.status == "error" and b"handler exploded" in err.payload
            ok = link.send(Message.request("M", b"ok"))
            assert ok.payload == b"fine"
    assert calls == [b"boom", b"ok"]


def test_connect_to_closed_server_raises_transport_error():
    handle = serve(echo_handler)
    address = handle.address
    handle.close()
    link = TcpLink(address, timeout_s=0.5)
    with pytest.raises(TransportError):
        link.send(Message.request("M"))


def test_exchange_yields_one_call_for_drive_to_perform():
    # The round trip suspends the caller, so a live cache miss is a
    # suspended handler exactly like a virtual one; nothing is sent yet.
    link = TcpLink(("127.0.0.1", 9))
    request = Message.request("M")
    step = link.exchange(request)
    assert next(step) == Call(link, request)
    reply = Message.response("M", b"r")
    with pytest.raises(StopIteration) as stop:
        step.send(reply)
    assert stop.value.value is reply


def test_exchange_failure_is_thrown_into_the_driven_actor():
    handle = serve(echo_handler)
    address = handle.address
    handle.close()
    link = TcpLink(address, timeout_s=0.5)

    def actor():
        try:
            yield from link.exchange(Message.request("M"))
        except TransportError:
            return "caught"
        return "answered"

    assert drive(actor()) == "caught"


def test_close_refuses_connects_and_leaves_only_the_loop_thread():
    handle = serve(echo_handler)
    with TcpLink(handle.address) as link:
        assert link.send(Message.request("Echo", b"x")).ok
    handle.close()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(handle.address, timeout=5.0).close()
    assert other_threads() == []


def test_link_refuses_to_send_responses():
    with serve(echo_handler) as handle:
        with TcpLink(handle.address) as link:
            with pytest.raises(ValueError):
                link.send(Message.response("M"))


@pytest.mark.parametrize("timeout_s", [-1.0, 0, 0.0, float("nan"), float("inf"), float("-inf")])
def test_a_link_refuses_a_timeout_that_is_not_positive_and_finite(timeout_s):
    # Refused when the link is built, not at the first send() or exchange().
    with pytest.raises(ValueError, match="timeout_s"):
        TcpLink(("127.0.0.1", 9), timeout_s=timeout_s)


@pytest.mark.parametrize("timeout_s", [1e10, 1e12, math.nextafter(MAX_TIMEOUT_S, math.inf)])
def test_a_link_refuses_a_timeout_above_its_bound(timeout_s):
    # Neither the loop's epoll_wait nor a blocking socket could hold it.
    with pytest.raises(ValueError, match="timeout_s"):
        TcpLink(("127.0.0.1", 9), timeout_s=timeout_s)


def test_a_link_at_its_longest_timeout_answers_blocking_and_on_the_loop():
    with serve(echo_handler) as handle, TcpLink(handle.address, timeout_s=MAX_TIMEOUT_S) as link:
        assert link.send(Message.request("Echo", b"blocking")).payload == b"blocking"
        echoes = []

        def actor():
            echoes.append((yield from link.exchange(Message.request("Echo", b"loop"))))

        # The loop waits for the link's deadline in select(); a wait it
        # cannot hold would stall every request, so the wait is bounded here.
        runner = threading.Thread(target=run_actors, args=([actor()],), daemon=True)
        runner.start()
        runner.join(10.0)
        assert not runner.is_alive()
        assert [echo.payload for echo in echoes] == [b"loop"]


def test_server_answers_bad_frames_with_error_response():
    with serve(echo_handler) as handle:
        with socket.create_connection(handle.address, timeout=5.0) as sock:
            sock.sendall(struct.pack(">I", 3) + b"\x7f\x00\x00")  # unknown kind
            prefix = sock.recv(4, socket.MSG_WAITALL)
            (total,) = struct.unpack(">I", prefix)
            body = sock.recv(total, socket.MSG_WAITALL)
            reply = decode(prefix + body)
            assert reply.status == "error" and b"bad frame" in reply.payload


def test_server_rejects_response_frames_from_clients():
    with serve(echo_handler) as handle:
        with socket.create_connection(handle.address, timeout=5.0) as sock:
            sock.sendall(encode(Message.response("M", b"", request_id=9)))
            prefix = sock.recv(4, socket.MSG_WAITALL)
            (total,) = struct.unpack(">I", prefix)
            reply = decode(prefix + sock.recv(total, socket.MSG_WAITALL))
            assert reply.status == "error"
            assert reply.request_id == 9


def test_oversize_length_prefix_does_not_allocate():
    with serve(echo_handler) as handle:
        with socket.create_connection(handle.address, timeout=5.0) as sock:
            sock.sendall(struct.pack(">I", 2**31))
            # Server drops the connection instead of trusting the length.
            assert sock.recv(1) == b""


def test_concurrent_connections_are_in_flight_together():
    arrived = []

    def handler(request):
        arrived.append(request.payload)
        deadline = time.monotonic() + 10.0
        # Only answers once all four requests have reached the handler.
        while len(arrived) < 4:
            if time.monotonic() > deadline:
                raise TimeoutError("the requests were not in flight together")
            yield Sleep(MS)
        return Message.response(request.method, request.payload)

    with serve(handler) as handle:
        results = {}

        def call(i):
            with TcpLink(handle.address) as link:
                results[i] = link.send(Message.request("M", str(i).encode()))

        threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=15.0)
            assert not t.is_alive()
    assert {r.payload for r in results.values()} == {b"0", b"1", b"2", b"3"}
    assert all(r.ok for r in results.values())


def test_one_link_multiplexes_requests_answered_out_of_order():
    answered = []

    def handler(request):
        deadline = time.monotonic() + 10.0
        # "first" is held back until "second" has been answered.
        while request.payload == b"first" and not answered:
            if time.monotonic() > deadline:
                raise TimeoutError("the second request never arrived")
            yield Sleep(MS)
        answered.append(request.payload)
        return Message.response(request.method, request.payload)

    received = []
    with serve(handler) as handle, TcpLink(handle.address) as link:

        def actor(payload):
            response = yield from link.exchange(Message.request("M", payload))
            received.append((payload, response.payload, response.request_id))

        run_actors([actor(b"first"), actor(b"second")])
        assert len(handle._conns) == 1  # both requests shared one connection
    assert answered == [b"second", b"first"]
    assert received == [(b"second", b"second", 2), (b"first", b"first", 1)]


def test_a_silent_peer_times_out_while_the_loop_serves_others():
    silent = socket.create_server(("127.0.0.1", 0))  # accepts, never answers
    stuck_link = TcpLink(silent.getsockname()[:2], timeout_s=0.5)
    waited = []
    echoes = []
    with silent, serve(echo_handler) as handle, TcpLink(handle.address) as link:

        def stuck():
            start = time.monotonic()
            with pytest.raises(TransportError, match="timed out"):
                yield from stuck_link.exchange(Message.request("M"))
            waited.append(time.monotonic() - start)

        def busy():
            while not waited:
                echoes.append((yield from link.exchange(Message.request("Echo", b"e"))))
                yield Sleep(20 * MS)

        run_actors([stuck(), busy()])
        stuck_link.close()
    assert 0.5 <= waited[0] < 2.0
    assert len(echoes) >= 5 and all(r.payload == b"e" for r in echoes)


def read_frames(sock, count):
    """Read count whole frames from a blocking socket."""
    buf = b""
    frames = []
    while len(frames) < count:
        chunk = sock.recv(65536)
        assert chunk, "peer closed early"
        buf += chunk
        while len(buf) >= 4 and len(buf) >= 4 + struct.unpack(">I", buf[:4])[0]:
            end = 4 + struct.unpack(">I", buf[:4])[0]
            frames.append(decode(buf[:end]))
            buf = buf[end:]
    return frames


def test_frame_reader_reassembles_frames_split_anywhere():
    frames = [
        encode(Message.request("M", b"x" * n, request_id=n)) for n in (0, 1, 5, 300)
    ]
    stream = b"".join(frames)
    rng = random.Random(7)
    for _ in range(200):
        cuts = sorted(rng.sample(range(1, len(stream)), rng.randint(1, 12)))
        reader = _FrameReader()
        out = []
        for a, b in zip([0] + cuts, cuts + [len(stream)]):
            out += reader.feed(stream[a:b])
        assert out == frames


def test_frame_reader_refuses_an_oversize_prefix_before_buffering():
    reader = _FrameReader()
    prefix = struct.pack(">I", MAX_FRAME_LEN + 1)
    assert reader.feed(prefix[:2]) == []
    with pytest.raises(OversizeFrameError):
        reader.feed(prefix[2:])


def test_a_peer_half_closing_mid_frame_fails_every_request_in_flight():
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10.0)

    def peer():
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(10.0)
            first, second = read_frames(conn, 2)
            reply = encode(Message.response("M", b"partial", request_id=first.request_id))
            conn.sendall(reply[:10])
            conn.shutdown(socket.SHUT_WR)
            conn.recv(1)  # the link closes its end
        conn, _ = listener.accept()  # the next exchange reconnects
        with conn:
            conn.settimeout(10.0)
            (request,) = read_frames(conn, 1)
            conn.sendall(encode(Message.response("M", b"again", request_id=request.request_id)))
            conn.recv(1)

    thread = threading.Thread(target=peer)
    thread.start()
    failures = []
    with listener, TcpLink(listener.getsockname()[:2]) as link:

        def actor(payload):
            try:
                yield from link.exchange(Message.request("M", payload))
            except TransportError as exc:
                failures.append((payload, str(exc)))

        run_actors([actor(b"a"), actor(b"b")])
        assert sorted(p for p, _ in failures) == [b"a", b"b"]
        assert all("peer closed" in text for _, text in failures)

        answers = []

        def again():
            answers.append((yield from link.exchange(Message.request("M", b"x"))))

        run_actors([again()])
        assert answers[0].payload == b"again"
    thread.join(timeout=10.0)
    assert not thread.is_alive()


def test_generator_handlers_can_call_onward():
    # estimator-style: the front server forwards to a backend over TCP.
    with serve(echo_handler) as backend:
        backend_link = TcpLink(backend.address)

        def proxy(request):
            response = yield from backend_link.exchange(request)
            return response.with_metadata("via", "proxy")

        with serve(proxy) as front:
            with TcpLink(front.address) as link:
                response = link.send(Message.request("M", b"pass-through"))
                assert response.payload == b"pass-through"
                assert response.metadata_value("via") == "proxy"
        backend_link.close()


def test_a_shared_link_matches_every_response_under_load():
    # Eight client threads through one proxy whose single backend link
    # carries all their requests; the backend answers in shuffled order.
    rng = random.Random(3)

    def backend(request):
        yield Sleep(rng.randrange(2) * MS)
        return Message.response(request.method, request.payload)

    with serve(backend) as back, TcpLink(back.address) as backend_link:

        def proxy(request):
            return (yield from backend_link.exchange(request))

        with serve(proxy) as front:
            mismatches = []

            def client(i):
                with TcpLink(front.address) as link:
                    for n in range(50):
                        payload = f"{i}-{n}".encode()
                        response = link.send(Message.request("M", payload))
                        if not response.ok or response.payload != payload:
                            mismatches.append((payload, response))

            threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
                assert not t.is_alive()
    assert mismatches == []


def test_one_argument_codec_wrappers_serve_the_loop_and_send(monkeypatch):
    # bench/tracer.py replaces tcp.encode and tcp.decode with wrappers of
    # one argument; tcp must call the codec through those globals, so a
    # traced run both works and counts every frame.
    calls = {"encode": 0, "decode": 0}
    real_encode, real_decode = tcp.encode, tcp.decode

    def encode_one(message):
        calls["encode"] += 1
        return real_encode(message)

    def decode_one(frame):
        calls["decode"] += 1
        return real_decode(frame)

    monkeypatch.setattr(tcp, "encode", encode_one)
    monkeypatch.setattr(tcp, "decode", decode_one)
    with serve(echo_handler) as handle, TcpLink(handle.address, timeout_s=5.0) as link:
        replies = []

        def actor():
            replies.append((yield from link.exchange(Message.request("Echo", b"loop"))))

        run_actors([actor()])
        replies.append(link.send(Message.request("Echo", b"send")))
    assert [r.payload for r in replies] == [b"loop", b"send"]
    # Each round trip frames a request and a response, and decodes both.
    assert calls == {"encode": 4, "decode": 4}


def _encode_failing_for(monkeypatch, failing_statuses):
    real_encode = tcp.encode

    def encode(message):
        if message.status in failing_statuses:
            raise TypeError("cannot frame this response")
        return real_encode(message)

    monkeypatch.setattr(tcp, "encode", encode)


def test_a_response_that_cannot_be_framed_is_answered_with_an_error(monkeypatch):
    _encode_failing_for(monkeypatch, {"ok"})
    with serve(echo_handler) as handle, TcpLink(handle.address, timeout_s=10.0) as link:
        started = time.monotonic()
        response = link.send(Message.request("Echo", b"x"))
        assert time.monotonic() - started < 2.0
    assert response.status == "error"
    assert b"TypeError: cannot frame this response" in response.payload


def test_a_request_that_cannot_be_answered_closes_the_connection(monkeypatch):
    # Not even an ERROR frame can be framed: the peer hears of it at once
    # through a closed connection, not after its 10 s timeout.
    _encode_failing_for(monkeypatch, {"ok", "error"})
    with serve(echo_handler) as handle, TcpLink(handle.address, timeout_s=10.0) as link:
        started = time.monotonic()
        with pytest.raises(TransportError):
            link.send(Message.request("Echo", b"x"))
        failures = []

        def actor():
            try:
                yield from link.exchange(Message.request("Echo", b"y"))
            except TransportError as exc:
                failures.append(exc)

        run_actors([actor()])
        assert len(failures) == 1
        assert time.monotonic() - started < 2.0


class _StarvedListener:
    """A listening socket whose accept() fails with EMFILE while `starved`."""

    def __init__(self):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.sock.setblocking(False)
        self.starved = True
        self.accept_calls = 0

    def fileno(self):
        return self.sock.fileno()

    def getsockname(self):
        return self.sock.getsockname()

    def accept(self):
        self.accept_calls += 1
        if self.starved:
            raise OSError(errno.EMFILE, "Too many open files")
        return self.sock.accept()

    def close(self):
        self.sock.close()


def test_a_server_starved_by_other_descriptors_retries_without_spinning():
    # The descriptors are held elsewhere in the process, so no connection
    # of this server closes to wake it: it retries on a timer.
    listener = _StarvedListener()
    loop = tcp._the_loop()
    handle = tcp.ServerHandle(loop, listener, echo_handler)
    loop.hand_in(handle._open)
    with handle, socket.create_connection(handle.address, timeout=5.0) as sock:
        sock.sendall(encode(Message.request("Echo", b"starved")))
        time.sleep(0.5)
        # A spinning loop would have called accept() thousands of times.
        assert 1 <= listener.accept_calls <= 10
        listener.starved = False
        started = time.monotonic()
        reader, frames = _FrameReader(), []
        while not frames:
            frames = reader.feed(sock.recv(65536))
        assert time.monotonic() - started < 1.0
        assert decode(frames[0]).payload == b"starved"


# A child process serving echo with its own descriptor limit lowered.
_LIMITED_SERVER = """
import resource, sys
resource.setrlimit(resource.RLIMIT_NOFILE, ({limit}, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
from meshcache.tcp import serve
from meshcache.wire import Message
handle = serve(lambda request: Message.response(request.method, request.payload))
print(handle.address[1], flush=True)
sys.stdin.read()
"""


def _cpu_ticks(pid):
    """User plus system clock ticks the process has used."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rpartition(")")[2].split()
    return int(fields[11]) + int(fields[12])


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads CPU time from /proc")
def test_a_server_out_of_descriptors_waits_and_accepts_again():
    limit, clients_n = 40, 40
    env = dict(os.environ)
    src = str(Path(tcp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    child = subprocess.Popen(
        [sys.executable, "-c", _LIMITED_SERVER.format(limit=limit)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
    )
    clients = []
    try:
        port = int(child.stdout.readline())
        # The child holds a few descriptors of its own, so it can accept
        # fewer than `limit` connections; the last ones stay queued.
        clients = [socket.create_connection(("127.0.0.1", port), timeout=5.0) for _ in range(clients_n)]
        last = clients[-1]
        last.sendall(encode(Message.request("Echo", b"late")))
        last.settimeout(0.5)
        with pytest.raises(socket.timeout):
            last.recv(1)  # not accepted: the child is at its limit
        before = _cpu_ticks(child.pid)
        time.sleep(1.0)
        used = _cpu_ticks(child.pid) - before
        # A loop spinning on the readable listener would use about a
        # second of CPU here.
        assert used < 0.25 * os.sysconf("SC_CLK_TCK"), used
        for sock in clients[:20]:
            sock.close()
        last.settimeout(5.0)
        reader, frames = _FrameReader(), []
        while not frames:
            data = last.recv(65536)
            assert data, "the child closed the queued connection"
            frames = reader.feed(data)
        assert decode(frames[0]).payload == b"late"
    finally:
        for sock in clients:
            sock.close()
        child.stdin.close()
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        child.stdout.close()


def _run_child(code):
    """Run code in a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ)
    src = str(Path(tcp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout), child.stderr


# Both scenarios run on a private _Loop in a child process, so that the
# loop's thread ends with the child and no other test shares the loop.
_LOOP_PRELUDE = """
import json, selectors, socket, threading, time
from meshcache import tcp
from meshcache.wire import Message, decode, encode

def start(loop, link, payload, finished):
    task = tcp._Task(loop, link.exchange(Message.request("M", payload)), finished)
    loop.hand_in(task.step)

def read_requests(conn, count):
    reader, frames = tcp._FrameReader(), []
    while len(frames) < count:
        frames += reader.feed(conn.recv(65536))
    return [decode(frame) for frame in frames]
"""

_BROKEN_CONNECTION = _LOOP_PRELUDE + """
loop = tcp._Loop()
peer = socket.create_server(("127.0.0.1", 0))
peer.settimeout(10.0)
broken, healthy = tcp.TcpLink(peer.getsockname()[:2]), tcp.TcpLink(peer.getsockname()[:2])

def boom(conn, frame):
    raise RuntimeError("boom")

broken._on_frame = boom  # the link's connection hands it every frame
outcomes, all_done = {}, threading.Event()

def finisher(name):
    def finished(response, error):
        outcomes[name] = f"{type(error).__name__}: {error}" if error else response.payload.decode()
        if len(outcomes) == 3:
            all_done.set()
    return finished

start(loop, broken, b"a1", finisher("a1"))
start(loop, broken, b"a2", finisher("a2"))
conn_a, _ = peer.accept()
conn_a.settimeout(10.0)
first, _ = read_requests(conn_a, 2)
start(loop, healthy, b"b", finisher("b"))
conn_b, _ = peer.accept()
conn_b.settimeout(10.0)
(request_b,) = read_requests(conn_b, 1)
conn_a.sendall(encode(Message.response("M", b"a", request_id=first.request_id)))
a_closed = conn_a.recv(1) == b""
conn_b.sendall(encode(Message.response("M", b"answered", request_id=request_b.request_id)))
all_done.wait(10.0)
print(json.dumps({"outcomes": outcomes, "a_closed": a_closed}))
"""


def test_a_connection_callback_that_raises_closes_only_that_connection():
    report, stderr = _run_child(_BROKEN_CONNECTION)
    outcomes = report["outcomes"]
    assert report["a_closed"]
    for name in ("a1", "a2"):
        assert outcomes[name].startswith("TransportError") and "boom" in outcomes[name]
    assert outcomes["b"] == "answered"  # the other connection and the loop carry on
    assert stderr.count("Traceback") == 1 and "RuntimeError: boom" in stderr


_FAILING_SELECT = _LOOP_PRELUDE + """
class FailingSelector(selectors.DefaultSelector):
    failing, calls = True, 0

    def select(self, timeout=None):
        if FailingSelector.failing:
            FailingSelector.calls += 1
            raise OverflowError("timeout is too large")
        return super().select(timeout)

selectors.DefaultSelector = FailingSelector
loop = tcp._Loop()
silent = socket.create_server(("127.0.0.1", 0))  # accepts, never answers
link = tcp.TcpLink(silent.getsockname()[:2], timeout_s=0.2)
outcome, done, handed_in = [], threading.Event(), threading.Event()
started = time.monotonic()
start(loop, link, b"x", lambda response, error: (outcome.append(f"{type(error).__name__}: {error}"), done.set()))
loop.hand_in(handed_in.set)
done.wait(10.0)
waited = time.monotonic() - started
calls = FailingSelector.calls
FailingSelector.failing = False
recovered = threading.Event()
loop.hand_in(recovered.set)
print(json.dumps({
    "outcome": outcome, "waited": waited, "calls": calls,
    "handed_in": handed_in.is_set(), "recovered": recovered.wait(5.0),
}))
"""


def test_a_failing_select_is_reported_once_and_retried_without_spinning():
    report, stderr = _run_child(_FAILING_SELECT)
    # The link's deadline still fires, and a handed-in callback still runs.
    assert len(report["outcome"]) == 1 and "timed out" in report["outcome"][0]
    assert report["outcome"][0].startswith("TransportError")
    assert report["handed_in"] and report["recovered"]
    # The pause starts at 1 ms and doubles up to 1 s, so the deadline 0.2 s
    # out fires after about 9 calls; a spinning loop would call select()
    # hundreds of thousands of times in this while.
    assert 0.2 <= report["waited"] < 5.0
    assert report["calls"] < 20, report
    assert stderr.count("Traceback") == 1 and "timeout is too large" in stderr


_COALESCING = _LOOP_PRELUDE + """
class CountingSocket:
    '''One end of a socketpair that counts its send() calls.'''

    def __init__(self, sock):
        self.sock, self.sends = sock, 0

    def send(self, data):
        self.sends += 1
        return self.sock.send(data)

    def __getattr__(self, name):
        return getattr(self.sock, name)

loop = tcp._Loop()
ours, peer = socket.socketpair()
ours.setblocking(False)
peer.settimeout(10.0)
counted = CountingSocket(ours)
closed = []
conn = loop.run_sync(
    lambda: tcp._Connection(loop, counted, lambda c, f: None, lambda c, r: closed.append(str(r)))
)

def received(count):
    messages = read_requests(peer, count)
    loop.run_sync(lambda: None)  # the turn that wrote them has ended
    return [m.payload.decode() for m in messages]

def frame(payload):
    return encode(Message.request("M", payload.encode()))

report = {}
loop.run_sync(lambda: [conn.write(frame(p)) for p in ("a", "b", "c")])
report["one_turn"] = [received(3), counted.sends]
counted.sends = 0
loop.run_sync(lambda: conn.write(frame("d")))
loop.run_sync(lambda: conn.write(frame("e")))
report["two_turns"] = [received(2), counted.sends]

def write_and_close():
    conn.write(frame("last"))
    conn.close(ConnectionError("done"))

loop.run_sync(write_and_close)
report["closed"] = [received(1), peer.recv(1).decode(), closed]
print(json.dumps(report))
"""


def test_frames_written_in_one_turn_leave_in_one_send():
    report, _ = _run_child(_COALESCING)
    # Three frames written in one turn: one send(), in the order written.
    assert report["one_turn"] == [["a", "b", "c"], 1]
    # One frame in each of two turns: a send() each.
    assert report["two_turns"] == [["d", "e"], 2]
    # A frame written in the same turn as close() reaches the peer before EOF.
    assert report["closed"] == [["last"], "", ["done"]]


def test_a_frame_bigger_than_the_send_buffer_arrives_whole_and_in_order(monkeypatch):
    big = random.Random(25).randbytes(1024 * 1024)
    remainders = []
    flush = tcp._Connection._flush

    def counting_flush(conn):
        remainders.append(len(conn._out))
        flush(conn)

    def exchange(link, payload, finished):
        response = yield from link.exchange(Message.request("Echo", payload))
        finished.append((len(response.payload), response.payload == payload))

    with serve(echo_handler) as handle, TcpLink(handle.address) as link:
        finished = []
        run_actors([exchange(link, b"warm", finished)])
        loop = tcp._the_loop()

        def shrink():
            socks = [link._conn._sock] + [conn._sock for conn in handle._conns]
            for sock in socks:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            return len(socks)

        assert loop.run_sync(shrink) == 2
        monkeypatch.setattr(tcp._Connection, "_flush", counting_flush)
        # Both requests are written in one turn, the big one first, and the
        # server answers them in the order they arrive: each small frame
        # waits behind the big one on its connection.
        run_actors([exchange(link, big, finished), exchange(link, b"after", finished)])
    assert finished == [(4, True), (len(big), True), (5, True)]
    # The socket took only part of the big frame in one send(): the rest
    # left on EVENT_WRITE.
    assert remainders and max(remainders) > 0
