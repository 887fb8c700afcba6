"""Framed TCP transport: server lifecycle, link behavior, error paths."""

import random
import socket
import struct
import threading
import time

import pytest

from meshcache.clock import NS_PER_MS as MS
from meshcache.clock import SystemClock
from meshcache.effects import Call, Sleep, TransportError, drive
from meshcache.tcp import TcpLink, _FrameReader, run_actors, serve
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

    assert drive(actor(), SystemClock()) == "caught"


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
