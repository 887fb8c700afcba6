"""Framed TCP transport: server lifecycle, link behavior, error paths."""

import socket
import struct
import threading

import pytest

from meshcache.clock import SystemClock
from meshcache.effects import Call, TransportError, drive
from meshcache.tcp import TcpLink, serve
from meshcache.wire import Message, decode, encode


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


def test_close_stops_the_accept_thread():
    handle = serve(echo_handler)
    with TcpLink(handle.address) as link:
        # After one round trip the accept loop is back, blocked in accept().
        assert link.send(Message.request("Echo", b"x")).ok
    handle.close()
    handle._accept_thread.join(timeout=5.0)
    assert not handle._accept_thread.is_alive()


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


def test_concurrent_connections_are_served_in_parallel():
    barrier = threading.Barrier(4, timeout=10.0)

    def handler(request):
        barrier.wait()  # only passes if all requests are in flight at once
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
            t.join()
    assert {r.payload for r in results.values()} == {b"0", b"1", b"2", b"3"}


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
