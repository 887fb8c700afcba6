"""Deterministic event loop, effect interpretation, virtual links."""

import random

import pytest

from meshcache.clock import NS_PER_S, VirtualClock, seconds_to_ns
from meshcache.effects import Call, DirectLink, Sleep, TransportError, drive, invoke_handler
from meshcache.sim import Simulation
from meshcache.wire import Message

from reference_scheduler import ReferenceSimulation


def test_virtual_clock_only_moves_forward():
    clock = VirtualClock()
    clock.advance_to(5)
    assert clock.now_ns() == 5
    with pytest.raises(ValueError):
        clock.advance_to(4)
    with pytest.raises(RuntimeError):
        clock.sleep_until(10)


def test_events_fire_in_time_order_with_fifo_ties():
    sim = Simulation()
    fired = []
    sim.call_at(20, lambda: fired.append("late"))
    sim.call_at(10, lambda: fired.append("a"))
    sim.call_at(10, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "late"]
    assert sim.clock.now_ns() == 20


def test_cannot_schedule_into_the_past():
    sim = Simulation()
    sim.call_at(10, lambda: sim.call_at(5, lambda: None))
    with pytest.raises(ValueError):
        sim.run()


def test_run_until_leaves_later_events_queued():
    sim = Simulation()
    fired = []
    sim.call_at(10, lambda: fired.append(10))
    sim.call_at(30, lambda: fired.append(30))
    sim.run(until_ns=20)
    assert fired == [10]
    assert sim.clock.now_ns() == 20  # clock still advances to the horizon
    sim.run()
    assert fired == [10, 30]


def test_sleep_effect_advances_virtual_time():
    sim = Simulation()
    seen = []

    def actor():
        seen.append(sim.clock.now_ns())
        yield Sleep(3 * NS_PER_S)
        seen.append(sim.clock.now_ns())

    sim.spawn(actor())
    sim.run()
    assert seen == [0, 3 * NS_PER_S]


def test_call_through_virtual_link_applies_latency_both_ways():
    sim = Simulation()
    server_times = []

    def server(request):
        server_times.append(sim.clock.now_ns())
        return Message.response(request.method, b"pong")

    link = sim.virtual_link(server, latency_s=0.5)
    got = []

    def client():
        response = yield from link.exchange(Message.request("Ping"))
        got.append((sim.clock.now_ns(), response.payload))

    sim.spawn(client())
    sim.run()
    assert server_times == [seconds_to_ns(0.5)]
    assert got == [(seconds_to_ns(1.0), b"pong")]


def test_virtual_link_rejects_blocking_send():
    # A virtual hop has no blocking send, and the scheduler refuses the
    # Call effect a blocking link would ask drive() to perform.
    sim = Simulation()
    link = sim.virtual_link(lambda r: Message.response(r.method))
    assert not hasattr(link, "send")

    def actor():
        yield Call(link, Message.request("M"))

    with pytest.raises(TypeError):
        sim.spawn(actor())


def test_handler_exception_becomes_error_response():
    sim = Simulation()

    def bad_handler(request):
        raise RuntimeError("kaboom")

    link = sim.virtual_link(bad_handler)
    out = []

    def client():
        response = yield from link.exchange(Message.request("M"))
        out.append(response)

    sim.spawn(client())
    sim.run()
    assert out[0].status == "error"
    assert b"kaboom" in out[0].payload


def failing_handler(case, link):
    """A handler that breaks the isolation contract the way case names;
    a nested hop goes through link."""

    def plain_raises(request):
        raise ValueError("plain handler failed")

    def generator_raises(request):
        raise KeyError("generator failed")
        yield  # pragma: no cover - makes this a generator function

    def raises_after_hop(request):
        response = yield from link.exchange(request)
        raise RuntimeError(f"failed after {response.payload!r}")

    def returns_request(request):
        return request

    def returns_non_message(request):
        return "junk"

    return locals()[case]


@pytest.mark.parametrize(
    "case",
    ["plain_raises", "generator_raises", "raises_after_hop", "returns_request", "returns_non_message"],
)
def test_virtual_hop_isolates_a_handler_as_invoke_handler_does(case):
    def echo(request):
        return Message.response(request.method, b"echo:" + request.payload)

    request = Message.request("M", b"p")
    sim = Simulation()
    link = sim.virtual_link(failing_handler(case, sim.virtual_link(echo, 0.001)), 0.001)
    got = []

    def client():
        got.append((yield from link.exchange(request)))

    sim.spawn(client())
    sim.run()

    clock = VirtualClock()
    expected = drive(invoke_handler(failing_handler(case, DirectLink(echo, clock)), request), clock)
    assert expected.status == "error"
    assert got == [expected]


def test_two_hop_chain_runs_inside_the_callers_task(monkeypatch):
    sim = Simulation()
    spawned = []
    real_spawn = Simulation.spawn

    def counting_spawn(self, gen):
        spawned.append(gen)
        return real_spawn(self, gen)

    monkeypatch.setattr(Simulation, "spawn", counting_spawn)
    # A handler that itself calls through a second link, proxy style.
    latency_s = 0.25
    backend = sim.virtual_link(lambda r: Message.response(r.method, b"deep"), latency_s)

    def proxy(request):
        return (yield from backend.exchange(request))

    front = sim.virtual_link(proxy, latency_s)
    done = []

    def client():
        response = yield from front.exchange(Message.request("M"))
        done.append((sim.clock.now_ns(), response.payload))

    sim.spawn(client())
    sim.run()
    assert done == [(seconds_to_ns(4 * latency_s), b"deep")]
    assert len(spawned) == 1


def test_identical_spawn_order_gives_identical_event_order():
    def trace():
        sim = Simulation()
        events = []

        def actor(name, delays):
            for d in delays:
                yield Sleep(d)
                events.append((sim.clock.now_ns(), name))

        sim.spawn(actor("a", [5, 5, 5]))
        sim.spawn(actor("b", [3, 7, 5]))
        sim.run()
        return events

    assert trace() == trace()


# --- resuming in place keeps the (time, sequence) order ---


def test_sleep_zero_runs_after_an_event_already_queued_at_now():
    sim = Simulation()
    order = []

    def actor():
        yield Sleep(5)
        sim.call_at(5, lambda: order.append("queued at 5"))
        yield Sleep(0)
        order.append(("woke", sim.clock.now_ns()))

    sim.spawn(actor())
    sim.call_at(5, lambda: order.append("queued first"))
    sim.run()
    assert order == ["queued first", "queued at 5", ("woke", 5)]


def test_tasks_waking_at_the_same_instant_keep_their_push_order():
    sim = Simulation()
    order = []

    def actor(name, first):
        yield Sleep(first)
        order.append((sim.clock.now_ns(), name))
        yield Sleep(10 - first)
        order.append((sim.clock.now_ns(), name))
        yield Sleep(0)
        order.append((sim.clock.now_ns(), name))

    sim.spawn(actor("a", 3))
    sim.spawn(actor("b", 6))
    sim.run()
    assert order == [(3, "a"), (6, "b"), (10, "a"), (10, "b"), (10, "a"), (10, "b")]


def test_a_task_resumed_in_place_stops_at_the_horizon():
    # With one task the heap is empty whenever it sleeps, so only the
    # horizon stops it; sliced runs must replay the single run exactly.
    def trace(slices):
        sim = Simulation()
        seen = []

        def ticker():
            for d in [1, 0, 0, 2, 1, 0, 3, 0, 1, 1, 0, 5]:
                yield Sleep(d)
                seen.append(sim.clock.now_ns())

        def other():
            for d in [2, 0, 1, 4, 0, 0, 2]:
                yield Sleep(d)
                seen.append(-sim.clock.now_ns())

        sim.spawn(ticker())
        sim.spawn(other())
        for until in slices:
            sim.run(until)
            assert sim.clock.now_ns() == until
            assert all(abs(t) <= until for t in seen)
        sim.run()
        return seen

    whole = trace([])
    assert trace([0, 1, 3, 4, 5, 7, 8, 9, 12]) == whole
    assert trace(range(15)) == whole

    sim = Simulation()
    seen = []

    def alone():
        for _ in range(10):
            yield Sleep(1)
            seen.append(sim.clock.now_ns())

    sim.spawn(alone())
    sim.run(until_ns=4)
    assert seen == [1, 2, 3, 4] and sim.clock.now_ns() == 4
    sim.run()
    assert seen == list(range(1, 11))


def test_spawn_never_resumes_in_place():
    sim = Simulation()
    seen = []

    def child():
        seen.append(("child starts", sim.clock.now_ns()))
        yield Sleep(5)
        seen.append(("child wakes", sim.clock.now_ns()))

    def parent():
        yield Sleep(1)
        sim.spawn(child())
        seen.append(("parent", sim.clock.now_ns()))
        yield Sleep(1)
        seen.append(("parent", sim.clock.now_ns()))

    sim.spawn(child())
    assert seen == [("child starts", 0)] and sim.clock.now_ns() == 0
    sim.spawn(parent())
    sim.run()
    assert seen == [
        ("child starts", 0),
        ("child starts", 1),
        ("parent", 1),
        ("parent", 2),
        ("child wakes", 5),
        ("child wakes", 6),
    ]


@pytest.mark.parametrize("latency_ns", [0, 3])
def test_a_hop_leg_tied_with_a_queued_event_resumes_behind_it(latency_ns):
    # Each leg of the first exchange wakes exactly when an event already
    # queued is due: one queued before the run, one by the server, and a
    # second task's wake-up. The leg must run after them, as a pushed Sleep
    # would. The second exchange meets an empty heap and resumes in place.
    def trace(sim_class):
        sim = sim_class()
        order = []

        def server(request):
            if not any(step[0] == "server" for step in order):
                sim.call_at(
                    sim.clock.now_ns() + latency_ns, lambda: order.append(("queued by server",))
                )
            order.append(("server", sim.clock.now_ns()))
            return Message.response(request.method)

        link = sim.virtual_link(server, latency_ns / NS_PER_S)

        def client():
            yield Sleep(10)
            order.append(("sent", sim.clock.now_ns()))
            for _ in range(2):
                yield from link.exchange(Message.request("M"))
                order.append(("answered", sim.clock.now_ns()))

        def other():
            yield Sleep(10 + 2 * latency_ns)
            order.append(("other", sim.clock.now_ns()))

        sim.spawn(client())
        sim.spawn(other())
        sim.call_at(10 + latency_ns, lambda: order.append(("queued at delivery",)))
        sim.run()
        return order

    expected = trace(ReferenceSimulation)
    assert trace(Simulation) == expected
    first, second = 10 + latency_ns, 10 + 2 * latency_ns
    if latency_ns == 0:
        assert expected[:6] == [
            ("sent", 10), ("other", 10), ("queued at delivery",),
            ("server", 10), ("queued by server",), ("answered", 10),
        ]
    else:
        assert expected[:6] == [
            ("sent", 10), ("queued at delivery",), ("server", first),
            ("other", second), ("queued by server",), ("answered", second),
        ]
    assert expected[6:] == [("server", second + latency_ns), ("answered", second + 2 * latency_ns)]


def test_a_link_in_a_spawned_task_never_resumes_in_place():
    # spawn() inside another task's step must not let the child's hop legs
    # resume in place, and the parent carries on in place afterwards.
    def trace(sim_class):
        sim = sim_class()
        order = []

        def server(request):
            order.append(("server", sim.clock.now_ns()))
            return Message.response(request.method)

        link = sim.virtual_link(server)

        def child():
            yield from link.exchange(Message.request("M"))
            order.append(("child answered", sim.clock.now_ns()))

        def parent():
            yield Sleep(1)
            sim.spawn(child())
            order.append(("parent", sim.clock.now_ns()))
            yield Sleep(1)
            yield from link.exchange(Message.request("M"))
            order.append(("parent answered", sim.clock.now_ns()))

        sim.spawn(parent())
        sim.run()
        return order

    expected = [
        ("parent", 1), ("server", 1), ("child answered", 1), ("server", 2), ("parent answered", 2)
    ]
    assert trace(ReferenceSimulation) == expected
    assert trace(Simulation) == expected


def test_a_virtual_link_driven_outside_run_yields_both_legs():
    sim = Simulation()
    link = sim.virtual_link(lambda r: Message.response(r.method, b"x"), latency_s=0.5)
    gen = link.exchange(Message.request("M"))
    assert next(gen) == Sleep(seconds_to_ns(0.5))
    assert gen.send(None) == Sleep(seconds_to_ns(0.5))
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value.payload == b"x"
    assert sim.clock.now_ns() == 0


def test_random_tasks_match_the_reference_scheduler():
    # Many tasks with tied and zero sleeps, plain callbacks at fixed
    # instants, a horizon and sliced runs: the resumed-in-place trace is
    # the plain heap loop's trace.
    def trace(sim_class, seed, slices):
        rng = random.Random(seed)
        sim = sim_class()
        seen = []

        def actor(name):
            for _ in range(rng.randint(1, 30)):
                yield Sleep(rng.choice([0, 0, 0, 1, 2, 5]))
                seen.append((sim.clock.now_ns(), name))

        for name in range(rng.randint(1, 5)):
            sim.spawn(actor(name))
        for t in sorted(rng.sample(range(40), 6)):
            sim.call_at(t, lambda t=t: seen.append((t, "callback")))
        for until in slices:
            sim.run(until)
        sim.run(60)
        return seen, sim.clock.now_ns(), len(sim._heap)

    for seed in range(40):
        slices = sorted(random.Random(-seed).sample(range(50), seed % 5))
        expected = trace(ReferenceSimulation, seed, [])
        assert trace(Simulation, seed, slices) == expected
        assert trace(Simulation, seed, []) == expected


def test_task_runs_to_completion():
    sim = Simulation()
    finished = []

    def worker():
        yield Sleep(1)
        finished.append(sim.clock.now_ns())
        return 42

    sim.spawn(worker())
    sim.run()
    assert finished == [1]
    sim.run()  # nothing is left queued once the generator has returned
    assert finished == [1] and sim.clock.now_ns() == 1


def test_unknown_effect_raises():
    sim = Simulation()

    def actor():
        yield "not an effect"

    with pytest.raises(TypeError):
        sim.spawn(actor())


# --- the live-side interpreter (drive) against a virtual clock ---


def test_drive_runs_plain_and_generator_handlers():
    clock = VirtualClock()
    plain = invoke_handler(lambda r: Message.response(r.method, b"x"), Message.request("M"))
    assert drive(plain, clock).payload == b"x"

    def gen_handler(request):
        return Message.response(request.method, b"y")
        yield  # pragma: no cover - makes this a generator function

    out = drive(invoke_handler(gen_handler, Message.request("M")), clock)
    assert out.payload == b"y"


def test_drive_throws_transport_errors_into_the_actor():
    clock = VirtualClock()

    class FlakyLink:
        def __init__(self):
            self.calls = 0

        def send(self, request):
            self.calls += 1
            if self.calls == 1:
                raise TransportError("first try fails")
            return Message.response(request.method, b"second")

    link = FlakyLink()

    def actor():
        try:
            response = yield Call(link, Message.request("M"))
        except TransportError:
            response = yield Call(link, Message.request("M"))
        return response

    assert drive(actor(), clock).payload == b"second"


def test_drive_propagates_unhandled_transport_errors():
    clock = VirtualClock()

    class DeadLink:
        def send(self, request):
            raise TransportError("no route")

    def actor():
        yield Call(DeadLink(), Message.request("M"))

    with pytest.raises(TransportError):
        drive(actor(), clock)


def test_direct_link_exchange_runs_inside_a_simulation_task():
    sim = Simulation()
    link = DirectLink(lambda r: Message.response(r.method, b"now"), sim.clock)
    got = []

    def actor():
        yield Sleep(5)
        response = yield from link.exchange(Message.request("M"))
        got.append((sim.clock.now_ns(), response.payload))

    sim.spawn(actor())
    sim.run()
    assert got == [(5, b"now")]


def test_direct_link_is_synchronous_and_isolating():
    clock = VirtualClock()
    link = DirectLink(lambda r: Message.response(r.method, r.payload * 2), clock)
    assert link.send(Message.request("M", b"ab")).payload == b"abab"

    def exploding(request):
        raise ValueError("nope")

    bad = DirectLink(exploding, clock)
    response = bad.send(Message.request("M"))
    assert response.status == "error" and b"nope" in response.payload


def test_handler_returning_non_message_is_an_error_response():
    clock = VirtualClock()
    link = DirectLink(lambda r: "junk", clock)
    assert link.send(Message.request("M")).status == "error"
    echoes_request = DirectLink(lambda r: r, clock)
    assert echoes_request.send(Message.request("M")).status == "error"
