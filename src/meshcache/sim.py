"""Deterministic discrete-event scheduler and virtual-time links.

The kernel owns a VirtualClock and a heap of (time, sequence, callback)
events. Actors and handlers run as Tasks: generators yielding Sleep and
Call effects (see effects.py). Everything is single-threaded; with a fixed
spawn order and fixed RNG seeds, two runs produce identical event orders
and therefore byte-identical logs.

A VirtualLink models one hop of the topology: a Call through it delivers
the request after the link latency, runs the target handler (itself a
task, so it may make further calls), and delivers the response back after
the same latency.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator

from .clock import VirtualClock, seconds_to_ns
from .effects import Call, Handler, Sleep, TransportError, invoke_handler
from .wire import Message


class Task:
    """A running generator inside the simulation."""

    def __init__(self, sim: "Simulation", gen: Generator) -> None:
        self._sim = sim
        self._gen = gen
        self.done = False
        self.result: Any = None
        self._done_callbacks: list[Callable[[Any], None]] = []

    def add_done_callback(self, fn: Callable[[Any], None]) -> None:
        if self.done:
            fn(self.result)
        else:
            self._done_callbacks.append(fn)

    def _step(self, value: Any = None, error: BaseException | None = None) -> None:
        sim = self._sim
        while True:
            try:
                if error is not None:
                    effect = self._gen.throw(error)
                else:
                    effect = self._gen.send(value)
            except StopIteration as stop:
                self.done = True
                self.result = stop.value
                for fn in self._done_callbacks:
                    fn(self.result)
                self._done_callbacks.clear()
                return
            value, error = None, None
            if isinstance(effect, Sleep):
                sim.call_after(effect.duration_ns, self._step)
                return
            if isinstance(effect, Call):
                link = effect.link
                if isinstance(link, VirtualLink):
                    link._dispatch(effect.message, self)
                    return
                # Non-virtual links (DirectLink in hybrid tests) resolve now;
                # transport failures reach the actor exactly as drive() does.
                try:
                    value = link.send(effect.message)
                except TransportError as exc:
                    error = exc
                continue
            raise TypeError(f"unknown effect {effect!r}")


class VirtualLink:
    """ForwardingInterface over the event loop; use via `yield Call(link, m)`.

    Symmetric latency is applied on delivery and on the response leg. The
    target handler is isolated exactly like a live server isolates it: an
    uncaught exception becomes a status-ERROR response.
    """

    def __init__(self, sim: "Simulation", handler: Handler, latency_ns: int = 0) -> None:
        self._sim = sim
        self._handler = handler
        self.latency_ns = latency_ns

    def send(self, request: Message) -> Message:
        raise RuntimeError(
            "VirtualLink cannot block; yield Call(link, request) from a simulation task"
        )

    def _dispatch(self, request: Message, caller: Task) -> None:
        sim = self._sim

        def deliver() -> None:
            handler_task = sim.spawn(invoke_handler(self._handler, request))
            handler_task.add_done_callback(
                lambda response: sim.call_after(
                    self.latency_ns, lambda: caller._step(response)
                )
            )

        sim.call_after(self.latency_ns, deliver)


class Simulation:
    """Event loop, clock, and task spawner for one virtual-time run."""

    def __init__(self, start_ns: int = 0) -> None:
        self.clock = VirtualClock(start_ns)
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    def call_at(self, t_ns: int, fn: Callable[[], None]) -> None:
        if t_ns < self.clock.now_ns():
            raise ValueError("cannot schedule an event in the past")
        heapq.heappush(self._heap, (t_ns, next(self._seq), fn))

    def call_after(self, delay_ns: int, fn: Callable[[], None]) -> None:
        self.call_at(self.clock.now_ns() + max(0, delay_ns), fn)

    def spawn(self, gen: Generator) -> Task:
        """Start a task immediately at the current instant."""
        task = Task(self, gen)
        task._step()
        return task

    def run(self, until_ns: int | None = None) -> None:
        """Process events in (time, insertion) order until the heap drains.

        With until_ns, stops before the first event past that instant and
        leaves it queued; the clock is advanced to until_ns regardless.
        """
        while self._heap:
            t_ns, _, fn = self._heap[0]
            if until_ns is not None and t_ns > until_ns:
                break
            heapq.heappop(self._heap)
            self.clock.advance_to(t_ns)
            fn()
        if until_ns is not None and until_ns > self.clock.now_ns():
            self.clock.advance_to(until_ns)

    def virtual_link(self, handler: Handler, latency_s: float = 0.0) -> VirtualLink:
        return VirtualLink(self, handler, seconds_to_ns(latency_s))
