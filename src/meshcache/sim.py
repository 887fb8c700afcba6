"""Deterministic discrete-event scheduler and virtual-time links.

The kernel owns a VirtualClock and a heap of (time, sequence, callback)
events. Actors run as Tasks: generators yielding Sleep effects (see
effects.py), each of which schedules the task's next step. Everything is
single-threaded; with a fixed spawn order and fixed RNG seeds, two runs
produce identical event orders and therefore byte-identical logs.

A VirtualLink models one hop of the topology as a generator step run
inside the caller's task: `yield from link.exchange(request)` sleeps the
link latency, runs the target handler (which may exchange through further
links), and sleeps the same latency on the way back.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Generator

from .clock import VirtualClock, seconds_to_ns
from .effects import Handler, Sleep, invoke_handler
from .wire import Message


class Task:
    """A running generator inside the simulation."""

    def __init__(self, sim: "Simulation", gen: Generator) -> None:
        self._sim = sim
        self._gen = gen

    def _step(self) -> None:
        try:
            effect = self._gen.send(None)
        except StopIteration:
            return
        if not isinstance(effect, Sleep):
            raise TypeError(f"unknown effect {effect!r}")
        self._sim.call_after(effect.duration_ns, self._step)


class VirtualLink:
    """Link over the event loop; use via `yield from link.exchange(m)`.

    Symmetric latency is applied on delivery and on the response leg. The
    target handler is isolated exactly like a live server isolates it: an
    uncaught exception becomes a status-ERROR response.
    """

    def __init__(self, handler: Handler, latency_ns: int = 0) -> None:
        self._handler = handler
        self.latency_ns = latency_ns

    def exchange(self, request: Message) -> Generator:
        yield Sleep(self.latency_ns)
        response = yield from invoke_handler(self._handler, request)
        yield Sleep(self.latency_ns)
        return response


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
        return VirtualLink(handler, seconds_to_ns(latency_s))
