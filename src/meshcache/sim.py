"""Deterministic discrete-event scheduler and virtual-time links.

The kernel owns a VirtualClock and a heap of (time, sequence, callback)
events, popped in (time, sequence) order. Actors run as Tasks: generators
yielding Sleep effects (see effects.py), each of which wakes the task
again at now + duration. Everything is single-threaded; with a fixed spawn
order and fixed RNG seeds, two runs produce identical event orders and
therefore byte-identical logs.

Resuming in place. While run() is stepping a task, a Sleep whose wake-up
t is within run()'s horizon and strictly earlier than every queued event
does not go through the heap: the clock advances to t and the task carries
on at once. That leaves the order unchanged: the pushed event would have
been the next one popped. An event already queued at exactly t was pushed
earlier, so it has the lower sequence number and must run first; the
strict comparison keeps every such tie on the heap. spawn() never resumes
in place, since it may run inside another task's step.

A VirtualLink models one hop of the topology as a generator step run
inside the caller's task: `yield from link.exchange(request)` waits the
link latency, runs the target handler (which may exchange through further
links), and waits the same latency on the way back. A hop leg that may
resume in place advances the clock without yielding, so it does not
suspend the caller's `yield from` chain; otherwise it yields its Sleep to
the task, which pushes the wake-up. Either way the rule is the one
Simulation.advance_in_place applies, so every order and output is the
same. Driven outside run(), a link yields every leg.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable, Generator

from .clock import VirtualClock, seconds_to_ns
from .effects import Handler, Sleep, invoke_handler
from .wire import Message


class Task:
    """A running generator inside the simulation."""

    def __init__(self, sim: "Simulation", gen: Generator) -> None:
        self._sim = sim
        self._gen = gen

    def _step(self, in_place: bool = True) -> None:
        """Run the task to its next Sleep and resume or schedule its wake-up.

        in_place=False (spawn) always pushes the wake-up onto the heap.
        """
        sim = self._sim
        outer = sim._in_place
        sim._in_place = in_place
        try:
            while True:
                try:
                    effect = self._gen.send(None)
                except StopIteration:
                    return
                if not isinstance(effect, Sleep):
                    raise TypeError(f"unknown effect {effect!r}")
                if not sim.advance_in_place(effect.duration_ns):
                    sim.call_at(sim.clock.now_ns() + max(0, effect.duration_ns), self._step)
                    return
        finally:
            sim._in_place = outer


class VirtualLink:
    """Link over the event loop; use via `yield from link.exchange(m)`.

    Symmetric latency is applied on delivery and on the response leg. The
    target handler is isolated exactly like a live server isolates it: an
    uncaught exception becomes a status-ERROR response.
    """

    def __init__(self, sim: "Simulation", handler: Handler, latency_ns: int = 0) -> None:
        self._sim = sim
        self._handler = handler
        self._latency_ns = latency_ns
        self._latency = Sleep(latency_ns)

    def exchange(self, request: Message) -> Generator:
        if not self._sim.advance_in_place(self._latency_ns):
            yield self._latency
        response = yield from invoke_handler(self._handler, request)
        if not self._sim.advance_in_place(self._latency_ns):
            yield self._latency
        return response


class Simulation:
    """Event loop, clock, and task spawner for one virtual-time run."""

    def __init__(self, start_ns: int = 0) -> None:
        self.clock = VirtualClock(start_ns)
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        # The horizon of the run() in progress; tasks resume in place only
        # up to it, so a run sliced by until_ns processes the same events.
        self._until_ns: float = math.inf
        # True while run() steps a task that may resume in place; spawn()
        # clears it for the steps it runs, even inside another task's step.
        self._in_place = False

    def advance_in_place(self, duration_ns: int) -> bool:
        """Advance the clock past a Sleep of duration_ns if it may resume in place.

        Returns False, leaving the clock alone, when the wake-up must go
        through the heap: outside a task stepped by run(), past run()'s
        horizon, or not strictly before every queued event.
        """
        if not self._in_place:
            return False
        t_ns = self.clock.now_ns()
        if duration_ns > 0:
            t_ns += duration_ns
        if t_ns > self._until_ns or (self._heap and self._heap[0][0] <= t_ns):
            return False
        self.clock.advance_to(t_ns)
        return True

    def call_at(self, t_ns: int, fn: Callable[[], None]) -> None:
        if t_ns < self.clock.now_ns():
            raise ValueError("cannot schedule an event in the past")
        heapq.heappush(self._heap, (t_ns, next(self._seq), fn))

    def spawn(self, gen: Generator) -> Task:
        """Start a task immediately at the current instant."""
        task = Task(self, gen)
        task._step(in_place=False)
        return task

    def run(self, until_ns: int | None = None) -> None:
        """Process events in (time, insertion) order until the heap drains.

        With until_ns, stops before the first event past that instant and
        leaves it queued; the clock is advanced to until_ns regardless.
        A task resumed in place never runs past until_ns either.
        """
        self._until_ns = math.inf if until_ns is None else until_ns
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
