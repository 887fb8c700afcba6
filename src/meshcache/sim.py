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

Virtual time belongs to the scheduler. The Simulation is the only thing
that advances its VirtualClock: run() moves it to each popped event with
advance_to(), and advance_in_place() reads and writes the clock's time as
a field, since a wake-up of now + max(0, d) cannot go backwards. It
checks the wake-up against two fields as well: run()'s horizon, and the
time of the first queued event, which a task step reads from the heap
when it starts and call_at() lowers as it pushes (-inf while no task may
resume in place). Only run() pops, and only between steps, so that field
stays the heap's first time without looking at the heap on every Sleep.

A VirtualLink models one hop of the topology as a generator step run
inside the caller's task: `yield from link.exchange(request)` waits the
link latency, runs the target handler (which may exchange through further
links), and waits the same latency on the way back. The handler runs in
the hop's own frame, one frame per hop, isolated as effects.invoke_handler
isolates it: an uncaught exception or a result that is not a response
Message becomes the ERROR response effects.handler_failure() builds. A
hop leg that may resume in place advances the clock without yielding, so
it does not suspend the caller's `yield from` chain; otherwise it yields
its Sleep to the task, which pushes the wake-up. Either way the rule is
the one Simulation.advance_in_place applies, so every order and output is
the same. Driven outside run(), a link yields every leg.
"""

from __future__ import annotations

import heapq
import itertools
import math
from types import GeneratorType
from typing import Callable, Generator

from .clock import VirtualClock, seconds_to_ns
from .effects import Handler, Sleep, handler_failure
from .wire import KIND_REQUEST, Message


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
        outer_in_place = sim._resume_before_ns != -math.inf
        sim._set_in_place(in_place)
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
            sim._set_in_place(outer_in_place)


class VirtualLink:
    """Link over the event loop; use via `yield from link.exchange(m)`.

    Symmetric latency is applied on delivery and on the response leg. The
    target handler is isolated exactly like a live server isolates it: an
    uncaught exception, or a result that is not a response Message,
    becomes a status-ERROR response.
    """

    def __init__(self, sim: "Simulation", handler: Handler, latency_ns: int = 0) -> None:
        self._sim = sim
        self._handler = handler
        self._latency_ns = latency_ns
        self._latency = Sleep(latency_ns)

    def exchange(self, request: Message) -> Generator:
        if not self._sim.advance_in_place(self._latency_ns):
            yield self._latency
        try:
            response = self._handler(request)
            if isinstance(response, GeneratorType):
                response = yield from response
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            response = handler_failure(request, exc)
        else:
            if not isinstance(response, Message) or response.kind == KIND_REQUEST:
                response = handler_failure(request)
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
        # While run() steps a task that may resume in place, the time of
        # the first queued event (inf for none): a wake-up resumes in place
        # only strictly before it. -inf otherwise; spawn() sets -inf for
        # the steps it runs, even inside another task's step.
        self._resume_before_ns: float = -math.inf

    def _set_in_place(self, in_place: bool) -> None:
        if not in_place:
            self._resume_before_ns = -math.inf
        elif self._heap:
            self._resume_before_ns = self._heap[0][0]
        else:
            self._resume_before_ns = math.inf

    def advance_in_place(self, duration_ns: int) -> bool:
        """Advance the clock past a Sleep of duration_ns if it may resume in place.

        Returns False, leaving the clock alone, when the wake-up must go
        through the heap: outside a task stepped by run(), past run()'s
        horizon, or not strictly before every queued event.
        """
        clock = self.clock
        t_ns = clock._now_ns
        if duration_ns > 0:
            t_ns += duration_ns
        if t_ns < self._resume_before_ns and t_ns <= self._until_ns:
            clock._now_ns = t_ns
            return True
        return False

    def call_at(self, t_ns: int, fn: Callable[[], None]) -> None:
        if t_ns < self.clock.now_ns():
            raise ValueError("cannot schedule an event in the past")
        heapq.heappush(self._heap, (t_ns, next(self._seq), fn))
        if t_ns < self._resume_before_ns:
            self._resume_before_ns = t_ns

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
