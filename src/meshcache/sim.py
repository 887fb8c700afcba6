"""Deterministic discrete-event scheduler and virtual-time links.

The kernel owns a VirtualClock and a heap of (time, sequence, callback)
events, popped in (time, sequence) order. Actors run as Tasks: generators
yielding Sleep effects (see effects.py), each of which wakes the task
again at now + duration. Everything is single-threaded; with a fixed spawn
order and fixed RNG seeds, two runs produce identical event orders and
therefore byte-identical logs.

Resuming in place. While run() is processing an event, a Sleep whose
wake-up t is within run()'s horizon and strictly earlier than every queued
event does not go through the heap: the clock advances to t and the task
carries on at once. That leaves the order unchanged: the pushed event would
have been the next one popped. An event already queued at exactly t was
pushed earlier, so it has the lower sequence number and must run first;
the strict comparison keeps every such tie on the heap. spawn() never
resumes in place, since it may run inside another task's step.

The rule is one field, _resume_until_ns: the latest instant a wake-up may
resume in place, min(horizon, first queued time - 1) while run() processes
an event and -inf otherwise (outside run(), and for the step spawn()
runs). A wake-up t resumes in place exactly when t <= _resume_until_ns.
_set_in_place() computes it from the heap, which run() does before each
event and spawn() after its step; call_at() lowers it as it pushes. Only
run() pops, and only between events, so the field stays current without
looking at the heap on every Sleep.

Virtual time belongs to the scheduler. The Simulation is the only thing
that advances its VirtualClock: run() moves it to each popped event with
advance_to(), and a wake-up that resumes in place writes the clock's time
as a field, since a wake-up of now + max(0, d) cannot go backwards.

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
the one above, so every order and output is the same. Driven outside
run(), a link yields every leg. A zero-latency leg that resumes in place
leaves the clock's time object as it is: storing now + 0 would put an
equal but new int there, so every row of one request would carry its own
copy of the timestamp.

A run's tasks hold the simulation through their links while the heap
holds the tasks still queued, so a simulation left with queued tasks is a
reference cycle. close() closes those tasks' generators and empties the
heap, after which the simulation is freed as soon as it is dropped.
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

    def _step(self) -> None:
        """Run the task until it finishes or yields a Sleep that must be pushed."""
        sim = self._sim
        clock = sim.clock
        while True:
            try:
                effect = self._gen.send(None)
            except StopIteration:
                return
            if not isinstance(effect, Sleep):
                raise TypeError(f"unknown effect {effect!r}")
            duration_ns = effect.duration_ns
            t_ns = clock._now_ns + duration_ns if duration_ns > 0 else clock._now_ns
            if t_ns > sim._resume_until_ns:
                sim.call_at(t_ns, self._step)
                return
            clock._now_ns = t_ns


class VirtualLink:
    """Link over the event loop; use via `yield from link.exchange(m)`.

    Symmetric latency is applied on delivery and on the response leg. The
    target handler is isolated exactly like a live server isolates it: an
    uncaught exception, or a result that is not a response Message,
    becomes a status-ERROR response.
    """

    def __init__(self, sim: "Simulation", handler: Handler, latency_ns: int = 0) -> None:
        self._sim = sim
        self._clock = sim.clock
        self._handler = handler
        # A negative latency waits no time, as a negative Sleep does.
        self._latency_ns = max(0, latency_ns)
        self._latency = Sleep(self._latency_ns)

    def exchange(self, request: Message) -> Generator:
        clock = self._clock
        latency_ns = self._latency_ns
        t_ns = clock._now_ns + latency_ns
        if t_ns > self._sim._resume_until_ns:
            yield self._latency
        elif latency_ns:
            clock._now_ns = t_ns
        try:
            response = self._handler(request)
            if isinstance(response, GeneratorType):
                response = yield from response
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            response = handler_failure(request, exc)
        else:
            if not isinstance(response, Message) or response.kind == KIND_REQUEST:
                response = handler_failure(request)
        t_ns = clock._now_ns + latency_ns
        if t_ns > self._sim._resume_until_ns:
            yield self._latency
        elif latency_ns:
            clock._now_ns = t_ns
        return response


class Simulation:
    """Event loop, clock, and task spawner for one virtual-time run."""

    def __init__(self) -> None:
        self.clock = VirtualClock()
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        # The horizon of the run() in progress; tasks resume in place only
        # up to it, so a run sliced by until_ns processes the same events.
        self._until_ns: float = math.inf
        # The latest instant a wake-up may resume in place (see the module
        # docstring); -inf while none may.
        self._resume_until_ns: float = -math.inf

    def _set_in_place(self, in_place: bool) -> None:
        if not in_place:
            self._resume_until_ns = -math.inf
        elif self._heap:
            self._resume_until_ns = min(self._until_ns, self._heap[0][0] - 1)
        else:
            self._resume_until_ns = self._until_ns

    def call_at(self, t_ns: int, fn: Callable[[], None]) -> None:
        if t_ns < self.clock._now_ns:
            raise ValueError("cannot schedule an event in the past")
        heapq.heappush(self._heap, (t_ns, next(self._seq), fn))
        if t_ns <= self._resume_until_ns:
            self._resume_until_ns = t_ns - 1

    def spawn(self, gen: Generator) -> Task:
        """Start a task immediately at the current instant."""
        task = Task(self, gen)
        outer_in_place = self._resume_until_ns != -math.inf
        self._set_in_place(False)
        try:
            task._step()
        finally:
            self._set_in_place(outer_in_place)
        return task

    def run(self, until_ns: int | None = None) -> None:
        """Process events in (time, insertion) order until the heap drains.

        With until_ns, stops before the first event past that instant and
        leaves it queued; the clock is advanced to until_ns regardless.
        A task resumed in place never runs past until_ns either.
        """
        self._until_ns = math.inf if until_ns is None else until_ns
        heap = self._heap
        try:
            while heap:
                t_ns, _, fn = heap[0]
                if t_ns > self._until_ns:
                    break
                heapq.heappop(heap)
                self.clock.advance_to(t_ns)
                self._set_in_place(True)
                fn()
        finally:
            self._set_in_place(False)
        if until_ns is not None and until_ns > self.clock.now_ns():
            self.clock.advance_to(until_ns)

    def close(self) -> None:
        """Drop every queued event and close the generators of the tasks it held.

        For the end of a run whose tasks would wake past its last horizon:
        run(until_ns) leaves them queued, so that a later run() can go on.
        """
        heap, self._heap = self._heap, []
        for _, _, fn in heap:
            task = getattr(fn, "__self__", None)
            if isinstance(task, Task):
                task._gen.close()

    def virtual_link(self, handler: Handler, latency_s: float = 0.0) -> VirtualLink:
        return VirtualLink(self, handler, seconds_to_ns(latency_s))
