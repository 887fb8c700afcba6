"""The plain heap loop that meshcache.sim's scheduler must agree with.

Every Sleep pushes the task's wake-up onto the heap, and events are popped
in (time, sequence) order; nothing is resumed in place. Its links yield
both hop legs as Sleeps, so every leg goes through the heap too. Tests swap
ReferenceSimulation in for meshcache.sim.Simulation (or harness.Simulation)
and require identical traces and outputs.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Generator

from meshcache.clock import VirtualClock, seconds_to_ns
from meshcache.effects import Handler, Sleep, invoke_handler
from meshcache.wire import Message


class ReferenceLink:
    def __init__(self, handler: Handler, latency_ns: int = 0) -> None:
        self._handler = handler
        self._latency = Sleep(latency_ns)

    def exchange(self, request: Message) -> Generator:
        yield self._latency
        response = yield from invoke_handler(self._handler, request)
        yield self._latency
        return response


class ReferenceTask:
    def __init__(self, sim: "ReferenceSimulation", gen: Generator) -> None:
        self._sim = sim
        self._gen = gen

    def _step(self) -> None:
        try:
            effect = self._gen.send(None)
        except StopIteration:
            return
        if not isinstance(effect, Sleep):
            raise TypeError(f"unknown effect {effect!r}")
        self._sim.call_at(self._sim.clock.now_ns() + max(0, effect.duration_ns), self._step)


class ReferenceSimulation:
    def __init__(self, start_ns: int = 0) -> None:
        self.clock = VirtualClock(start_ns)
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    def call_at(self, t_ns: int, fn: Callable[[], None]) -> None:
        if t_ns < self.clock.now_ns():
            raise ValueError("cannot schedule an event in the past")
        heapq.heappush(self._heap, (t_ns, next(self._seq), fn))

    def spawn(self, gen: Generator) -> ReferenceTask:
        task = ReferenceTask(self, gen)
        task._step()
        return task

    def run(self, until_ns: int | None = None) -> None:
        while self._heap:
            t_ns, _, fn = self._heap[0]
            if until_ns is not None and t_ns > until_ns:
                break
            heapq.heappop(self._heap)
            self.clock.advance_to(t_ns)
            fn()
        if until_ns is not None and until_ns > self.clock.now_ns():
            self.clock.advance_to(until_ns)

    def close(self) -> None:
        heap, self._heap = self._heap, []
        for _, _, fn in heap:
            task = getattr(fn, "__self__", None)
            if isinstance(task, ReferenceTask):
                task._gen.close()

    def virtual_link(self, handler: Handler, latency_s: float = 0.0) -> ReferenceLink:
        return ReferenceLink(handler, seconds_to_ns(latency_s))
