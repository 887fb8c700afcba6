"""Monotonic clock abstraction shared by all components.

Every timestamp in the system is an integer count of nanoseconds from an
arbitrary origin. TTL math, cache expiry and CSV rows all derive from this
clock; wall-clock time is never consulted.

SystemClock wraps time.monotonic_ns for live deployments. VirtualClock is
advanced explicitly by the discrete-event scheduler (see sim.py), which is
what makes full-length experiments reproducible and fast.
"""

from __future__ import annotations

import time
from typing import Protocol

NS_PER_S = 1_000_000_000
NS_PER_MS = 1_000_000


def seconds_to_ns(seconds: float) -> int:
    return int(round(seconds * NS_PER_S))


def ns_to_seconds(ns: int) -> float:
    return ns / NS_PER_S


class Clock(Protocol):
    """Monotonic nanosecond clock.

    now_ns() must be non-decreasing across successive calls from one caller.
    """

    def now_ns(self) -> int: ...

    def sleep_until(self, deadline_ns: int) -> None: ...


class SystemClock:
    """Real clock backed by time.monotonic_ns()."""

    def now_ns(self) -> int:
        return time.monotonic_ns()

    def sleep_until(self, deadline_ns: int) -> None:
        while True:
            remaining = deadline_ns - time.monotonic_ns()
            if remaining <= 0:
                return
            time.sleep(remaining / NS_PER_S)


class VirtualClock:
    """Simulated clock; time moves only when the scheduler advances it.

    Tasks running under the scheduler must express waits as Sleep effects
    rather than calling sleep_until, which would otherwise stall the
    single-threaded event loop forever. The scheduler owns the time:
    besides advance_to(), Simulation.advance_in_place() moves _now_ns
    forward as a field.
    """

    def __init__(self, start_ns: int = 0) -> None:
        self._now_ns = start_ns

    def now_ns(self) -> int:
        return self._now_ns

    def sleep_until(self, deadline_ns: int) -> None:
        raise RuntimeError(
            "virtual time cannot block; yield a Sleep effect inside a simulation task"
        )

    def advance_to(self, t_ns: int) -> None:
        if t_ns < self._now_ns:
            raise ValueError(f"clock cannot move backwards: {t_ns} < {self._now_ns}")
        self._now_ns = t_ns
