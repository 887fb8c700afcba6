"""Monotonic clock abstraction shared by all components.

Every timestamp in the system is an integer count of nanoseconds from an
arbitrary origin. TTL math, cache expiry and CSV rows all derive from this
clock; wall-clock time is never consulted.

SystemClock wraps time.monotonic_ns for live deployments. VirtualClock is
advanced explicitly by the discrete-event scheduler (see sim.py), which is
what makes full-length experiments reproducible and fast.

A clock is only read, never waited on: a task waits by yielding a Sleep
effect to its scheduler (sim.py, or the TCP backend's loop).
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


class SystemClock:
    """Real clock backed by time.monotonic_ns()."""

    def now_ns(self) -> int:
        return time.monotonic_ns()


class VirtualClock:
    """Simulated clock; time moves only when the scheduler advances it.

    The scheduler owns the time: besides advance_to(), a wake-up that
    resumes in place (sim.py) moves _now_ns forward as a field.
    """

    def __init__(self, start_ns: int = 0) -> None:
        self._now_ns = start_ns

    def now_ns(self) -> int:
        return self._now_ns

    def advance_to(self, t_ns: int) -> None:
        if t_ns < self._now_ns:
            raise ValueError(f"clock cannot move backwards: {t_ns} < {self._now_ns}")
        self._now_ns = t_ns
