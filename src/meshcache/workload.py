"""Single-value service plus the sinusoidal two-actor client workload.

The service holds one opaque value behind two methods: GetValue (empty
request, value in the response) and SetValue (value in the request,
empty OK response). The client side runs two actors:

  query actor    reads the expected value from the shared ledger, issues
                 GetValue through the cache, and classifies the response
                 ok / stale / error.
  update actor   writes a fresh unique value (a monotone counter rendered
                 as decimal bytes) straight to the server, then publishes
                 it in the ledger.

One request of either actor is a step, query_once or update_once; the
harness's scripted traces replay the same steps at fixed instants.

Request pacing for both actors is a Poisson arrival process riding a
sinusoid: each inter-request gap is an exponential draw at the
instantaneous rate (mean 1000 / rate_at(t) ms), rounded to a whole
number of milliseconds and clamped to >= 1. The two actors' streams are
numpy's SeedSequence(seed).spawn(2) -> PCG64 -> standard_exponential,
computed bit for bit in pure Python by meshcache.rng, so a run needs no
numpy. Each actor reads its stream as one iterator of standard draws.

Nothing that is the same for every request is built per request: the
GetValue request, the server's SetValue ack and its GetValue response
(rebuilt once per SetValue) are shared; Message is immutable.

The ledger is the staleness oracle. expected_value is published only
after the server acknowledges a SetValue, so the ledger never runs ahead
of the server. A response is counted stale only when it matches neither
the expected value read before the query was issued nor the one current
when the response arrived; update values are unique, so a cached stale
body can never collide with a newer expected value, while an update that
lands mid-flight is not miscounted as staleness.
"""

from __future__ import annotations

import math
from collections.abc import Generator, Iterator
from dataclasses import dataclass, replace

from .clock import NS_PER_MS, NS_PER_S, Clock
from .effects import Link, Sleep, TransportError
from .eventlog import EventLog
from .wire import STATUS_OK, Message

GET_METHOD = "GetValue"
SET_METHOD = "SetValue"

# Update-phase offsets measured against the query sinusoid, keyed by the
# tag used in file names and CLI flags.
PHASE_SHIFTS: dict[str, float] = {
    "0": 0.0,
    "pi4": math.pi / 4,
    "pi2": math.pi / 2,
    "pi": math.pi,
}

DEFAULT_PERIOD_S = 1800.0

GET_REQUEST = Message.request(GET_METHOD)
# The actors build their Sleep with tuple.__new__, skipping the named
# tuple's field constructor: one pause per request.
_new = tuple.__new__
SET_ACK = Message.response(SET_METHOD)


@dataclass(frozen=True)
class SinusoidConfig:
    """rate(t) = mean_rate + amplitude * sin(2*pi*t/period + phase)."""

    mean_rate: float
    amplitude: float
    period_s: float = DEFAULT_PERIOD_S
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.mean_rate, self.amplitude, self.period_s, self.phase))):
            raise ValueError("sinusoid rates, period_s and phase must be finite")
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")
        if not self.mean_rate - self.amplitude > 0:
            raise ValueError("mean_rate - amplitude must stay positive")


# Query rate swings over [1, 10] req/s; update rate over [0.05, 1.1].
QUERY_SINUSOID = SinusoidConfig(mean_rate=5.5, amplitude=4.5)
UPDATE_SINUSOID = SinusoidConfig(mean_rate=0.575, amplitude=0.525)


@dataclass(frozen=True)
class WorkloadConfig:
    """One run's workload: both sinusoids take the run's duration as their
    period, and the update sinusoid is shifted by PHASE_SHIFTS[phase_tag]."""

    duration_s: float = 300.0
    seed: int = 1
    phase_tag: str = "0"

    def __post_init__(self) -> None:
        if self.phase_tag not in PHASE_SHIFTS:
            raise ValueError(
                f"phase_tag must be one of {sorted(PHASE_SHIFTS)}, got {self.phase_tag!r}"
            )
        # The run's timestamps are int64 nanoseconds, as the event log keeps them.
        if isinstance(self.duration_s, bool) or not (
            self.duration_s > 0 and self.duration_s * NS_PER_S < 2**63
        ):
            raise ValueError(
                f"duration_s must be positive and finite in nanoseconds, got {self.duration_s}"
            )
        # A bool passes as a number but result.json would record it as true, and
        # a float seed would fail later in rng's integer arithmetic.
        if type(self.seed) is not int or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")

    @property
    def query(self) -> SinusoidConfig:
        return replace(QUERY_SINUSOID, period_s=self.duration_s)

    @property
    def update(self) -> SinusoidConfig:
        return replace(
            UPDATE_SINUSOID, period_s=self.duration_s, phase=PHASE_SHIFTS[self.phase_tag]
        )

    def actor_rngs(self) -> tuple[Iterator[float], Iterator[float]]:
        """Independent (query, update) iterators of standard exponential
        draws from the run seed: children 0 and 1 of numpy's
        SeedSequence(seed).spawn(2).

        The generator is imported here, not with the module, so a process
        that only serves (a live sidecar) never loads it.
        """
        from .rng import exponential_stream

        return exponential_stream(self.seed, 0), exponential_stream(self.seed, 1)


def rate_at(cfg: SinusoidConfig, t_s: float) -> float:
    return cfg.mean_rate + cfg.amplitude * math.sin(
        2.0 * math.pi * t_s / cfg.period_s + cfg.phase
    )


def next_delay_ms(cfg: SinusoidConfig, t_s: float, draws: Iterator[float]) -> int:
    """Poisson-process inter-request delay in whole milliseconds, at least 1.

    mean_ms * next(draws) is numpy's Generator.exponential(mean_ms) on the
    same stream bit for bit: numpy scales one standard draw.
    """
    mean_ms = 1000.0 / rate_at(cfg, t_s)
    delay_ms = int(round(mean_ms * next(draws)))
    return delay_ms if delay_ms > 1 else 1


class ValueServer:
    """The upstream service: one value, GetValue/SetValue."""

    def __init__(self, initial_value: bytes = b"0") -> None:
        self._get_response = Message.response(GET_METHOD, initial_value)
        self.set_count = 0

    def current_value(self) -> bytes:
        return self._get_response.payload

    def handle(self, request: Message) -> Message:
        if request.method == GET_METHOD:
            return self._get_response
        if request.method == SET_METHOD:
            self._get_response = Message.response(GET_METHOD, request.payload)
            self.set_count += 1
            return SET_ACK
        return Message.error_response(request.method, f"unknown method {request.method}")


class StalenessLedger:
    """Shared truth between the update and query actors.

    One writer (the updater) replaces expected_value; the
    query actor reads it to classify each response. Outcomes are not
    counted here: every actor step logs its outcome, and the harness
    counts the log rows.
    """

    def __init__(self, initial_value: bytes = b"0") -> None:
        self.expected_value = initial_value

    def publish(self, value: bytes) -> None:
        self.expected_value = value


def classify_response(
    response: Message | None, expected_before: bytes, ledger: StalenessLedger
) -> str:
    """ok / stale / error for one GetValue outcome."""
    if response is None or response.status != STATUS_OK:
        return "error"
    if response.payload == expected_before:
        return "ok"
    if response.payload == ledger.expected_value:
        return "ok"
    return "stale"


def query_once(clock: Clock, cache_link: Link, ledger: StalenessLedger, log: EventLog) -> Generator:
    """One GetValue through the cache, classified against the ledger and logged.

    Returns the instant of the log row.
    """
    expected = ledger.expected_value
    try:
        response = yield from cache_link.exchange(GET_REQUEST)
    except TransportError:
        response = None
    outcome = classify_response(response, expected, ledger)
    now_ns = clock.now_ns()
    log.record(now_ns, "client", GET_METHOD, outcome)
    return now_ns


def update_once(
    clock: Clock,
    link: Link,
    ledger: StalenessLedger,
    value: bytes,
    log: EventLog,
) -> Generator:
    """One SetValue of value, published in the ledger once acknowledged, and logged.

    Returns the instant of the log row.
    """
    request = Message.request(SET_METHOD, value)
    response = None
    for _ in range(2):  # one retry on transport failure
        try:
            response = yield from link.exchange(request)
        except TransportError:
            continue
        break
    if response is not None and response.status == STATUS_OK:
        ledger.publish(value)
        outcome = "ok"
    else:
        outcome = "error"
    now_ns = clock.now_ns()
    log.record(now_ns, "client", SET_METHOD, outcome)
    return now_ns


def query_actor(
    sinusoid: SinusoidConfig,
    clock: Clock,
    cache_link: Link,
    ledger: StalenessLedger,
    draws: Iterator[float],
    start_ns: int,
    end_ns: int,
    log: EventLog,
) -> Generator:
    """Issue GetValue at the sinusoid's pace until end_ns."""
    while clock.now_ns() < end_ns:
        logged_ns = yield from query_once(clock, cache_link, ledger, log)
        t_s = (logged_ns - start_ns) / 1e9
        yield _new(Sleep, (next_delay_ms(sinusoid, t_s, draws) * NS_PER_MS,))


def update_actor(
    sinusoid: SinusoidConfig,
    clock: Clock,
    update_link: Link,
    ledger: StalenessLedger,
    draws: Iterator[float],
    start_ns: int,
    end_ns: int,
    log: EventLog,
) -> Generator:
    """Write fresh unique values at the sinusoid's pace until end_ns."""
    counter = 0
    while clock.now_ns() < end_ns:
        counter += 1
        logged_ns = yield from update_once(
            clock, update_link, ledger, str(counter).encode("ascii"), log
        )
        t_s = (logged_ns - start_ns) / 1e9
        yield _new(Sleep, (next_delay_ms(sinusoid, t_s, draws) * NS_PER_MS,))
