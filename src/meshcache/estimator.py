"""Estimator sidecar: always-fresh forwarding plus TTL annotation.

The estimator never answers from local state. Every request goes to the
upstream server; the fresh response is digested, folded into the per-key
observation history, and returned with "cache-control: max-age=N"
metadata where N comes from the configured estimation algorithm. Error
responses pass through untouched (no history update, no TTL: errors are
not cacheable).

Methods on the blacklist (exact names or trailing-'*' prefixes) are
annotated max-age=0 and never gain a history entry, so state-mutating
calls can be excluded from caching.

The history table is keyed on the request itself, the (method, payload)
tuple, as the cache's store is; only the response body is digested.

A housekeeping sweep drops entries idle longer than housekeeping_after
so the table tracks only recently requested keys.

The TTL's text and its "max-age=N" value come from one bounded memo, so
an estimate looks both up instead of paying a str() and a concatenation.
"""

from __future__ import annotations

import math
from collections.abc import Generator, Iterable
from functools import lru_cache

from .cache import MAX_AGE_CACHE_SIZE
from .clock import NS_PER_S, Clock, seconds_to_ns
from .digests import response_digest
from .effects import Link, Sleep
from .eventlog import EventLog
from .ttl import (
    DEFAULT_MAX_TTL_CAP,
    AlgorithmConfig,
    ObservationHistory,
    empty_history,
    estimate,
    observe,
)
from .wire import STATUS_OK, Message, validate_method_name

DEFAULT_HOUSEKEEPING_AFTER_S = 300.0


def validate_blacklist(patterns: Iterable[str]) -> tuple[str, ...]:
    """Check blacklist patterns up front: method-name rules, '*' only trailing."""
    checked = []
    for pattern in patterns:
        name = pattern[:-1] if pattern.endswith("*") else pattern
        if "*" in name:
            raise ValueError(f"'*' is only allowed as a trailing wildcard: {pattern!r}")
        if name:
            validate_method_name(name)
        elif not pattern:
            raise ValueError("empty blacklist pattern")
        checked.append(pattern)
    return tuple(checked)


def validate_housekeeping_after(seconds: float) -> None:
    """Check a housekeeping window up front: positive, and finite in nanoseconds."""
    if not (seconds > 0 and math.isfinite(seconds * NS_PER_S)):
        raise ValueError(
            f"housekeeping_after_s must be positive and finite in nanoseconds, got {seconds}"
        )


def validate_max_ttl_cap(cap: int | None) -> None:
    """Check a TTL cap up front: None (no cap) or an integer >= 0 (0: never cache)."""
    if cap is not None and (isinstance(cap, bool) or not isinstance(cap, int) or cap < 0):
        raise ValueError(f"max_ttl_cap must be a non-negative integer or None, got {cap!r}")


@lru_cache(maxsize=MAX_AGE_CACHE_SIZE)
def ttl_texts(ttl: int) -> tuple[str, str]:
    """The TTL as text and as its cache-control value, memoised per TTL."""
    text = str(ttl)
    return text, "max-age=" + text


def blacklist_matches(patterns: Iterable[str], method: str) -> bool:
    for pattern in patterns:
        if pattern.endswith("*"):
            if method.startswith(pattern[:-1]):
                return True
        elif method == pattern:
            return True
    return False


class Estimator:
    """Forwarding sidecar that annotates responses with TTL estimates."""

    def __init__(
        self,
        algorithm: AlgorithmConfig,
        upstream: Link,
        clock: Clock,
        log: EventLog | None = None,
        blacklist: Iterable[str] = (),
        housekeeping_after_s: float = DEFAULT_HOUSEKEEPING_AFTER_S,
        max_ttl_cap: int | None = DEFAULT_MAX_TTL_CAP,
    ) -> None:
        validate_housekeeping_after(housekeeping_after_s)
        validate_max_ttl_cap(max_ttl_cap)
        self._algorithm = algorithm
        self._upstream = upstream
        self._clock = clock
        self._log = log
        self._blacklist = validate_blacklist(blacklist)
        self._housekeeping_after_ns = seconds_to_ns(housekeeping_after_s)
        self._max_ttl_cap = max_ttl_cap
        self._depth = algorithm.history_depth
        self._table: dict[tuple[str, bytes], ObservationHistory] = {}

    @property
    def housekeeping_after_s(self) -> float:
        return self._housekeeping_after_ns / 1e9

    def table_size(self) -> int:
        return len(self._table)

    def handle(self, request: Message) -> Generator:
        """Handler generator: forward upstream, observe, annotate."""
        response = yield from self._upstream.exchange(request)
        if response.status != STATUS_OK:
            return response

        if self._blacklist and blacklist_matches(self._blacklist, request.method):
            return response.with_metadata("cache-control", "max-age=0")

        key = (request.method, request.payload)
        history = self._table.get(key)
        if history is None:
            history = empty_history(self._depth)
        digest = response_digest(response.payload)
        now_ns = self._clock.now_ns()
        history = self._table[key] = observe(history, now_ns, digest)
        ttl = estimate(self._algorithm, history, now_ns, self._max_ttl_cap)
        ttl_text, max_age = ttl_texts(ttl)
        if self._log is not None:
            self._log.record(now_ns, "estimator", request.method, "estimate", ttl_text)
        return response.with_metadata("cache-control", max_age)

    def housekeeping_sweep(self) -> int:
        """Evict entries idle longer than the housekeeping window."""
        now_ns = self._clock.now_ns()
        stale = [
            key
            for key, history in self._table.items()
            if history.last_touched is not None
            and now_ns - history.last_touched > self._housekeeping_after_ns
        ]
        for key in stale:
            del self._table[key]
        return len(stale)


def housekeeping_loop(estimator: Estimator, end_ns: int, clock: Clock) -> Generator:
    """Periodic sweep actor: runs every housekeeping_after/10 until end_ns."""
    interval_ns = seconds_to_ns(estimator.housekeeping_after_s / 10.0)
    while clock.now_ns() + interval_ns <= end_ns:
        yield Sleep(interval_ns)
        estimator.housekeeping_sweep()
