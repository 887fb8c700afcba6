"""Estimator sidecar: always-fresh forwarding plus TTL annotation.

The estimator never answers from local state. Every request goes to the
upstream server; the fresh response is digested, folded into the per-key
observation history, and returned with "cache-control: max-age=N"
metadata where N comes from the configured estimation algorithm. Error
responses pass through untouched (no history update, no TTL: errors are
not cacheable).

Methods on the blacklist (each entry one method name, matched exactly)
are annotated max-age=0 and never gain a history entry, so
state-mutating calls can be excluded from caching.

The history table is keyed on the request itself, the (method, payload)
tuple, as the cache's store is; only the response body is digested.

A housekeeping sweep drops entries idle longer than housekeeping_after
so the table tracks only recently requested keys. It runs on the request
path, after the request's own observation, at most once per tenth of the
window of request time, so nothing needs to run beside the estimator.

The TTL's text and its "max-age=N" value come from one bounded memo, so
an estimate looks both up instead of paying a str() and a concatenation.

A response changes far less often than it is read, so each estimator
keeps two one-entry memos. The digest memo keys on the last body
digested: a body that is that object or equal to it has its digest, since
response_digest is a pure function of the bytes. Equality, not identity,
lets freshly decoded live responses hit it too, so on both paths a miss
between two server updates skips the digest. The annotation memo keys
on the identity of the upstream response and of its "max-age=N" text,
and holds the annotated response built from them. Identity is safe
there: a Message and its bytes payload are immutable, the memo holds its
references so no id is reused while it keys on it, and ttl_texts hands
out one string per TTL. It hits only on the virtual path, where the
server hands the same response object up between two updates; each live
hop decodes a fresh Message, so there every response is copied. Every
observation still goes through observe(), which validates the history it
builds.
"""

from __future__ import annotations

import math
from collections.abc import Generator, Iterable
from functools import lru_cache

from .cache import MAX_AGE_CACHE_SIZE
from .clock import NS_PER_S, Clock, seconds_to_ns
from .digests import response_digest
from .effects import Link
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
MIN_HOUSEKEEPING_AFTER_S = 0.01


def validate_blacklist(names: Iterable[str]) -> frozenset[str]:
    """Check blacklist entries up front: each one exact method name."""
    checked = []
    for name in names:
        # '*' is legal in a method name, so a wildcard pattern would
        # otherwise quietly match only the method of that exact name.
        if "*" in name:
            raise ValueError(f"blacklist entries are exact method names, not patterns: {name!r}")
        validate_method_name(name)
        checked.append(name)
    return frozenset(checked)


@lru_cache(maxsize=MAX_AGE_CACHE_SIZE)
def ttl_texts(ttl: int) -> tuple[str, str]:
    """The TTL as text and as its cache-control value, memoised per TTL."""
    text = str(ttl)
    return text, "max-age=" + text


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
        after, cap = housekeeping_after_s, max_ttl_cap
        if not (after > 0 and math.isfinite(after * NS_PER_S)):
            raise ValueError(
                f"housekeeping_after_s must be positive and finite in nanoseconds, got {after}"
            )
        # The sweep runs at most once per window/10 of request time, so at
        # the floor at most once per ms of it.
        if after < MIN_HOUSEKEEPING_AFTER_S:
            raise ValueError(
                f"housekeeping_after_s must be at least {MIN_HOUSEKEEPING_AFTER_S} s"
                f" (a sweep at most once per ms), got {after}"
            )
        # None: no cap; 0: never cache.
        if cap is not None and (isinstance(cap, bool) or not isinstance(cap, int) or cap < 0):
            raise ValueError(f"max_ttl_cap must be a non-negative integer or None, got {cap!r}")
        self._algorithm = algorithm
        self._upstream = upstream
        self._clock = clock
        self._log = log
        self._blacklist = validate_blacklist(blacklist)
        self._housekeeping_after_ns = seconds_to_ns(after)
        self._sweep_interval_ns = seconds_to_ns(after / 10.0)
        self._next_sweep_ns = clock.now_ns() + self._sweep_interval_ns
        self._max_ttl_cap = cap
        self._depth = algorithm.history_depth
        self._table: dict[tuple[str, bytes], ObservationHistory] = {}
        # One-entry memos (see the module docstring), each one tuple so a
        # reader never sees half of an update: (body, its digest) and
        # (upstream response, max-age text, the annotated response).
        self._digest_memo: tuple[bytes | None, bytes] = (None, b"")
        self._annotation_memo: tuple[Message | None, str, Message | None] = (None, "", None)

    def table_size(self) -> int:
        return len(self._table)

    def handle(self, request: Message) -> Generator:
        """Handler generator: forward upstream, observe, annotate."""
        response = yield from self._upstream.exchange(request)
        if response.status != STATUS_OK:
            return response

        if request.method in self._blacklist:
            return response.with_metadata("cache-control", "max-age=0")

        key = (request.method, request.payload)
        history = self._table.get(key)
        if history is None:
            history = empty_history(self._depth)
        payload = response.payload
        digested, digest = self._digest_memo
        if payload is not digested and payload != digested:
            digest = response_digest(payload)
            self._digest_memo = (payload, digest)
        now_ns = self._clock.now_ns()
        history = self._table[key] = observe(history, now_ns, digest)
        if now_ns >= self._next_sweep_ns:
            self.housekeeping_sweep()
            self._next_sweep_ns = now_ns + self._sweep_interval_ns
        ttl = estimate(self._algorithm, history, now_ns, self._max_ttl_cap)
        ttl_text, max_age = ttl_texts(ttl)
        if self._log is not None:
            self._log.record(now_ns, "estimator", request.method, "estimate", ttl_text)
        annotated_from, annotated_max_age, annotated = self._annotation_memo
        if response is not annotated_from or max_age is not annotated_max_age:
            annotated = response.with_metadata("cache-control", max_age)
            self._annotation_memo = (response, max_age, annotated)
        return annotated

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
