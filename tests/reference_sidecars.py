"""The plain sidecar handlers that meshcache's memoised ones must agree with.

These are Estimator.handle and Cache.handle as they were before each
sidecar kept its one-entry memos: the estimator digests, observes,
estimates and annotates every OK response, and the cache parses max-age
on every fill. Tests drive both on the same responses and require equal
answers, histories, stores and log rows, each side fed by its own
Scripted upstream set to the same response at every step.
"""

from __future__ import annotations

from collections.abc import Generator

from meshcache.cache import Cache, CacheEntry, parse_max_age
from meshcache.clock import NS_PER_S
from meshcache.digests import response_digest
from meshcache.estimator import Estimator, ttl_texts
from meshcache.ttl import empty_history, estimate, observe
from meshcache.wire import STATUS_OK, Message


class Scripted:
    """Upstream answering every request with the response set for the step."""

    def __init__(self) -> None:
        self.response: Message | None = None

    def handle(self, request: Message) -> Message | None:
        return self.response


class ReferenceEstimator(Estimator):
    """An Estimator whose handler recomputes everything on every response."""

    def handle(self, request: Message) -> Generator:
        response = yield from self._upstream.exchange(request)
        if response.status != STATUS_OK:
            return response
        if request.method in self._blacklist:
            return response.with_metadata("cache-control", "max-age=0")
        key = (request.method, request.payload)
        history = self._table.get(key, empty_history(self._depth))
        now_ns = self._clock.now_ns()
        history = self._table[key] = observe(history, now_ns, response_digest(response.payload))
        ttl = estimate(self._algorithm, history, now_ns, self._max_ttl_cap)
        ttl_text, max_age = ttl_texts(ttl)
        if self._log is not None:
            self._log.record(now_ns, "estimator", request.method, "estimate", ttl_text)
        return response.with_metadata("cache-control", max_age)


class ReferenceCache(Cache):
    """A Cache whose fill parses the response's max-age every time."""

    def handle(self, request: Message) -> Generator:
        key = (request.method, request.payload)
        now_ns = self._clock.now_ns()
        entry = self._store.get(key)
        if entry is not None and now_ns < entry.expires_at_ns:
            self._hits += 1
            if self._log is not None:
                self._log.record(now_ns, "cache", request.method, "hit")
            return entry.response
        if entry is not None:
            del self._store[key]
            self._expirations += 1
        self._misses += 1
        if self._log is not None:
            self._log.record(now_ns, "cache", request.method, "miss")
        response = yield from self._upstream.exchange(request)
        if response.status == STATUS_OK:
            ttl_s = parse_max_age(response.metadata_value("cache-control"))
            if ttl_s is not None and ttl_s >= 1:
                expires_at_ns = self._clock.now_ns() + ttl_s * NS_PER_S
                self._store[key] = CacheEntry(response, expires_at_ns)
                self._insertions += 1
        return response
