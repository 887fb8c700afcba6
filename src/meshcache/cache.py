"""Cache sidecar: transparent store in front of the estimator.

Answers repeated requests from a local store while the stored entry is
still fresh, otherwise forwards upstream and (when the response carries a
usable "cache-control: max-age=N" with N >= 1) stores the response until
now + N seconds. Expiry is exclusive at the boundary: a lookup exactly N
seconds after insertion is a miss. max-age=0, a missing header, or a
malformed value all mean "do not store".

The store is keyed on the request itself, the (method, payload) tuple:
exact, so two requests share an entry only if both fields are equal, and
it holds a reference to the request's payload. Python caches the hash of
a bytes object, so a repeated request hashes its payload once.

Freshness is decided lazily at lookup; expire_scan() exists only to
bound memory and never affects correctness.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass
from typing import NamedTuple

from .clock import Clock, seconds_to_ns
from .effects import Link
from .eventlog import EventLog
from .wire import Message


class CacheEntry(NamedTuple):
    key: tuple[str, bytes]  # (method, payload) of the request
    response: Message
    expires_at_ns: int


@dataclass(frozen=True)
class CacheStats:
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    expirations: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses


def parse_max_age(value: str | None) -> int | None:
    """Extract max-age seconds from a cache-control value.

    Directives are comma-separated; unknown ones are ignored. Returns
    None when the directive is absent or its value is not a plain
    non-negative decimal (malformed means "treat as absent").
    """
    if value is None:
        return None
    for directive in value.split(","):
        directive = directive.strip()
        if not directive.startswith("max-age="):
            continue
        digits = directive[len("max-age=") :]
        if digits.isdigit():
            return int(digits)
        return None
    return None


class Cache:
    """Transparent caching sidecar with absolute per-entry expiry."""

    def __init__(self, upstream: Link, clock: Clock, log: EventLog | None = None) -> None:
        self._upstream = upstream
        self._clock = clock
        self._log = log
        self._store: dict[tuple[str, bytes], CacheEntry] = {}
        self._hits = 0
        self._misses = 0
        self._insertions = 0
        self._expirations = 0

    def size(self) -> int:
        return len(self._store)

    def snapshot_stats(self) -> CacheStats:
        return CacheStats(self._hits, self._misses, self._insertions, self._expirations)

    def handle(self, request: Message) -> Generator:
        """Handler generator: serve fresh entries, otherwise fill from upstream."""
        key = (request.method, request.payload)
        now_ns = self._clock.now_ns()
        entry = self._store.get(key)
        if entry is not None and now_ns < entry.expires_at_ns:
            self._hits += 1
            hit = entry.response
        else:
            if entry is not None:
                del self._store[key]
                self._expirations += 1
            self._misses += 1
            hit = None
        if self._log is not None:
            event = "hit" if hit is not None else "miss"
            self._log.record(now_ns, "cache", request.method, event)
        if hit is not None:
            return hit

        response = yield from self._upstream.exchange(request)
        if response.ok:
            ttl_s = parse_max_age(response.metadata_value("cache-control"))
            if ttl_s is not None and ttl_s >= 1:
                inserted_ns = self._clock.now_ns()
                self._store[key] = CacheEntry(key, response, inserted_ns + seconds_to_ns(ttl_s))
                self._insertions += 1
        return response

    def expire_scan(self, now_ns: int | None = None) -> int:
        """Drop every entry with expires_at <= now; returns how many."""
        if now_ns is None:
            now_ns = self._clock.now_ns()
        dead = [k for k, e in self._store.items() if e.expires_at_ns <= now_ns]
        for k in dead:
            del self._store[k]
        self._expirations += len(dead)
        return len(dead)
