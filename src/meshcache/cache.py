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

Freshness is decided lazily at lookup, which deletes an expired entry
when its key comes back; an expired entry whose key is not looked up
again stays in the store.

A fill keeps the last upstream response it parsed and that response's
max-age, and reuses the TTL when the next response is the same object.
On the virtual path an estimator hands back one annotated response
object between two changes of the server's value, so most fills skip
the header lookup and parse. Each live hop decodes a fresh Message, so
there the memo never hits and every fill looks the header up (the parse
itself is memoised per value). Identity is safe: a Message is immutable,
and the memo holds its reference, so no other response can take its id.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .clock import NS_PER_S, Clock
from .effects import Link
from .eventlog import EventLog
from .wire import STATUS_OK, Message

# Distinct cache-control values parse_max_age remembers. An estimator
# issues one value per whole-second TTL, 31 of them under the default cap;
# the bound keeps an uncapped estimator, or a live peer, from growing it.
MAX_AGE_CACHE_SIZE = 256


class CacheEntry(NamedTuple):
    response: Message
    expires_at_ns: int


# Builds a CacheEntry from the tuple of its fields, skipping the field
# constructor's argument handling.
_new = tuple.__new__


@dataclass(frozen=True)
class CacheStats:
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    expirations: int = 0


@lru_cache(maxsize=MAX_AGE_CACHE_SIZE)
def parse_max_age(value: str | None) -> int | None:
    """Extract max-age seconds from a cache-control value.

    Directives are comma-separated; unknown ones are ignored. Returns
    None when the directive is absent or its value is not a plain
    non-negative decimal of ASCII digits (malformed means "treat as
    absent"). Memoised: a cache sees the same few values again and again.
    """
    if value is None:
        return None
    for directive in value.split(","):
        directive = directive.strip()
        if not directive.startswith("max-age="):
            continue
        digits = directive[len("max-age=") :]
        if digits.isascii() and digits.isdigit():
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
        # (the last OK response a fill parsed, its max-age), one tuple so a
        # reader never sees half of an update.
        self._max_age_memo: tuple[Message | None, int | None] = (None, None)

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
        if response.status == STATUS_OK:
            parsed, ttl_s = self._max_age_memo
            if response is not parsed:
                ttl_s = parse_max_age(response.metadata_value("cache-control"))
                self._max_age_memo = (response, ttl_s)
            if ttl_s is not None and ttl_s >= 1:
                expires_at_ns = self._clock.now_ns() + ttl_s * NS_PER_S
                self._store[key] = _new(CacheEntry, (response, expires_at_ns))
                self._insertions += 1
        return response
