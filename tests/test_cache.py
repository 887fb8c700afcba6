"""Cache sidecar: lookup, fill, absolute expiry, stats, log rows."""

import inspect
import random

import pytest

from meshcache.cache import Cache, parse_max_age
from meshcache.clock import NS_PER_S, VirtualClock
from meshcache.effects import DirectLink, drive, invoke_handler
from meshcache.eventlog import EventLog
from meshcache.wire import Message
from reference_sidecars import ReferenceCache, Scripted


class Origin:
    """Upstream returning a counter payload with a configurable header."""

    def __init__(self, header="max-age=5"):
        self.header = header
        self.calls = 0

    def handle(self, request):
        self.calls += 1
        payload = f"r{self.calls}".encode()
        response = Message.response(request.method, payload)
        if self.header is not None:
            response = response.with_metadata("cache-control", self.header)
        return response


def make_cache(clock, header="max-age=5"):
    origin = Origin(header)
    log = EventLog()
    cache = Cache(DirectLink(origin.handle), clock, log)
    return cache, origin, log


def lookup(cache, clock, method="GetValue", payload=b""):
    return drive(invoke_handler(cache.handle, Message.request(method, payload)))


# --- header parsing ---


@pytest.mark.parametrize(
    "value, expected",
    [
        ("max-age=5", 5),
        ("max-age=0", 0),
        ("no-store, max-age=12", 12),
        ("max-age=12, no-store", 12),
        (None, None),
        ("", None),
        ("no-store", None),
        ("max-age=", None),
        ("max-age=abc", None),
        ("max-age=-3", None),
        ("max-age=1.5", None),
        ("max-age=\u00b2", None),  # superscript two: a Unicode digit int() refuses
        ("max-age=\u0663", None),  # Arabic-Indic three: a Unicode digit int() accepts
    ],
)
def test_parse_max_age(value, expected):
    assert parse_max_age(value) == expected


# --- fill and hit ---


def test_miss_fills_then_hits_without_upstream():
    clock = VirtualClock()
    cache, origin, _ = make_cache(clock)
    first = lookup(cache, clock)
    assert first.payload == b"r1" and origin.calls == 1
    second = lookup(cache, clock)
    assert second.payload == b"r1" and origin.calls == 1  # served locally
    stats = cache.snapshot_stats()
    assert (stats.hits, stats.misses, stats.insertions) == (1, 1, 1)


def test_stored_response_is_returned_verbatim():
    clock = VirtualClock()
    cache, _, _ = make_cache(clock)
    fresh = lookup(cache, clock)
    hit = lookup(cache, clock)
    assert hit.payload == fresh.payload
    assert hit.metadata_value("cache-control") == "max-age=5"


@pytest.mark.parametrize("n", [1, 5, 30])
def test_expiry_is_exclusive_at_insertion_plus_n(n):
    clock = VirtualClock()
    cache, origin, _ = make_cache(clock, header=f"max-age={n}")
    lookup(cache, clock)  # fills at t=0
    clock.advance_to(n * NS_PER_S - 1)
    assert lookup(cache, clock).payload == b"r1"  # one tick early: hit
    clock.advance_to(n * NS_PER_S)
    assert lookup(cache, clock).payload == b"r2"  # boundary: miss, refetched
    assert origin.calls == 2


def test_stale_entry_is_deleted_and_counted():
    clock = VirtualClock()
    cache, _, _ = make_cache(clock, header="max-age=1")
    lookup(cache, clock)
    clock.advance_to(2 * NS_PER_S)
    lookup(cache, clock)
    stats = cache.snapshot_stats()
    assert stats.expirations == 1
    assert stats.insertions == 2  # the refetch was stored again
    assert cache.size() == 1


@pytest.mark.parametrize("header", [None, "max-age=0", "max-age=oops", "no-store"])
def test_unusable_max_age_means_no_store(header):
    clock = VirtualClock()
    cache, origin, _ = make_cache(clock, header=header)
    lookup(cache, clock)
    lookup(cache, clock)
    assert origin.calls == 2
    assert cache.size() == 0
    assert cache.snapshot_stats().insertions == 0


def test_error_responses_propagate_and_are_not_stored():
    clock = VirtualClock()
    log = EventLog()
    upstream = DirectLink(lambda r: Message.error_response(r.method, "down"))
    cache = Cache(upstream, clock, log)
    response = drive(invoke_handler(cache.handle, Message.request("GetValue")))
    assert response.status == "error"
    assert cache.size() == 0
    stats = cache.snapshot_stats()
    assert (stats.hits, stats.misses) == (0, 1)  # the lookup still counts


def test_distinct_keys_do_not_collide():
    clock = VirtualClock()
    cache, origin, _ = make_cache(clock)
    a = lookup(cache, clock, payload=b"a")
    b = lookup(cache, clock, payload=b"b")
    assert a.payload != b.payload
    assert origin.calls == 2
    assert lookup(cache, clock, payload=b"a").payload == a.payload
    assert origin.calls == 2


# --- accounting and logs ---


def test_hits_plus_misses_equals_requests():
    clock = VirtualClock()
    cache, _, _ = make_cache(clock, header="max-age=2")
    for i in range(10):
        clock.advance_to(i * NS_PER_S)
        lookup(cache, clock)
    stats = cache.snapshot_stats()
    assert stats.hits + stats.misses == 10


def test_log_rows_use_empty_value_field():
    clock = VirtualClock(42)
    cache, _, log = make_cache(clock)
    lookup(cache, clock)
    lookup(cache, clock)
    assert log.render() == "42,cache,GetValue,miss,\n42,cache,GetValue,hit,\n"



# --- the fill's max-age memo against the plain handler ---


HEADERS = [None, "max-age=0", "max-age=1", "max-age=3", "no-store, max-age=2", "max-age=x"]


def scripted_fills(rng, steps):
    """Responses that repeat an object, copy it, change its header, or fail."""
    response = Message.response("GetValue", b"r0", (("cache-control", "max-age=3"),))
    for step in range(steps):
        roll = rng.random()
        if roll < 0.4:
            pass  # the same response object again
        elif roll < 0.55:  # an equal response in a distinct object
            response = Message._make(list(response))
        elif roll < 0.9:
            header = rng.choice(HEADERS)
            metadata = () if header is None else (("cache-control", header),)
            response = Message.response("GetValue", b"r%d" % step, metadata)
        else:
            response = Message.error_response("GetValue", "origin down")
        yield response


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_memoised_cache_matches_the_plain_handler(seed):
    assert inspect.isgeneratorfunction(Cache.handle)  # bench/tracer.py drives it with send
    rng = random.Random(seed)
    clock = VirtualClock()
    sides = []
    for cls in (Cache, ReferenceCache):
        upstream, log = Scripted(), EventLog()
        sides.append((cls(DirectLink(upstream.handle), clock, log), upstream, log))
    (cache, upstream, log), (ref, ref_upstream, ref_log) = sides
    now_ns = 0
    for response in scripted_fills(rng, 200):
        now_ns += rng.choice([0, NS_PER_S // 1000, 3 * NS_PER_S // 10, NS_PER_S, 5 * NS_PER_S // 2])
        clock.advance_to(now_ns)
        request = Message.request("GetValue", rng.choice([b"", b"k2"]))
        upstream.response = ref_upstream.response = response
        answer = drive(invoke_handler(cache.handle, request))
        assert answer == drive(invoke_handler(ref.handle, request))
        assert cache._store == ref._store
    assert cache.snapshot_stats() == ref.snapshot_stats()
    assert log.render() == ref_log.render()
