"""Estimator sidecar: forwarding, TTL annotation, blacklist, housekeeping."""

import pytest

from meshcache.cache import Cache
from meshcache.clock import NS_PER_S, VirtualClock
from meshcache.digests import response_digest
from meshcache.effects import DirectLink, drive, invoke_handler
from meshcache.estimator import (
    Estimator,
    blacklist_matches,
    housekeeping_loop,
    validate_blacklist,
)
from meshcache.eventlog import EventLog
from meshcache.sim import Simulation
from meshcache.ttl import AdaptiveTtl, StaticTtl, UpdateRiskTtl
from meshcache.wire import Message


class Upstream:
    """Scriptable origin server counting how often it was hit."""

    def __init__(self):
        self.value = b"v1"
        self.calls = 0
        self.fail = False

    def handle(self, request):
        self.calls += 1
        if self.fail:
            return Message.error_response(request.method, "origin down")
        return Message.response(request.method, self.value)


def make_estimator(algorithm, clock, **kwargs):
    upstream = Upstream()
    link = DirectLink(upstream.handle, clock)
    log = EventLog()
    est = Estimator(algorithm, link, clock, log, **kwargs)
    return est, upstream, log


def call(est, clock, method="GetValue", payload=b""):
    return drive(invoke_handler(est.handle, Message.request(method, payload)), clock)


# --- digests ---


def test_response_digest_is_stable_and_16_bytes():
    assert response_digest(b"abc") == response_digest(b"abc")
    assert response_digest(b"abc") != response_digest(b"abd")
    assert len(response_digest(b"")) == 16


def test_cache_key_separates_method_from_payload():
    # The cache and the estimator key on the request's (method, payload):
    # two requests share a cache entry or a history only if both are equal.
    def origin(request):
        origin_calls.append((request.method, request.payload))
        return Message.response(request.method, request.method.encode() + b"/" + request.payload)

    for first, second in [(("Get", b"Value"), ("GetValue", b"")), (("M", b"a"), ("M", b"b"))]:
        clock = VirtualClock()
        origin_calls = []
        est = Estimator(StaticTtl(5), DirectLink(origin, clock), clock)
        cache = Cache(DirectLink(est.handle, clock), clock)
        answers = [
            drive(invoke_handler(cache.handle, Message.request(method, payload)), clock).payload
            for method, payload in (first, second, first, second)
        ]
        expected = [f"{m}/".encode() + p for m, p in (first, second)]
        assert answers == expected * 2
        assert origin_calls == [first, second]
        assert cache.size() == 2 and cache.snapshot_stats().hits == 2
        assert est.table_size() == 2


# --- forwarding and annotation ---


def test_every_request_reaches_upstream():
    clock = VirtualClock()
    est, upstream, _ = make_estimator(StaticTtl(5), clock)
    for _ in range(3):
        response = call(est, clock)
        assert response.ok and response.payload == b"v1"
    assert upstream.calls == 3


def test_static_annotation_and_log_row():
    clock = VirtualClock(1_000)
    est, _, log = make_estimator(StaticTtl(5), clock)
    response = call(est, clock)
    assert response.metadata_value("cache-control") == "max-age=5"
    assert log.render() == "1000,estimator,GetValue,estimate,5\n"


def test_adaptive_ttl_grows_while_value_is_stable():
    clock = VirtualClock()
    est, upstream, _ = make_estimator(AdaptiveTtl(0.5), clock)
    assert call(est, clock).metadata_value("cache-control") == "max-age=0"  # change now
    clock.advance_to(10 * NS_PER_S)
    assert call(est, clock).metadata_value("cache-control") == "max-age=5"
    clock.advance_to(20 * NS_PER_S)
    assert call(est, clock).metadata_value("cache-control") == "max-age=10"
    # A change observed at t resets the age to zero at that same instant.
    upstream.value = b"v2"
    clock.advance_to(30 * NS_PER_S)
    assert call(est, clock).metadata_value("cache-control") == "max-age=0"


def test_update_risk_needs_k_changes_then_uses_bud():
    clock = VirtualClock()
    est, upstream, _ = make_estimator(UpdateRiskTtl(0.5, k=2), clock)
    assert call(est, clock).metadata_value("cache-control") == "max-age=0"  # 1 change
    upstream.value = b"v2"
    clock.advance_to(4 * NS_PER_S)
    assert call(est, clock).metadata_value("cache-control") == "max-age=1"  # bud 4 s
    clock.advance_to(20 * NS_PER_S)
    # bud = 20 s back to the first change: floor(10 * ln 2) = 6.
    assert call(est, clock).metadata_value("cache-control") == "max-age=6"


def test_cap_applies_to_dynamic_estimates():
    clock = VirtualClock()
    est, _, _ = make_estimator(AdaptiveTtl(1.0), clock, max_ttl_cap=8)
    call(est, clock)
    clock.advance_to(100 * NS_PER_S)
    assert call(est, clock).metadata_value("cache-control") == "max-age=8"


def test_distinct_request_payloads_are_distinct_keys():
    clock = VirtualClock()
    est, _, _ = make_estimator(AdaptiveTtl(0.5), clock)
    call(est, clock, payload=b"a")
    call(est, clock, payload=b"b")
    assert est.table_size() == 2


def test_error_responses_pass_through_untouched():
    clock = VirtualClock()
    est, upstream, log = make_estimator(StaticTtl(5), clock)
    upstream.fail = True
    response = call(est, clock)
    assert response.status == "error"
    assert response.metadata_value("cache-control") is None
    assert est.table_size() == 0
    assert log.rows() == []


# --- blacklist ---


def test_blacklisted_methods_get_max_age_zero_and_no_state():
    clock = VirtualClock()
    est, _, log = make_estimator(StaticTtl(5), clock, blacklist=("SetValue",))
    response = call(est, clock, method="SetValue", payload=b"x")
    assert response.ok
    assert response.metadata_value("cache-control") == "max-age=0"
    assert est.table_size() == 0
    assert log.rows() == []  # blacklisted calls produce no estimate row
    assert call(est, clock).metadata_value("cache-control") == "max-age=5"


def test_blacklist_prefix_wildcard():
    clock = VirtualClock()
    est, _, _ = make_estimator(StaticTtl(5), clock, blacklist=("Set*",))
    assert call(est, clock, "SetValue").metadata_value("cache-control") == "max-age=0"
    assert call(est, clock, "Settle").metadata_value("cache-control") == "max-age=0"
    assert call(est, clock, "GetValue").metadata_value("cache-control") == "max-age=5"


def test_blacklist_matches_rules():
    assert blacklist_matches(("SetValue",), "SetValue")
    assert not blacklist_matches(("SetValue",), "SetValues")
    assert blacklist_matches(("Set*",), "SetAnything")
    assert blacklist_matches(("*",), "Whatever")
    assert not blacklist_matches((), "SetValue")


def test_validate_blacklist_rejects_bad_patterns():
    assert validate_blacklist(["A", "B*"]) == ("A", "B*")
    for bad in ["Mid*dle", "", "with,comma"]:
        with pytest.raises(ValueError):
            validate_blacklist([bad])


# --- housekeeping ---


def test_sweep_evicts_only_idle_entries():
    clock = VirtualClock()
    est, _, _ = make_estimator(StaticTtl(5), clock, housekeeping_after_s=300.0)
    call(est, clock, payload=b"old")
    clock.advance_to(200 * NS_PER_S)
    call(est, clock, payload=b"fresh")
    clock.advance_to(400 * NS_PER_S)  # "old" idle 400 s, "fresh" idle 200 s
    assert est.housekeeping_sweep() == 1
    assert est.table_size() == 1


def test_idle_exactly_at_the_window_survives():
    clock = VirtualClock()
    est, _, _ = make_estimator(StaticTtl(5), clock, housekeeping_after_s=10.0)
    call(est, clock)
    clock.advance_to(10 * NS_PER_S)
    assert est.housekeeping_sweep() == 0  # idle == window: not yet over it
    clock.advance_to(10 * NS_PER_S + 1)
    assert est.housekeeping_sweep() == 1


def test_housekeeping_after_must_be_positive():
    clock = VirtualClock()
    with pytest.raises(ValueError):
        make_estimator(StaticTtl(1), clock, housekeeping_after_s=0.0)


def test_housekeeping_loop_sweeps_periodically_in_simulation():
    sim = Simulation()
    upstream = Upstream()
    est = Estimator(
        StaticTtl(5),
        DirectLink(upstream.handle, sim.clock),
        sim.clock,
        housekeeping_after_s=10.0,
    )

    def toucher():
        # One request at t=0, never again: idle beyond 10 s around t=11.
        yield from invoke_handler(est.handle, Message.request("GetValue"))

    sim.spawn(toucher())
    sim.spawn(housekeeping_loop(est, 20 * NS_PER_S, sim.clock))
    sim.run(until_ns=20 * NS_PER_S)
    assert est.table_size() == 0
