"""Estimator sidecar: forwarding, TTL annotation, blacklist, housekeeping."""

import hashlib
import inspect
import math
import random
import time

import pytest

from meshcache import estimator as estimator_module
from meshcache.cache import Cache
from meshcache.clock import NS_PER_S, SystemClock, VirtualClock
from meshcache.digests import response_digest
from meshcache.effects import DirectLink, Sleep, drive, invoke_handler
from meshcache.estimator import Estimator, ttl_texts, validate_blacklist
from meshcache.eventlog import EventLog
from meshcache.harness import ExperimentConfig, run_experiment
from meshcache.sim import Simulation
from meshcache.tcp import TcpLink, serve
from meshcache.ttl import AdaptiveTtl, StaticTtl, UpdateRiskTtl
from meshcache.wire import Message
from reference_sidecars import ReferenceEstimator, Scripted


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
    link = DirectLink(upstream.handle)
    log = EventLog()
    est = Estimator(algorithm, link, clock, log, **kwargs)
    return est, upstream, log


def call(est, clock, method="GetValue", payload=b""):
    return drive(invoke_handler(est.handle, Message.request(method, payload)))


# --- digests ---


def test_response_digest_is_stable_and_16_bytes():
    assert response_digest(b"abc") == response_digest(b"abc")
    assert response_digest(b"abc") != response_digest(b"abd")
    assert len(response_digest(b"")) == 16


@pytest.mark.parametrize("size", [0, 1, 128, 129, 1 << 20])
def test_response_digest_is_hashlib_blake2b_of_the_body(size):
    # 128 bytes is one BLAKE2b block; 129 starts a second.
    payload = (bytes(range(251)) * (size // 251 + 1))[:size]
    assert response_digest(payload) == hashlib.blake2b(payload, digest_size=16).digest()


def test_cache_key_separates_method_from_payload():
    # The cache and the estimator key on the request's (method, payload):
    # two requests share a cache entry or a history only if both are equal.
    def origin(request):
        origin_calls.append((request.method, request.payload))
        return Message.response(request.method, request.method.encode() + b"/" + request.payload)

    for first, second in [(("Get", b"Value"), ("GetValue", b"")), (("M", b"a"), ("M", b"b"))]:
        clock = VirtualClock()
        origin_calls = []
        est = Estimator(StaticTtl(5), DirectLink(origin), clock)
        cache = Cache(DirectLink(est.handle), clock)
        answers = [
            drive(invoke_handler(cache.handle, Message.request(method, payload))).payload
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


@pytest.mark.parametrize("cap", [-1, -30, 2.0, "8", False])
def test_estimator_refuses_a_bad_cap_by_name(cap):
    with pytest.raises(ValueError, match="max_ttl_cap must be a non-negative integer"):
        make_estimator(AdaptiveTtl(1.0), VirtualClock(), max_ttl_cap=cap)


def test_cap_zero_means_never_cache():
    clock = VirtualClock()
    est, _, _ = make_estimator(AdaptiveTtl(1.0), clock, max_ttl_cap=0)
    call(est, clock)
    clock.advance_to(100 * NS_PER_S)
    assert call(est, clock).metadata_value("cache-control") == "max-age=0"


def test_equal_ttls_share_one_text():
    clock = VirtualClock()
    est, _, log = make_estimator(StaticTtl(17), clock)
    first = call(est, clock).metadata_value("cache-control")
    clock.advance_to(NS_PER_S)
    second = call(est, clock).metadata_value("cache-control")
    a, b = [row.value for row in log.rows()]
    assert a == "17" and a is b
    assert first == "max-age=17" and first is second


@pytest.mark.parametrize("ttl", [*range(31), 10**12])
def test_ttl_texts_match_the_plain_formatting(ttl):
    assert ttl_texts(ttl) == (str(ttl), "max-age=" + str(ttl))


def test_uncapped_estimates_carry_their_ttl_text():
    clock = VirtualClock()
    est, _, _ = make_estimator(AdaptiveTtl(1.0), clock, max_ttl_cap=None)
    call(est, clock)
    clock.advance_to(10**6 * NS_PER_S)
    assert call(est, clock).metadata_value("cache-control") == "max-age=1000000"


def test_ttl_text_memo_is_bounded():
    assert 0 < ttl_texts.cache_info().maxsize < 10**6


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


def test_a_blacklist_entry_matches_only_its_own_method():
    clock = VirtualClock()
    est, _, _ = make_estimator(StaticTtl(5), clock, blacklist=("SetValue",))
    assert call(est, clock, "SetValue").metadata_value("cache-control") == "max-age=0"
    assert call(est, clock, "SetValues").metadata_value("cache-control") == "max-age=5"


def test_validate_blacklist_rejects_bad_patterns():
    assert validate_blacklist(["A", "B", "A"]) == frozenset({"A", "B"})
    for bad in ["Mid*dle", "B*", "*", "", "with,comma"]:
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


@pytest.mark.parametrize("after", [math.nan, math.inf, 1e300])
def test_housekeeping_after_must_be_finite(after):
    # Refused by name, not by a failed conversion to nanoseconds.
    with pytest.raises(ValueError, match="housekeeping_after_s must be positive and finite"):
        make_estimator(StaticTtl(1), VirtualClock(), housekeeping_after_s=after)


@pytest.mark.parametrize("after", [4e-9, 6e-9, 1e-6, 0.0099])
def test_housekeeping_after_has_a_floor(after):
    # A sweep every window/10 that rounds to 0 ns would never let a run end.
    with pytest.raises(ValueError, match=r"housekeeping_after_s must be at least 0\.01 s"):
        make_estimator(StaticTtl(1), VirtualClock(), housekeeping_after_s=after)


def test_a_run_at_the_housekeeping_floor_ends(monkeypatch):
    # At the floor the request path sweeps at most once per ms: 100
    # requests 0.1 ms apart, 9.9 ms in all, run at most 11 sweeps.
    sim = Simulation()
    est = Estimator(
        StaticTtl(1), DirectLink(Upstream().handle), sim.clock, housekeeping_after_s=0.01
    )
    sweeps = []
    real_sweep = est.housekeeping_sweep
    monkeypatch.setattr(est, "housekeeping_sweep", lambda: sweeps.append(1) or real_sweep())

    def requester():
        for i in range(100):
            if i:
                yield Sleep(NS_PER_S // 10_000)
            yield from invoke_handler(est.handle, Message.request("GetValue", b"%d" % i))

    sim.spawn(requester())
    sim.run()
    assert sim.clock.now_ns() == 99 * NS_PER_S // 10_000
    assert 1 <= len(sweeps) <= 11


def test_the_request_path_sweeps_idle_keys_in_simulation():
    # No actor sweeps: the request for "b" at 11 s drops "a", idle since 0 s.
    sim = Simulation()
    est = Estimator(
        StaticTtl(5), DirectLink(Upstream().handle), sim.clock, housekeeping_after_s=10.0
    )

    def requester():
        yield from invoke_handler(est.handle, Message.request("GetValue", b"a"))
        yield Sleep(11 * NS_PER_S)
        yield from invoke_handler(est.handle, Message.request("GetValue", b"b"))

    sim.spawn(requester())
    sim.run()
    assert est.table_size() == 1


def test_a_served_estimator_bounds_its_table_with_nothing_beside_it():
    est = Estimator(
        StaticTtl(5), DirectLink(Upstream().handle), SystemClock(), housekeeping_after_s=0.01
    )
    with serve(est.handle) as handle, TcpLink(handle.address) as link:
        link.send(Message.request("GetValue", b"a"))
        time.sleep(0.05)
        link.send(Message.request("GetValue", b"b"))
    assert est.table_size() == 1


# --- memos against the plain handler ---


def scripted_responses(rng, steps):
    """Responses that repeat an object, repeat a body, change it, or fail."""
    payload = b"value-000"
    response = Message.response("GetValue", payload)
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.35:
            pass  # the same response object again
        elif roll < 0.55:  # an equal body in a distinct bytes object
            response = Message.response("GetValue", bytes(bytearray(payload)))
        elif roll < 0.8:  # a changed body of the same length
            payload = b"value-%03d" % rng.randrange(1000)
            response = Message.response("GetValue", payload)
        elif roll < 0.9:  # a header the annotation replaces
            response = Message.response("GetValue", payload, (("cache-control", "max-age=99"),))
        else:
            response = Message.error_response("GetValue", "origin down")
        yield response


@pytest.mark.parametrize(
    "algorithm, seed",
    [(StaticTtl(5), 1), (AdaptiveTtl(0.5), 2), (UpdateRiskTtl(0.3), 3), (AdaptiveTtl(0.1), 4)],
)
def test_memoised_estimator_matches_the_plain_handler(algorithm, seed):
    assert inspect.isgeneratorfunction(Estimator.handle)  # bench/tracer.py drives it with send
    rng = random.Random(seed)
    clock = VirtualClock()
    sides = []
    for cls in (Estimator, ReferenceEstimator):
        upstream, log = Scripted(), EventLog()
        est = cls(algorithm, DirectLink(upstream.handle), clock, log, ("SetValue",))
        sides.append((est, upstream, log))
    (est, upstream, log), (ref, ref_upstream, ref_log) = sides
    steps_ns = [0, 0, NS_PER_S // 1000, 4 * NS_PER_S // 10, 3 * NS_PER_S // 2, 7 * NS_PER_S]
    now_ns = 0
    for response in scripted_responses(rng, 200):
        now_ns += rng.choice(steps_ns)
        clock.advance_to(now_ns)
        method = "SetValue" if rng.random() < 0.05 else "GetValue"
        request = Message.request(method, rng.choice([b"", b"k2"]))
        upstream.response = ref_upstream.response = response
        answer = drive(invoke_handler(est.handle, request))
        assert answer == drive(invoke_handler(ref.handle, request))
        assert est._table == ref._table
    assert log.render() == ref_log.render()


@pytest.mark.parametrize("config_id", ["static-0", "static-30", "adaptive-0.5"])
def test_a_run_digests_once_per_server_value(config_id, monkeypatch):
    # The server's value changes only on an update, so the estimator digests
    # at most one body per update plus the initial one; a static TTL also
    # annotates at most that often. Host-independent cost counts.
    digests, annotations = [], []
    real_digest, real_with_metadata = estimator_module.response_digest, Message.with_metadata

    def counting_digest(payload):
        digests.append(payload)
        return real_digest(payload)

    def counting_with_metadata(message, key, value):
        annotations.append(value)
        return real_with_metadata(message, key, value)

    monkeypatch.setattr(estimator_module, "response_digest", counting_digest)
    monkeypatch.setattr(Message, "with_metadata", counting_with_metadata)
    result = run_experiment(ExperimentConfig(config_id, phase_tag="pi2", duration_s=600.0))
    assert result.total_updates > 0 and digests
    assert len(digests) <= result.total_updates + 1
    if config_id.startswith("static-"):
        assert len(annotations) <= result.total_updates + 1
