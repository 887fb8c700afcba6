"""Sinusoidal workload: rates, pacing, the value service, the staleness oracle."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meshcache.clock import NS_PER_S
from meshcache.effects import TransportError
from meshcache.eventlog import EventLog, EventRow, split_kinds
from meshcache.harness import compute_windows
from meshcache.sim import Simulation
from meshcache.wire import Message
from meshcache.workload import (
    GAP_BLOCK,
    PHASE_SHIFTS,
    QUERY_SINUSOID,
    UPDATE_SINUSOID,
    ExponentialGaps,
    SinusoidConfig,
    StalenessLedger,
    ValueServer,
    WorkloadConfig,
    classify_response,
    next_delay_ms,
    query_actor,
    rate_at,
    update_actor,
)


# --- sinusoids ---


def test_phase_shift_tags():
    assert PHASE_SHIFTS == {
        "0": 0.0,
        "pi4": math.pi / 4,
        "pi2": math.pi / 2,
        "pi": math.pi,
    }


def test_sinusoid_validation():
    with pytest.raises(ValueError):
        SinusoidConfig(mean_rate=5.0, amplitude=5.0)  # rate would touch zero
    with pytest.raises(ValueError):
        SinusoidConfig(mean_rate=5.0, amplitude=-1.0)
    with pytest.raises(ValueError):
        SinusoidConfig(mean_rate=5.0, amplitude=1.0, period_s=0.0)


def test_standard_rate_ranges():
    # Query rate swings over [1, 10] req/s, update rate over [0.05, 1.1].
    period = QUERY_SINUSOID.period_s
    assert rate_at(QUERY_SINUSOID, period / 4) == pytest.approx(10.0)
    assert rate_at(QUERY_SINUSOID, 3 * period / 4) == pytest.approx(1.0)
    assert rate_at(UPDATE_SINUSOID, period / 4) == pytest.approx(1.1)
    assert rate_at(UPDATE_SINUSOID, 3 * period / 4) == pytest.approx(0.05)
    assert rate_at(QUERY_SINUSOID, 0.0) == pytest.approx(5.5)


def test_phase_offsets_shift_the_update_sinusoid():
    cfg = WorkloadConfig(phase_tag="pi")
    shifted = cfg.update
    assert shifted.phase == math.pi
    assert cfg.query.phase == 0.0
    # At t=0 the shifted update sinusoid sits at its mean; at period/4 a
    # pi shift lands on the trough instead of the crest.
    period = shifted.period_s
    assert rate_at(shifted, period / 4) == pytest.approx(0.05)
    assert rate_at(cfg.query, period / 4) == pytest.approx(10.0)


@pytest.mark.parametrize("phase_tag", sorted(PHASE_SHIFTS))
def test_both_sinusoids_take_the_duration_as_their_period(phase_tag):
    cfg = WorkloadConfig(duration_s=120.0, phase_tag=phase_tag)
    assert cfg.query == SinusoidConfig(5.5, 4.5, period_s=120.0)
    assert cfg.update == SinusoidConfig(0.575, 0.525, 120.0, PHASE_SHIFTS[phase_tag])


def test_workload_config_validation():
    with pytest.raises(ValueError):
        WorkloadConfig(phase_tag="bogus")
    with pytest.raises(ValueError):
        WorkloadConfig(duration_s=0.0)
    with pytest.raises(ValueError):
        WorkloadConfig(seed=2**64)


def test_actor_rngs_are_deterministic_and_independent():
    a_query, a_update = WorkloadConfig(seed=5).actor_rngs()
    b_query, b_update = WorkloadConfig(seed=5).actor_rngs()
    first_queries = a_query.standard_exponential(4)
    assert first_queries == b_query.standard_exponential(4)
    assert a_update.standard_exponential(4) == b_update.standard_exponential(4)
    assert a_update.standard_exponential(4) != a_query.standard_exponential(4)
    c_query, _ = WorkloadConfig(seed=6).actor_rngs()
    assert first_queries != c_query.standard_exponential(4)


# --- pacing ---


def test_delays_are_whole_positive_milliseconds():
    rng = ExponentialGaps(WorkloadConfig(seed=0).actor_rngs()[0])
    fast = SinusoidConfig(mean_rate=900.0, amplitude=0.0)
    draws = [next_delay_ms(fast, 0.0, rng) for _ in range(200)]
    assert all(isinstance(d, int) and d >= 1 for d in draws)
    assert min(draws) == 1  # mean ~1.1 ms: the clamp engages often


def test_delay_mean_tracks_the_instantaneous_rate():
    rng = ExponentialGaps(WorkloadConfig(seed=1).actor_rngs()[0])
    cfg = SinusoidConfig(mean_rate=5.0, amplitude=0.0)
    draws = [next_delay_ms(cfg, 0.0, rng) for _ in range(20000)]
    assert np.mean(draws) == pytest.approx(200.0, rel=0.03)
    # Exponential spacing: the variance matches the mean squared, far from
    # the near-deterministic gaps a Poisson-distributed delay would give.
    assert np.var(draws) == pytest.approx(200.0**2, rel=0.1)


def test_delay_is_deterministic_given_the_rng_state():
    cfg = SinusoidConfig(mean_rate=2.0, amplitude=1.0)

    def delays():
        gaps = ExponentialGaps(WorkloadConfig(seed=9).actor_rngs()[0])
        return [next_delay_ms(cfg, t, gaps) for t in (0.0, 10.0)]

    assert delays() == delays()


def numpy_actor_rng(seed, child):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed).spawn(2)[child]))


def test_block_draws_are_the_single_draw_stream():
    # Across block boundaries and at every rate, a gap drawn from a block
    # is bitwise the gap one numpy rng.exponential call per request would
    # give on the same stream, for both actors.
    cfg = SinusoidConfig(mean_rate=5.5, amplitude=4.5, period_s=60.0)
    times = [i * 0.037 for i in range(3 * GAP_BLOCK + 7)]
    scales = [1000.0 / rate_at(cfg, t) for t in times]
    for child in (0, 1):
        gaps = ExponentialGaps(WorkloadConfig(seed=8).actor_rngs()[child])
        rng = numpy_actor_rng(8, child)
        assert [next_delay_ms(cfg, t, gaps) for t in times] == [
            next_delay_ms(cfg, t, rng) for t in times
        ]
        gaps = ExponentialGaps(WorkloadConfig(seed=8).actor_rngs()[child])
        rng = numpy_actor_rng(8, child)
        assert [gaps.exponential(s) for s in scales] == [rng.exponential(s) for s in scales]


# --- value service ---


def test_value_server_get_set_cycle():
    server = ValueServer()
    assert server.handle(Message.request("GetValue")).payload == b"0"
    assert server.handle(Message.request("SetValue", b"7")).ok
    assert server.handle(Message.request("GetValue")).payload == b"7"
    assert server.set_count == 1
    assert server.current_value() == b"7"


def test_value_server_builds_a_response_once_per_value():
    server = ValueServer()
    first = server.handle(Message.request("GetValue"))
    assert server.handle(Message.request("GetValue")) is first
    ack = server.handle(Message.request("SetValue", b"7"))
    assert ack.ok and ack.payload == b"" and ack.method == "SetValue"
    assert server.handle(Message.request("SetValue", b"8")) is ack
    assert server.handle(Message.request("GetValue")).payload == b"8"
    assert first.payload == b"0"


def test_value_server_rejects_unknown_methods():
    response = ValueServer().handle(Message.request("Nope"))
    assert response.status == "error"


# --- staleness oracle ---


def test_classify_against_value_read_before_issue():
    ledger = StalenessLedger(b"1")
    assert classify_response(Message.response("GetValue", b"1"), b"1", ledger) == "ok"


def test_classify_forgives_updates_landing_mid_flight():
    ledger = StalenessLedger(b"1")
    ledger.publish(b"2")
    # Read expected "1" before issuing; a fresh response "2" is not stale.
    assert classify_response(Message.response("GetValue", b"2"), b"1", ledger) == "ok"


def test_classify_flags_values_matching_neither():
    ledger = StalenessLedger(b"5")
    assert classify_response(Message.response("GetValue", b"3"), b"5", ledger) == "stale"


def test_classify_errors():
    ledger = StalenessLedger()
    assert classify_response(None, b"0", ledger) == "error"
    assert classify_response(Message.error_response("GetValue", "x"), b"0", ledger) == "error"


def query_outcome_rows(*outcomes):
    log = EventLog()
    for i, outcome in enumerate(outcomes):
        log.record(i * NS_PER_S, "client", "GetValue", outcome)
    return log.stamped_kinds()


def test_ledger_counters():
    # The ledger only carries the expected value; outcomes are counted by
    # folding the rows the query step logs.
    metrics = compute_windows(query_outcome_rows("ok", "stale", "ok", "error"), 0, 15.0)
    assert metrics.total_queries == 3  # errors excluded
    assert metrics.stale_queries == 1
    assert metrics.errored_queries == 1


def test_error_fraction_and_traffic_reduction():
    metrics = compute_windows(query_outcome_rows("ok", "ok", "ok", "stale"), 0, 15.0)
    assert metrics.error_fraction == 0.25
    lookups = [EventRow(0, "cache", "GetValue", "hit")] * 17 + [
        EventRow(0, "cache", "GetValue", "miss")
    ] * 3
    assert compute_windows(split_kinds(lookups), 0, 15.0).traffic_reduction == 0.85
    with pytest.raises(ValueError):
        compute_windows([], 0, 15.0).error_fraction
    with pytest.raises(ValueError):
        compute_windows([], 0, 15.0).traffic_reduction


# --- actors in a small simulation ---


def run_actors(duration_s=5.0, with_updates=True, seed=3):
    sim = Simulation()
    server = ValueServer()
    link = sim.virtual_link(server.handle)
    ledger = StalenessLedger(server.current_value())
    log = EventLog()
    query_rng, update_rng = WorkloadConfig(duration_s=duration_s, seed=seed).actor_rngs()
    end_ns = int(duration_s * NS_PER_S)
    steady_queries, steady_updates = SinusoidConfig(10.0, 0.0), SinusoidConfig(2.0, 0.0)
    sim.spawn(query_actor(steady_queries, sim.clock, link, ledger, query_rng, 0, end_ns, log))
    if with_updates:
        sim.spawn(
            update_actor(steady_updates, sim.clock, link, ledger, update_rng, 0, end_ns, log)
        )
    sim.run(until_ns=end_ns)
    return server, ledger, log


def test_uncached_queries_are_never_stale():
    server, ledger, log = run_actors()
    query_rows = [r for r in log.rows() if r.method == "GetValue"]
    assert len(query_rows) > 20
    assert all(r.event == "ok" for r in query_rows)  # none stale, none errored


def test_update_actor_publishes_acknowledged_values():
    server, ledger, log = run_actors()
    ok_updates = [r for r in log.rows() if r.method == "SetValue" and r.event == "ok"]
    assert len(ok_updates) == server.set_count > 0
    assert ledger.expected_value == server.current_value()


def test_actors_stop_at_the_deadline():
    _, _, log = run_actors(duration_s=2.0)
    assert all(r.timestamp_ns <= 2 * NS_PER_S for r in log.rows())


class DeadLink:
    def exchange(self, request):
        raise TransportError("wire cut")
        yield  # pragma: no cover - makes this a generator function


class FlakyLink:
    """First exchange fails; later exchanges reach the wrapped server."""

    def __init__(self, server):
        self.server = server
        self.calls = 0

    def exchange(self, request):
        self.calls += 1
        if self.calls == 1:
            raise TransportError("blip")
        return self.server.handle(request)
        yield  # pragma: no cover - makes this a generator function


def test_query_actor_counts_transport_failures_as_errors():
    sim = Simulation()
    ledger = StalenessLedger()
    log = EventLog()
    cfg = SinusoidConfig(5.0, 0.0)
    rng = WorkloadConfig(seed=0).actor_rngs()[0]
    sim.spawn(query_actor(cfg, sim.clock, DeadLink(), ledger, rng, 0, NS_PER_S, log))
    sim.run(until_ns=NS_PER_S)
    rows = log.rows()
    assert len(rows) > 0
    assert all(r.method == "GetValue" and r.event == "error" for r in rows)


def test_update_actor_retries_once_then_succeeds():
    sim = Simulation()
    server = ValueServer()
    link = FlakyLink(server)
    ledger = StalenessLedger(server.current_value())
    log = EventLog()
    rng = WorkloadConfig(seed=0).actor_rngs()[1]
    sim.spawn(
        update_actor(SinusoidConfig(1.0, 0.0), sim.clock, link, ledger, rng, 0, NS_PER_S, log)
    )
    sim.run(until_ns=NS_PER_S)
    first = log.rows()[0]
    assert first.event == "ok"  # retry absorbed the blip
    assert server.set_count >= 1


def test_update_actor_gives_up_after_one_retry():
    sim = Simulation()
    ledger = StalenessLedger()
    log = EventLog()
    rng = WorkloadConfig(seed=0).actor_rngs()[1]
    sim.spawn(
        update_actor(
            SinusoidConfig(1.0, 0.0), sim.clock, DeadLink(), ledger, rng, 0, NS_PER_S, log
        )
    )
    sim.run(until_ns=NS_PER_S)
    assert all(r.event == "error" for r in log.rows())
    assert ledger.expected_value == b"0"  # nothing published


SUBMODULES = (
    "cache clock config digests effects estimator eventlog harness sim tcp ttl wire workload"
).split()

# What each snippet, run in a fresh interpreter, must leave unloaded. A
# package name loads only its own submodule, on first use: a client or a
# sidecar loads neither numpy, OpenSSL (_hashlib), the workload's
# generator, the harness nor the scheduler, and a virtual-clock run loads
# neither the TCP backend, numpy nor OpenSSL.
IMPORT_FOOTPRINTS = [
    ("import meshcache", ["numpy", "_hashlib", *(f"meshcache.{m}" for m in SUBMODULES)]),
    (
        "from meshcache import Message, TcpLink, TransportError",
        ["numpy", "_hashlib", "meshcache.harness", "meshcache.sim", "meshcache.config"],
    ),
    (
        "from meshcache import Cache, Estimator, SystemClock, TcpLink, ValueServer, parse_config_id, serve",
        ["numpy", "_hashlib", "meshcache.rng", "meshcache.harness", "meshcache.sim"],
    ),
    (
        "from meshcache import harness\n"
        "harness.run_experiment(harness.ExperimentConfig('adaptive-0.25', duration_s=5.0))",
        ["numpy", "_hashlib", "meshcache.tcp"],
    ),
]


def test_the_package_and_the_sidecar_names_import_without_numpy():
    # No process of the package needs numpy: the workload's streams come
    # from meshcache.rng, which only a run's actor_rngs() loads.
    src = Path(__file__).resolve().parent.parent / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    for code, absent in IMPORT_FOOTPRINTS:
        probe = f"{code}\nimport sys\nprint(sorted(set({absent!r}) & set(sys.modules)))\n"
        child = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=pythonpath),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "[]", f"{code!r} loaded {child.stdout.strip()}"
