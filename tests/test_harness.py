"""Experiment harness: windows, runs, scripted traces, aggregation, suites."""

import gc
import inspect
import io
import json
import math
import os
import random
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import weakref
from dataclasses import fields
from pathlib import Path

import pytest

from meshcache import harness
from meshcache.cache import CacheStats
from meshcache.config import format_estimator_config
from meshcache.estimator import Estimator
from meshcache.eventlog import EventLog, EventRow, parse_event_log
from meshcache.harness import (
    ExperimentConfig,
    WINDOW_S,
    ExperimentResult,
    RunMetrics,
    ScriptedOp,
    WindowStats,
    aggregate_logs,
    compute_windows,
    load_results,
    read_result,
    run_dir,
    run_experiment,
    run_scripted_trace,
    run_suite,
    scatter_lines,
    write_result,
    write_timeseries,
)
from meshcache.sim import Simulation, VirtualLink
from meshcache.ttl import AdaptiveTtl, UpdateRiskTtl

import reference_fold
from reference_scheduler import ReferenceSimulation
from trace_oracle import replay_trace

NS = 1_000_000_000


# --- windows ---


def logged(rows):
    """An EventLog holding rows, recorded in order."""
    log = EventLog()
    for row in rows:
        log.record(*row)
    return log


def fold_log(log, *args):
    """compute_windows over a log's rows, as run_experiment folds them."""
    return compute_windows(log.stamped_codes(), log.kinds(), *args)


def test_compute_windows_hand_checked():
    rows = [
        EventRow(1 * NS, "cache", "GetValue", "miss"),
        EventRow(1 * NS, "estimator", "GetValue", "estimate", "4"),
        EventRow(2 * NS, "cache", "GetValue", "hit"),
        EventRow(2 * NS, "client", "GetValue", "ok"),
        EventRow(3 * NS, "cache", "GetValue", "hit"),
        EventRow(3 * NS, "client", "GetValue", "stale"),
        EventRow(5 * NS, "client", "SetValue", "ok"),  # ignored by both fractions
        EventRow(45 * NS, "cache", "GetValue", "miss"),  # clamped into the last window
    ]
    windows = fold_log(logged(rows), 0, 30.0).windows
    assert len(windows) == 2
    first, second = windows
    assert first.start_s == 0.0
    assert first.hit_fraction == pytest.approx(2 / 3)
    assert first.error_fraction == pytest.approx(1 / 2)
    assert first.mean_ttl == pytest.approx(4.0)
    assert second.start_s == 15.0
    assert (second.hit_fraction, second.error_fraction, second.mean_ttl) == (0.0, 0.0, 0.0)


def test_window_count_covers_the_duration():
    assert len(compute_windows([], [], 0, 300.0).windows) == 20
    assert len(compute_windows([], [], 0, 1800.0).windows) == 120
    assert len(compute_windows([], [], 0, 10.0).windows) == 1  # partial window still counts


# Every component, method and event the fold tells apart, plus ones it
# must ignore: an unknown component, method or event counts nowhere.
FOLD_EVENTS = {
    "cache": ("hit", "miss", "expire"),
    "client": ("ok", "stale", "error", "lost"),
    "estimator": ("estimate", "skip"),
    "server": ("ok", "estimate"),
    "proxy": ("hit", "ok"),
}
FOLD_METHODS = ("GetValue", "SetValue", "ListValues")


def random_fold_rows(rng, start_ns, duration_s, n):
    """n rows in random order, timestamps spilling past both ends of the run.

    A timestamp that would fall before 0 is 0: an EventLog refuses a
    negative one, as parse_event_row does.
    """
    rows = []
    for _ in range(n):
        component = rng.choice(sorted(FOLD_EVENTS))
        event = rng.choice(FOLD_EVENTS[component])
        offset_ns = rng.randint(-20 * NS, int((duration_s + 20) * NS))
        value = ""
        if event == "estimate":
            value = rng.choice([str(rng.randint(0, 30)), repr(rng.uniform(0, 30))])
        method = rng.choice(FOLD_METHODS)
        rows.append(EventRow(max(0, start_ns + offset_ns), component, method, event, value))
    return rows


def test_positional_fold_matches_the_reference_fold_on_random_rows():
    rng = random.Random(20261018)
    seen = set()
    for _ in range(300):
        start_ns = rng.choice([0, 7 * NS, 123_456_789])
        duration_s = rng.choice([10.0, 30.0, 44.5, 90.0, 300.0])
        window_s = rng.choice([15.0, 7.5, 1.0])
        rows = random_fold_rows(rng, start_ns, duration_s, rng.randint(0, 400))
        want = reference_fold.compute_windows(rows, start_ns, duration_s, window_s)
        # Both entries of the fold: a log's rows against its kind table, as
        # a run folds them, and the log's text parsed and interned row by
        # row, as aggregate_logs folds a file into one window.
        log = logged(rows)
        assert fold_log(log, start_ns, duration_s, window_s) == want
        whole = reference_fold.compute_windows(rows, 0, WINDOW_S)
        if whole.total_queries and whole.hits + whole.misses:
            assert aggregate_logs(io.StringIO(log.render())) == whole
            seen.add("aggregated")
        else:
            with pytest.raises(ValueError, match="^no (completed queries|cache lookups) in log$"):
                aggregate_logs(io.StringIO(log.render()))
        for ts, component, method, event, _ in rows:
            if ts < start_ns:
                seen.add("before start")
            if ts >= start_ns + duration_s * NS:
                seen.add("past end")
            if event == "error" and method in ("GetValue", "SetValue"):
                seen.add(f"{method} error")
            if component not in ("cache", "client", "estimator"):
                seen.add("unknown component")
            if event not in ("hit", "miss", "ok", "stale", "error", "estimate"):
                seen.add("unknown event")
            if event == "estimate":
                seen.add("estimate")
    assert seen == {
        "before start",
        "past end",
        "GetValue error",
        "SetValue error",
        "unknown component",
        "unknown event",
        "estimate",
        "aggregated",
    }


def test_positional_fold_matches_the_reference_fold_on_a_run(tmp_path):
    cfg = ExperimentConfig("updaterisk-0.5", "pi2", seed=1, duration_s=300.0)
    result = run_experiment(cfg, tmp_path)
    text = (tmp_path / "events.csv").read_text(encoding="ascii")
    rows = parse_event_log(text)
    want = reference_fold.compute_windows(rows, 0, 300.0)
    assert fold_log(logged(rows), 0, 300.0) == want
    # The run folded its log; aggregate_logs folds its events.csv.
    assert RunMetrics(**{f.name: getattr(result, f.name) for f in fields(RunMetrics)}) == want
    aggregated = aggregate_logs(tmp_path / "events.csv")
    assert aggregated == reference_fold.compute_windows(rows, 0, WINDOW_S)
    assert aggregated.totals() == result.totals() == want.totals()
    assert (aggregated.hits, aggregated.misses) == (result.hits, result.misses)


def test_the_fold_takes_indices_in_any_order_of_first_row():
    # Two threads may record the first rows of two new kinds out of index
    # order; the fold still reads each row as its own kind.
    kinds = [("cache", "GetValue", "hit", ""), ("client", "GetValue", "ok", ""),
             ("estimator", "GetValue", "estimate", "6"), ("cache", "GetValue", "miss", "")]
    stamped = [(0, 3), (NS, 1), (NS, 0), (2 * NS, 2), (20 * NS, 3), (20 * NS, 1)]
    rows = [EventRow(ts, *kinds[code]) for ts, code in stamped]
    assert compute_windows(stamped, kinds, 0, 30.0) == reference_fold.compute_windows(rows, 0, 30.0)


@pytest.mark.parametrize("value", ["x", ""])
def test_a_bad_ttl_value_fails_the_fold_on_both_inputs(value):
    rows = [EventRow(0, "client", "GetValue", "ok"), EventRow(NS, "cache", "GetValue", "hit"),
            EventRow(2 * NS, "estimator", "GetValue", "estimate", value)]
    log = logged(rows)
    with pytest.raises(ValueError, match="could not convert string to float"):
        fold_log(log, 0, 30.0)
    with pytest.raises(ValueError, match="could not convert string to float"):
        reference_fold.compute_windows(rows, 0, 30.0)
    with pytest.raises(ValueError, match="could not convert string to float"):
        aggregate_logs(io.StringIO(log.render()))


# --- experiment config ---


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(config_id="nosuch-1")
    with pytest.raises(ValueError):
        ExperimentConfig(config_id="static-1", phase_tag="deg90")
    with pytest.raises(ValueError):
        ExperimentConfig(config_id="static-1", clock_mode="sundial")
    with pytest.raises(ValueError):
        ExperimentConfig(config_id="static-1", duration_s=0.0)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            ExperimentConfig(config_id="static-1", seed=seed)
    for latency in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="link_latency_s must be non-negative and finite"):
            ExperimentConfig(config_id="static-1", link_latency_s=latency)
    # A bad housekeeping window: tests/test_config.py.


@pytest.mark.parametrize("cap", [-1, 1.5, "5", True])
def test_experiment_config_refuses_a_bad_ttl_cap_by_name(cap):
    with pytest.raises(ValueError, match="max_ttl_cap must be a non-negative integer"):
        ExperimentConfig(config_id="adaptive-0.5", max_ttl_cap=cap)


def test_experiment_config_keeps_a_zero_or_absent_ttl_cap():
    assert ExperimentConfig(config_id="adaptive-0.5", max_ttl_cap=0).max_ttl_cap == 0
    assert ExperimentConfig(config_id="adaptive-0.5", max_ttl_cap=None).max_ttl_cap is None


def test_workload_period_follows_duration():
    workload = ExperimentConfig(config_id="static-1", duration_s=120.0).workload()
    assert workload.query.period_s == workload.update.period_s == 120.0


def test_max_ttl_cap_none_means_no_cap(tmp_path):
    run_experiment(ExperimentConfig("adaptive-0.5", duration_s=5.0, max_ttl_cap=None), tmp_path)
    assert "max_ttl_cap=none\n" in (tmp_path / "estimator.cfg").read_text()


def record_estimators(monkeypatch):
    """Make each run's harness.Estimator record the arguments it is built with."""
    built = []

    def build(*args, **kwargs):
        built.append(inspect.signature(Estimator).bind(*args, **kwargs).arguments)
        return Estimator(*args, **kwargs)

    monkeypatch.setattr(harness, "Estimator", build)
    return built


def test_updates_via_cache_blacklists_set_value(tmp_path, monkeypatch):
    built = record_estimators(monkeypatch)
    for via_cache in (True, False):
        cfg = ExperimentConfig("adaptive-0.5", duration_s=5.0, updates_via_cache=via_cache)
        run_experiment(cfg, tmp_path / str(via_cache))
    assert [args.get("blacklist") for args in built] == [("SetValue",), ()]


def test_estimator_cfg_states_the_settings_the_estimator_was_built_with(tmp_path, monkeypatch):
    built = record_estimators(monkeypatch)
    cfg = ExperimentConfig(
        "updaterisk-0.25",
        duration_s=5.0,
        housekeeping_after_s=42.5,
        max_ttl_cap=None,
        updates_via_cache=True,
    )
    run_experiment(cfg, tmp_path)
    (args,) = built
    assert args["algorithm"] == UpdateRiskTtl(0.25)
    assert (args["blacklist"], args["housekeeping_after_s"], args["max_ttl_cap"]) == (
        ("SetValue",), 42.5, None
    )
    assert (tmp_path / "estimator.cfg").read_text(encoding="ascii") == (
        "algorithm=updaterisk\nrho=0.25\nk=2\nblacklist=SetValue\n"
        "housekeeping_after=42.5\nmax_ttl_cap=none\n"
    )


# --- virtual runs ---


def test_static_0_run_has_no_hits_and_no_staleness(tmp_path):
    cfg = ExperimentConfig(config_id="static-0", duration_s=20.0, seed=1)
    result = run_experiment(cfg, tmp_path)
    assert result.traffic_reduction == 0.0
    assert result.error_fraction == 0.0
    assert result.cache_stats.hits == 0
    assert result.total_queries > 0


def test_run_writes_the_four_run_files(tmp_path):
    cfg = ExperimentConfig(config_id="adaptive-0.5", duration_s=20.0)
    result = run_experiment(cfg, tmp_path)
    rows = parse_event_log((tmp_path / "events.csv").read_text())
    assert rows == sorted(rows, key=lambda r: r.timestamp_ns)
    assert (tmp_path / "estimator.cfg").read_text() == format_estimator_config(
        AdaptiveTtl(0.5), (), 300.0, 30
    )
    assert read_result(tmp_path / "result.json") == result
    series = (tmp_path / "timeseries.csv").read_text().splitlines()
    assert series[0] == "window_start_s,hit_fraction,error_fraction,mean_ttl"
    assert len(series) == 1 + len(result.windows)


def test_identical_seeds_are_byte_identical(tmp_path):
    cfg = ExperimentConfig(config_id="updaterisk-0.5", duration_s=30.0, seed=9)
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    for name in ("events.csv", "result.json", "timeseries.csv", "estimator.cfg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    other = run_experiment(
        ExperimentConfig(config_id="updaterisk-0.5", duration_s=30.0, seed=10), tmp_path / "c"
    )
    assert (tmp_path / "a" / "events.csv").read_bytes() != (
        tmp_path / "c" / "events.csv"
    ).read_bytes()
    assert other.seed == 10


def test_log_aggregation_agrees_with_in_memory_counters(tmp_path):
    configs = {
        "plain": ExperimentConfig(config_id="adaptive-0.5", duration_s=60.0, seed=2),
        "latency-via-cache": ExperimentConfig(
            config_id="adaptive-0.5",
            duration_s=60.0,
            seed=2,
            link_latency_s=0.05,
            updates_via_cache=True,
        ),
    }
    for name, cfg in configs.items():
        run_experiment(cfg, tmp_path / name)
        result = json.loads((tmp_path / name / "result.json").read_text())
        metrics = aggregate_logs(tmp_path / name / "events.csv")
        assert metrics.hits == result["cache"]["hits"], name
        assert metrics.misses == result["cache"]["misses"], name
        assert metrics.error_fraction == result["error_fraction"], name
        assert metrics.traffic_reduction == result["traffic_reduction"], name
        assert metrics.total_queries == result["total_queries"], name
        assert metrics.stale_queries == result["stale_queries"], name
        assert metrics.errored_queries == result["errored_queries"], name
        assert metrics.total_updates == result["total_updates"] > 0, name


def assert_time_ordered(rows):
    times = [row.timestamp_ns for row in rows]
    assert times == sorted(times)


# Neither the fold nor events.csv sorts the rows: every backend records
# them in time order. events.csv holds them as recorded.
@pytest.mark.parametrize(
    "cfg",
    [
        ExperimentConfig("updaterisk-0.5", "pi2", duration_s=300.0),
        ExperimentConfig(
            "updaterisk-0.5", "pi2", duration_s=300.0, link_latency_s=0.05, updates_via_cache=True
        ),
        ExperimentConfig("static-1", duration_s=1.0, clock_mode="real"),
    ],
    ids=["virtual", "virtual-latency-via-cache", "real"],
)
def test_runs_record_rows_in_time_order(tmp_path, cfg):
    result = run_experiment(cfg, tmp_path)
    assert result.total_queries > 0
    assert_time_ordered(parse_event_log((tmp_path / "events.csv").read_text()))


def test_scripted_traces_record_rows_in_time_order():
    ops = [ScriptedOp(t * 0.5, kind) for t in range(40) for kind in ("query", "update", "query")]
    rows = run_scripted_trace(ops, "adaptive-0.5")
    assert len(rows) > len(ops)
    assert_time_ordered(rows)


def test_updates_can_be_routed_through_the_cache(tmp_path):
    cfg = ExperimentConfig(
        config_id="adaptive-0.5", duration_s=20.0, updates_via_cache=True
    )
    result = run_experiment(cfg, tmp_path)
    assert result.total_updates > 0
    rows = parse_event_log((tmp_path / "events.csv").read_text())
    set_lookups = [r for r in rows if r.component == "cache" and r.method == "SetValue"]
    assert set_lookups and all(r.event == "miss" for r in set_lookups)


def test_link_latency_shifts_timestamps():
    base = ExperimentConfig(config_id="static-1", duration_s=10.0, link_latency_s=0.05)
    result = run_experiment(base)
    assert result.total_queries > 0


def test_virtual_run_spawns_one_task_per_actor(monkeypatch):
    # Every hop runs inside the task of the actor that made the request.
    spawned = []
    real_spawn = Simulation.spawn

    def counting_spawn(self, gen):
        spawned.append(gen)
        return real_spawn(self, gen)

    monkeypatch.setattr(Simulation, "spawn", counting_spawn)
    cfg = ExperimentConfig(
        config_id="adaptive-0.5", duration_s=30.0, link_latency_s=0.05, updates_via_cache=True
    )
    result = run_experiment(cfg)
    assert result.total_queries > 0 and result.cache_stats.misses > 0
    assert len(spawned) == 3


def test_a_virtual_run_is_freed_when_it_returns(monkeypatch):
    # The query and update actors are still queued past end_ns when the
    # run ends, and their links hold the simulation: without the cyclic
    # collector, only closing them frees the simulation and its log.
    made = []

    def tracking(cls):
        def build(*args):
            obj = cls(*args)
            made.append(weakref.ref(obj))
            return obj

        return build

    monkeypatch.setattr(harness, "EventLog", tracking(harness.EventLog))
    monkeypatch.setattr(harness, "Simulation", tracking(Simulation))
    gc.disable()
    try:
        result = run_experiment(ExperimentConfig(config_id="static-1", duration_s=60.0))
        assert result.total_queries > 0
        assert len(made) == 2 and all(ref() is None for ref in made)
    finally:
        gc.enable()


@pytest.mark.parametrize("config_id", ["static-0", "static-30", "updaterisk-0.5"])
@pytest.mark.parametrize("latency_s", [0.0, 0.05])
def test_virtual_runs_match_the_reference_scheduler(tmp_path, monkeypatch, config_id, latency_s):
    cfg = ExperimentConfig(
        config_id=config_id,
        phase_tag="pi2",
        seed=5,
        duration_s=120.0,
        link_latency_s=latency_s,
        updates_via_cache=latency_s > 0,
    )
    result = run_experiment(cfg, tmp_path / "sim")
    assert result.total_queries > 0 and result.total_updates > 0
    monkeypatch.setattr(harness, "Simulation", ReferenceSimulation)
    run_experiment(cfg, tmp_path / "reference")
    for name in ("events.csv", "result.json", "timeseries.csv", "estimator.cfg"):
        assert (tmp_path / "sim" / name).read_bytes() == (
            tmp_path / "reference" / name
        ).read_bytes(), name


def test_scripted_traces_with_ties_match_the_reference_scheduler(monkeypatch):
    rng = random.Random(11)
    traces = []
    for _ in range(20):
        times = sorted(rng.randint(0, 12) * 0.5 for _ in range(rng.randint(5, 40)))
        ops = [ScriptedOp(t, rng.choice(["query", "update"])) for t in times]
        traces.append((ops, rng.choice(["static-30", "adaptive-0.5", "updaterisk-0.9"])))
    ours = [run_scripted_trace(ops, config_id) for ops, config_id in traces]
    monkeypatch.setattr(harness, "Simulation", ReferenceSimulation)
    assert [run_scripted_trace(ops, config_id) for ops, config_id in traces] == ours


def test_virtual_run_advances_most_hop_legs_in_place(monkeypatch):
    # A zero-latency hop leg that wakes its task before any other event is
    # due advances the clock at the link and never reaches the scheduler.
    # The heap still sees exactly the pushes it saw when every leg was a
    # Sleep resumed in place by the task: 581 for this run.
    counts = {"legs": 0, "yielded_legs": 0, "pushes": 0}
    real_exchange = VirtualLink.exchange
    real_spawn, real_call_at = Simulation.spawn, Simulation.call_at

    def counting_exchange(self, request):
        counts["legs"] += 2
        return real_exchange(self, request)

    def counted(gen):
        for effect in gen:
            # Actors sleep at least 1 ms, so a Sleep(0) is a hop leg.
            counts["yielded_legs"] += effect.duration_ns == 0
            yield effect

    def counting_call_at(self, t_ns, fn):
        counts["pushes"] += 1
        return real_call_at(self, t_ns, fn)

    monkeypatch.setattr(VirtualLink, "exchange", counting_exchange)
    monkeypatch.setattr(Simulation, "spawn", lambda self, gen: real_spawn(self, counted(gen)))
    monkeypatch.setattr(Simulation, "call_at", counting_call_at)
    run_experiment(ExperimentConfig(config_id="updaterisk-0.5", phase_tag="pi2", duration_s=600.0))
    assert counts["pushes"] == 581
    assert counts["legs"] > 10_000
    assert counts["legs"] - counts["yielded_legs"] > 0.95 * counts["legs"]


def test_real_clock_backend_smoke(tmp_path):
    cfg = ExperimentConfig(config_id="static-1", duration_s=2.0, clock_mode="real")
    result = run_experiment(cfg, tmp_path)
    assert result.clock_mode == "real"
    assert result.total_queries > 0
    metrics = aggregate_logs(tmp_path / "events.csv")
    assert metrics.hits == result.cache_stats.hits
    assert metrics.misses == result.cache_stats.misses


@pytest.mark.parametrize("clock_mode", ["virtual", "real"])
def test_a_crashed_actor_fails_the_run(monkeypatch, clock_mode):
    def crashing_actor(*args):
        raise RuntimeError("update actor crashed")
        yield  # pragma: no cover - makes this a generator function

    monkeypatch.setattr(harness, "update_actor", crashing_actor)
    cfg = ExperimentConfig(config_id="static-1", duration_s=1.0, clock_mode=clock_mode)
    with pytest.raises(RuntimeError, match="update actor crashed"):
        run_experiment(cfg)


@pytest.mark.parametrize(
    "logged, error",
    [((), "no completed queries"), ((("client", "GetValue", "ok"),), "no cache lookups")],
)
def test_a_run_without_a_ratio_to_report_fails(monkeypatch, logged, error):
    def query_actor(sinusoid, clock, cache_link, ledger, rng, start_ns, end_ns, log):
        for row in logged:
            log.record(clock.now_ns(), *row)
        yield from ()

    monkeypatch.setattr(harness, "query_actor", query_actor)
    with pytest.raises(ValueError, match=error):
        run_experiment(ExperimentConfig(config_id="static-1", duration_s=1.0))


def test_a_crashed_real_clock_actor_ends_the_run_at_once(monkeypatch):
    def crashing_actor(*args):
        raise RuntimeError("update actor crashed")
        yield  # pragma: no cover - makes this a generator function

    monkeypatch.setattr(harness, "update_actor", crashing_actor)
    cfg = ExperimentConfig(config_id="static-1", duration_s=30.0, clock_mode="real")
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="update actor crashed"):
        run_experiment(cfg)
    assert time.monotonic() - start < 5.0
    others = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    assert others == ["meshcache-loop"]


TRACED_RUN =textwrap.dedent(
    """
    import json, sys
    sys.path.insert(0, sys.argv[1])
    import tracer
    from meshcache.harness import ExperimentConfig, run_experiment

    spans = tracer.Tracer()
    registry = tracer.install(spans)
    run_experiment(ExperimentConfig(config_id="adaptive-0.5", duration_s=60.0))
    table, _ = spans.totals()
    print(json.dumps({
        "caches": len(registry["caches"]),
        "estimators": len(registry["estimators"]),
        "spans": sorted(table),
    }))
    """
)


def test_benchmark_trace_hooks_reach_a_run():
    # bench/tracer.py replaces names the harness looks up in its module
    # globals at call time; install() patches the process, hence a child.
    root = Path(__file__).resolve().parent.parent
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(root / "bench")],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.splitlines()[-1])
    assert (report["caches"], report["estimators"]) == (1, 1)
    assert {
        "harness.compute_windows", "workload.actor", "cache.handle_miss",
        "ttl.estimate", "ttl.observe",
    } <= set(report["spans"])


# --- scripted traces vs the straight-line oracle ---


def as_tuples(rows):
    return [(r.timestamp_ns, r.component, r.method, r.event, r.value) for r in rows]


def test_scripted_trace_matches_oracle_with_expiry_and_staleness():
    ops = [
        ScriptedOp(0.0, "query"),
        ScriptedOp(10.0, "query"),  # age 10 * 0.5 -> ttl 5, cached until 15
        ScriptedOp(12.0, "query"),  # hit, still current
        ScriptedOp(13.0, "update"),
        ScriptedOp(14.0, "query"),  # hit, now stale
        ScriptedOp(15.0, "query"),  # expiry boundary: miss
        ScriptedOp(20.0, "query"),
    ]
    rows = run_scripted_trace(ops, "adaptive-0.5")
    expected = replay_trace([(op.at_s, op.kind) for op in ops], "adaptive-0.5")
    assert as_tuples(rows) == expected
    stale_rows = [r for r in rows if r.event == "stale"]
    assert [r.timestamp_ns for r in stale_rows] == [14 * NS]


def test_scripted_trace_matches_oracle_update_risk():
    ops = [
        ScriptedOp(0.0, "query"),
        ScriptedOp(1.0, "update"),
        ScriptedOp(2.0, "query"),  # second change: bud engages
        ScriptedOp(3.0, "query"),
        ScriptedOp(5.0, "query"),
    ]
    rows = run_scripted_trace(ops, "updaterisk-0.9")
    expected = replay_trace([(op.at_s, op.kind) for op in ops], "updaterisk-0.9")
    assert as_tuples(rows) == expected
    estimates = [r.value for r in rows if r.event == "estimate"]
    assert estimates == ["0", "2", "5"]


@pytest.mark.parametrize("config_id", ["updaterisk-0.5", "updaterisk-0.9", "adaptive-0.5"])
def test_scripted_trace_matches_oracle_with_changes_at_one_instant(config_id):
    # A query, an update and a query in the same instant: the estimator sees
    # two different values at once, which is two changes at one time stamp.
    ops = [
        ScriptedOp(1.0, "query"),
        ScriptedOp(1.0, "update"),
        ScriptedOp(1.0, "query"),
        ScriptedOp(2.0, "update"),
        ScriptedOp(2.0, "query"),
        ScriptedOp(2.0, "query"),
        ScriptedOp(9.0, "query"),
    ]
    rows = run_scripted_trace(ops, config_id)
    assert as_tuples(rows) == replay_trace([(op.at_s, op.kind) for op in ops], config_id)
    assert not [r for r in rows if r.event == "error"]


def test_scripted_trace_honors_the_cap():
    ops = [ScriptedOp(0.0, "query"), ScriptedOp(100.0, "query")]
    rows = run_scripted_trace(ops, "adaptive-0.5", max_ttl_cap=3)
    expected = replay_trace([(0.0, "query"), (100.0, "query")], "adaptive-0.5", cap=3)
    assert as_tuples(rows) == expected
    assert [r.value for r in rows if r.event == "estimate"] == ["0", "3"]


def test_scripted_trace_refuses_a_negative_cap():
    # A cap of -1 would stamp max-age=-1, which the cache reads as
    # malformed, so caching would silently stop.
    with pytest.raises(ValueError, match="max_ttl_cap must be a non-negative integer"):
        run_scripted_trace([ScriptedOp(0.0, "query")], "adaptive-0.5", max_ttl_cap=-1)


def test_scripted_op_validation():
    with pytest.raises(ValueError):
        ScriptedOp(1.0, "delete")
    with pytest.raises(ValueError):
        ScriptedOp(-1.0, "query")


# --- aggregation from raw CSV ---


SAMPLE_LOG = """\
0,cache,GetValue,miss,
0,estimator,GetValue,estimate,5
0,client,GetValue,ok,
1000000000,cache,GetValue,hit,
1000000000,client,GetValue,ok,
2000000000,cache,GetValue,hit,
2000000000,client,GetValue,stale,
3000000000,client,SetValue,ok,
4000000000,client,GetValue,error,
"""


def test_aggregate_logs_hand_checked():
    metrics = aggregate_logs(io.StringIO(SAMPLE_LOG))
    assert metrics.hits == 2 and metrics.misses == 1
    assert metrics.traffic_reduction == 2 / 3
    assert metrics.total_queries == 3  # the errored query is excluded
    assert metrics.stale_queries == 1
    assert metrics.errored_queries == 1
    assert metrics.error_fraction == 1 / 3


def test_aggregate_requires_signal():
    # aggregate_logs folds the rows and checks both ratios before returning.
    with pytest.raises(ValueError, match="no completed queries"):
        aggregate_logs(io.StringIO("0,client,GetValue,error,\n"))
    with pytest.raises(ValueError, match="no cache lookups"):
        aggregate_logs(io.StringIO("0,client,GetValue,ok,\n"))


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_aggregating_a_file_keeps_row_numbers_for_every_line_ending(tmp_path, newline):
    path = tmp_path / "events.csv"
    path.write_bytes(SAMPLE_LOG.replace("\n", newline).encode("ascii"))
    assert aggregate_logs(path) == aggregate_logs(io.StringIO(SAMPLE_LOG))
    # A blank line still counts: the bad row is the file's third line.
    bad = ("0,cache,GetValue,miss,", "", "1,cache,GetValue", "2,client,GetValue,ok,")
    path.write_bytes(newline.join(bad).encode("ascii"))
    with pytest.raises(ValueError, match=r"^row 3: expected 5 comma-separated fields, got 3$"):
        aggregate_logs(path)
    path.write_bytes(newline.join(("0,cache,GetValue,miss,", "", "", "x,c,m,e,")).encode())
    with pytest.raises(ValueError, match=r"^row 4: bad timestamp 'x'$"):
        aggregate_logs(str(path))


def test_aggregating_a_file_holds_a_row_not_the_file(tmp_path):
    # One window and a few kinds: the fold's own state is a few counters
    # and one classified step per kind, so reading the file row by row
    # holds about as much for ten times the rows.
    kinds = (
        "cache,GetValue,miss,", "estimator,GetValue,estimate,7", "client,GetValue,ok,",
        "cache,GetValue,hit,", "client,GetValue,stale,", "client,SetValue,ok,",
    )

    def peak_for(rows):
        path = tmp_path / f"events-{rows}.csv"
        with open(path, "w", encoding="ascii") as fh:
            for i in range(rows):
                fh.write(f"{i * 1000},{kinds[i % len(kinds)]}\n")
        tracemalloc.start()
        try:
            metrics = aggregate_logs(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert metrics.hits + metrics.misses == rows // 3
        return peak

    short, long = peak_for(3_000), peak_for(30_000)
    assert long < 2 * short, (short, long)


# --- scatter and result files ---


def fake_result(config_id, phase, seed, tr, ef):
    hits, stale = round(tr * 100), round(ef * 100)
    return ExperimentResult(
        config_id=config_id,
        phase_tag=phase,
        seed=seed,
        duration_s=300.0,
        clock_mode="virtual",
        total_queries=100,
        stale_queries=stale,
        errored_queries=0,
        total_updates=10,
        hits=hits,
        misses=100 - hits,
        cache_stats=CacheStats(hits, 100 - hits, 5, 2),
        windows=(WindowStats(0.0, ef, tr, 1.0),),
    )


def test_scatter_lines_average_seeds_in_canonical_order():
    results = [
        fake_result("updaterisk-0.5", "0", 1, 0.2, 0.02),
        fake_result("static-1", "pi", 1, 0.8, 0.1),
        fake_result("updaterisk-0.5", "0", 2, 0.4, 0.04),
        fake_result("static-1", "0", 1, 0.9, 0.2),
    ]
    assert scatter_lines(results) == [
        "config_id,parameter,phase_shift,traffic_reduction,error_fraction",
        "static-1,1,0,0.900000,0.200000",
        "static-1,1,pi,0.800000,0.100000",
        "updaterisk-0.5,0.5,0,0.300000,0.030000",
    ]
    with pytest.raises(ValueError):
        scatter_lines([])


def test_result_json_roundtrip(tmp_path):
    result = fake_result("adaptive-0.25", "pi2", 3, 0.33, 0.01)
    write_result(result, tmp_path / "result.json")
    assert read_result(tmp_path / "result.json") == result
    data = json.loads((tmp_path / "result.json").read_text())
    assert data["phase"] == "pi2" and data["cache"]["hits"] == 33


def test_write_timeseries_format(tmp_path):
    windows = (WindowStats(0.0, 0.0, 0.5, 1.25), WindowStats(15.0, 0.1, 0.25, 0.0))
    write_timeseries(windows, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_text() == (
        "window_start_s,hit_fraction,error_fraction,mean_ttl\n"
        "0,0.500000,0.000000,1.250000\n"
        "15,0.250000,0.100000,0.000000\n"
    )


# --- suites ---


def test_run_suite_layout_and_scatter(tmp_path):
    outcome = run_suite(
        ["dynamic-adaptive-0.5", "static-1"],
        phases=("0", "pi"),
        seeds=(1, 2),
        duration_s=5.0,
        out_dir=tmp_path,
    )
    assert len(outcome.results) == 8 and not outcome.failures
    for config in ("static-1", "adaptive-0.5"):
        for phase in ("0", "pi"):
            for seed in (1, 2):
                d = run_dir(tmp_path, config, phase, seed)
                assert (d / "events.csv").exists() and (d / "result.json").exists()
    lines = (tmp_path / "scatter.csv").read_text().splitlines()
    assert len(lines) == 1 + 4  # header + 2 configs x 2 phases
    assert lines[1].startswith("static-1,1,0,")  # canonical order, static first
    assert load_results(tmp_path)[0].config_id == "adaptive-0.5"  # path order


def test_run_suite_runs_each_algorithm_phase_and_seed_once(tmp_path):
    outcome = run_suite(["static-1"], ["0", "0"], [1, 1], 5.0, tmp_path / "repeats")
    assert [(r.config_id, r.phase_tag, r.seed) for r in outcome.results] == [("static-1", "0", 1)]
    # Two spellings of one algorithm run once, under the first one listed.
    ids = ["static-7", "static-07", "adaptive-0.50", "dynamic-adaptive-0.5", "adaptive-0.5"]
    outcome = run_suite(ids, ["0"], [1], 5.0, tmp_path / "spellings")
    assert [r.config_id for r in outcome.results] == ["adaptive-0.50", "static-7"]
    assert sorted(p.name for p in (tmp_path / "spellings").iterdir()) == [
        "adaptive-0.50", "scatter.csv", "static-7"
    ]


def test_a_finished_run_keeps_a_few_kilobytes(tmp_path):
    # What a suite keeps per run: its result, with 120 windows. As one
    # object per window and per float it was about 25 KB; as three columns
    # of doubles it is about 4 KB.
    tracemalloc.start()
    try:
        outcome = run_suite(["static-1"], ["pi2"], [1, 2], 1800.0, tmp_path)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
        runs = len(outcome.results)
        del outcome
        gc.collect()
        per_run = (kept - tracemalloc.get_traced_memory()[0]) / runs
    finally:
        tracemalloc.stop()
    assert runs == 2
    assert per_run < 8 * 1024, f"{per_run:.0f} B kept per run"


def test_run_suite_records_failures_and_keeps_going(tmp_path, monkeypatch):
    import meshcache.harness as harness

    real = harness.run_experiment

    def sometimes_broken(cfg, out_dir=None):
        if cfg.phase_tag == "pi":
            raise RuntimeError("induced")
        return real(cfg, out_dir)

    monkeypatch.setattr(harness, "run_experiment", sometimes_broken)
    outcome = harness.run_suite(
        ["static-1"], phases=("0", "pi"), seeds=(1,), duration_s=5.0, out_dir=tmp_path
    )
    assert len(outcome.results) == 1
    assert outcome.failures == (("static-1", "pi", 1, "RuntimeError: induced"),)
    assert (tmp_path / "scatter.csv").exists()  # written from the survivors
    # A run whose config is refused is one more failure, not an abort.
    outcome = harness.run_suite(
        ["static-1"], phases=("0",), seeds=(1, -1), duration_s=5.0, out_dir=tmp_path / "s"
    )
    assert len(outcome.results) == 1
    assert [failure[:3] for failure in outcome.failures] == [("static-1", "0", -1)]
    assert (tmp_path / "s" / "scatter.csv").exists()


def test_one_long_run_with_outputs_peaks_under_a_megabyte(tmp_path):
    # The largest run of the default suite (24,788 event rows). The log
    # holds 12 bytes a row and its file is written a block at a time; with
    # an object-holding slot per row and 4096-row blocks it peaked at
    # 1.53 MB. The first run fills the workload's shared draw prefix.
    cfg = ExperimentConfig("updaterisk-0.5", phase_tag="pi2", seed=1, duration_s=1800.0)
    run_experiment(cfg, tmp_path / "first")
    tracemalloc.start()
    try:
        result = run_experiment(cfg, tmp_path / "measured")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.total_queries > 9_000
    assert peak < 1_000_000, f"peaked at {peak} B"
