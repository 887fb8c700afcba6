"""Span tracing of meshcache's layers, installed from outside the package.

``install(tracer)`` replaces public functions and methods of the modules in
``src/meshcache/`` with wrappers that open a span around each call. Names
a module imported from another (``tcp.encode``, ``estimator.observe``, ...)
are replaced where they are looked up. Nothing under ``src/`` changes, and
with tracing off none of this is imported.

A span is (id, parent id, name, start ns, end ns). Self time is a span's
duration minus the time its child spans cover. For an effect generator
each resumption is one span, so its self time leaves out the time the
caller spends in the call it yielded. Spans are folded into per-name
totals as they close; the first ``SPAN_CAP`` are also kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

SPAN_CAP = 100_000

_now = time.perf_counter_ns


class _ThreadState:
    __slots__ = ("stack", "table", "counts", "owner")

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start, child ns, span id]
        self.table: dict[str, list[int]] = {}  # name -> [spans, total ns, self ns]
        self.counts: dict[str, int] = {}
        self.owner = ""


class Tracer:
    """Per-thread span stacks, folded into per-name totals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.spans: list[tuple[int, int, str, int, int]] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def enter(self, name: str) -> None:
        self._state().stack.append([name, _now(), 0, next(self._ids)])

    def exit(self, name: str | None = None) -> None:
        """Close the innermost span, optionally naming it now."""
        end = _now()
        state = self._state()
        span_name, start, child_ns, span_id = state.stack.pop()
        if name is not None:
            span_name = name
        duration = end - start
        parent_id = 0
        if state.stack:
            parent = state.stack[-1]
            parent[2] += duration
            parent_id = parent[3]
        row = state.table.get(span_name)
        if row is None:
            row = state.table[span_name] = [0, 0, 0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child_ns
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent_id, span_name, start, end))

    def count(self, name: str, n: int = 1) -> None:
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + n

    def set_owner(self, owner: str) -> None:
        self._state().owner = owner

    def owner(self) -> str:
        return self._state().owner

    def totals(self) -> tuple[dict[str, list[int]], dict[str, int]]:
        """Per-name [spans, total ns, self ns] and counters over all threads."""
        table: dict[str, list[int]] = {}
        counts: dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, row in list(state.table.items()):
                acc = table.setdefault(name, [0, 0, 0])
                for i in range(3):
                    acc[i] += row[i]
            for name, n in list(state.counts.items()):
                counts[name] = counts.get(name, 0) + n
        return table, counts

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")

    # Wrappers -----------------------------------------------------------

    def function(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counted

    def generator(self, name: str, gen, first_step_names: tuple[str, str] | None = None):
        """Drive ``gen`` through, one span per resumption.

        With ``first_step_names`` = (finished, suspended), every span of a
        call is named after whether its first resumption finished the
        generator or suspended it (a cache hit or a miss).
        """
        self.count(name + ".calls")
        value = None
        error: BaseException | None = None
        step_name = name
        first = True
        while True:
            if isinstance(error, GeneratorExit):
                gen.close()
                raise error
            self.enter(step_name)
            try:
                effect = gen.throw(error) if error is not None else gen.send(value)
            except StopIteration as stop:
                if first and first_step_names is not None:
                    step_name = first_step_names[0]
                self.exit(step_name)
                return stop.value
            except BaseException:
                self.exit()
                raise
            if first and first_step_names is not None:
                step_name = first_step_names[1]
            self.exit(step_name)
            first = False
            try:
                value, error = (yield effect), None
            except BaseException as exc:  # noqa: BLE001 - thrown into the inner generator
                value, error = None, exc

    def generator_function(self, name: str, fn, first_step_names=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.generator(name, fn(*args, **kwargs), first_step_names)

        return traced


def install(tracer: Tracer) -> dict:
    """Wrap every traced layer; returns the registry of created sidecars.

    The registry collects the Cache and Estimator objects the harness
    builds, so their counters can be read when each run ends.
    """
    from meshcache import cache, digests, effects, estimator, eventlog, harness, sim, tcp, ttl
    from meshcache import wire, workload

    registry: dict[str, list] = {"caches": [], "estimators": []}

    # sim: scheduler events and tasks are counted, the loop is a span.
    sim.Simulation.call_at = tracer.counted("sim.events", sim.Simulation.call_at)
    sim.Simulation.spawn = tracer.counted("sim.tasks", sim.Simulation.spawn)
    sim.Simulation.run = tracer.function("sim.run", sim.Simulation.run)

    # effects: handler dispatch on both backends, and the live trampoline.
    real_invoke = effects.invoke_handler

    def invoke_handler(handler, request):
        owner = type(getattr(handler, "__self__", handler)).__name__
        tracer.set_owner(owner)
        return tracer.generator("effects.invoke_handler", real_invoke(handler, request))

    sim.invoke_handler = invoke_handler
    tcp.invoke_handler = invoke_handler
    effects.invoke_handler = invoke_handler

    real_drive = tcp.drive

    def drive(task, clock):
        # tcp calls invoke_handler(...) just before drive(...) on the same
        # thread, so the owner names the sidecar this request is served by.
        owner = tracer.owner()
        tracer.enter("effects.drive")
        try:
            return real_drive(task, clock)
        finally:
            tracer.exit(f"effects.drive[{owner}]")

    tcp.drive = drive

    # ttl and digests, looked up by name in the estimator and the cache.
    estimator.observe = tracer.function("ttl.observe", ttl.observe)
    estimator.estimate = tracer.function("ttl.estimate", ttl.estimate)
    cache.cache_key = tracer.function("digests.cache_key", digests.cache_key)
    estimator.cache_key = cache.cache_key
    estimator.response_digest = tracer.function("digests.response_digest", digests.response_digest)

    # cache and estimator sidecars.
    cache.Cache.handle = tracer.generator_function(
        "cache.handle", cache.Cache.handle, ("cache.handle_hit", "cache.handle_miss")
    )
    estimator.Estimator.handle = tracer.generator_function(
        "estimator.handle", estimator.Estimator.handle
    )

    def registering(kind, cls):
        def build(*args, **kwargs):
            obj = cls(*args, **kwargs)
            registry[kind].append(obj)
            return obj

        return build

    harness.Cache = registering("caches", cache.Cache)
    harness.Estimator = registering("estimators", estimator.Estimator)

    # wire: frame codec as the TCP backend calls it, and metadata stamping.
    real_encode = wire.encode

    def encode(message):
        tracer.enter("wire.encode")
        try:
            frame = real_encode(message)
        finally:
            tracer.exit()
        tracer.count("wire.frame_bytes", len(frame))
        return frame

    tcp.encode = encode
    tcp.decode = tracer.function("wire.decode", wire.decode)
    wire.Message.with_metadata = tracer.function("wire.with_metadata", wire.Message.with_metadata)

    # eventlog.
    eventlog.EventLog.record = tracer.function("eventlog.record", eventlog.EventLog.record)
    real_write_to = eventlog.EventLog.write_to

    def write_to(self, path):
        tracer.count("eventlog.rows", len(self.rows()))
        tracer.enter("eventlog.write_to")
        try:
            return real_write_to(self, path)
        finally:
            tracer.exit()

    eventlog.EventLog.write_to = write_to

    # workload: pacing, the value server, and the actors themselves (so
    # their own steps do not count as scheduler time).
    workload.next_delay_ms = tracer.function("workload.next_delay_ms", workload.next_delay_ms)
    workload.ValueServer.handle = tracer.function("workload.server_handle", workload.ValueServer.handle)
    harness.query_actor = tracer.generator_function("workload.actor", workload.query_actor)
    harness.update_actor = tracer.generator_function("workload.actor", workload.update_actor)

    # harness.
    harness.compute_windows = tracer.function("harness.compute_windows", harness.compute_windows)
    for name in ("write_result", "write_timeseries", "write_scatter"):
        setattr(harness, name, tracer.function("harness.write", getattr(harness, name)))
    return registry


def wrap_link(tracer: Tracer, link, name: str) -> None:
    """Time every send() of one TcpLink instance under ``name``."""
    link.send = tracer.function(name, link.send)


def _per_call_us(row, calls: int | None = None, use_self: bool = False) -> float:
    if row is None:
        return 0.0
    n = row[0] if calls is None else calls
    if n == 0:
        return 0.0
    return (row[2] if use_self else row[1]) / n / 1000.0


def layer_metrics(tracer: Tracer, runs: int = 0) -> dict[str, float]:
    """Per-layer figures from the spans and counters; ``runs`` matrix runs."""
    table, counts = tracer.totals()
    get = table.get
    events = counts.get("sim.events", 0)
    sim_run = get("sim.run")
    drives = [row for name, row in table.items() if name.startswith("effects.drive[")]
    drive_calls = sum(row[0] for row in drives)
    drive_self = sum(row[2] for row in drives)
    hop_names = ("tcp.cache_upstream", "tcp.estimator_upstream")
    hop_sends = sum(get(n, [0, 0, 0])[0] for n in hop_names)
    hop_send_ns = sum(get(n, [0, 0, 0])[1] for n in hop_names)
    downstream_ns = sum(
        get(f"effects.drive[{owner}]", [0, 0, 0])[1] for owner in ("Estimator", "ValueServer")
    )
    hit_calls = get("cache.handle_hit", [0])[0]
    miss_calls = counts.get("cache.handle.calls", 0) - hit_calls

    def per_run_s(total_ns: int) -> float:
        return total_ns / runs / 1e9 if runs else 0.0

    return {
        "sim.events": float(events),
        "sim.tasks": float(counts.get("sim.tasks", 0)),
        "sim.event_us": (sim_run[2] / events / 1000.0) if sim_run and events else 0.0,
        "effects.invoke_handler.calls": float(counts.get("effects.invoke_handler.calls", 0)),
        "effects.invoke_handler.self_us": _per_call_us(
            get("effects.invoke_handler"), counts.get("effects.invoke_handler.calls", 0), True
        ),
        "effects.drive.self_us": drive_self / drive_calls / 1000.0 if drive_calls else 0.0,
        "ttl.observe.calls": float(get("ttl.observe", [0])[0]),
        "ttl.observe_us": _per_call_us(get("ttl.observe")),
        "ttl.estimate_us": _per_call_us(get("ttl.estimate")),
        "digests.cache_key_us": _per_call_us(get("digests.cache_key")),
        "digests.response_digest_us": _per_call_us(get("digests.response_digest")),
        "cache.handle_hit_us": _per_call_us(get("cache.handle_hit")),
        "cache.handle_miss_self_us": _per_call_us(get("cache.handle_miss"), miss_calls, True),
        "estimator.handle_self_us": _per_call_us(
            get("estimator.handle"), counts.get("estimator.handle.calls", 0), True
        ),
        "wire.with_metadata_us": _per_call_us(get("wire.with_metadata")),
        "wire.encode_us": _per_call_us(get("wire.encode")),
        "wire.decode_us": _per_call_us(get("wire.decode")),
        "wire.frames": float(get("wire.encode", [0])[0]),
        "wire.frame_bytes": float(counts.get("wire.frame_bytes", 0)),
        "tcp.cache_upstream_us": _per_call_us(get("tcp.cache_upstream")),
        "tcp.estimator_upstream_us": _per_call_us(get("tcp.estimator_upstream")),
        "tcp.hop_wait_us": (hop_send_ns - downstream_ns) / hop_sends / 1000.0 if hop_sends else 0.0,
        "eventlog.record.calls": float(get("eventlog.record", [0])[0]),
        "eventlog.record_us": _per_call_us(get("eventlog.record")),
        "eventlog.rows": float(counts.get("eventlog.rows", 0)),
        "eventlog.write_s": per_run_s(get("eventlog.write_to", [0, 0])[1]),
        "workload.next_delay_us": _per_call_us(get("workload.next_delay_ms")),
        "workload.server_handle_us": _per_call_us(get("workload.server_handle")),
        "harness.compute_windows_s": per_run_s(get("harness.compute_windows", [0, 0])[1]),
        "harness.write_s": per_run_s(
            get("harness.write", [0, 0])[1] + get("eventlog.write_to", [0, 0])[1]
        ),
    }
