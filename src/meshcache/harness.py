"""Experiment orchestration: topology wiring, runs, suites, aggregation.

A run wires the four-node topology

    client --> cache --> estimator --> server
       \\----------- updates ----------/

once, through a connect(handler) -> link function: under the virtual
clock (deterministic, runs in milliseconds) it returns virtual links on
one event loop, under the real clock TCP links to loopback servers.
Updates go straight to the server by default; routing them through the
cache with SetValue blacklisted is available as a fidelity option.

Each run directory holds four files:

    events.csv      every timestamped CSV row from all components
    estimator.cfg   the estimator sidecar's key=value config (the run
                    builds the sidecar by parsing this file back)
    result.json     metrics plus the per-window time series, all from one
                    fold over the rows (compute_windows), which
                    `meshcache aggregate` repeats on events.csv
    timeseries.csv  the same windows as CSV for plotting

A suite is the cross product configs x phases x seeds; it aggregates
per (config, phase) by averaging seeds and writes scatter.csv.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Generator, Iterable, Sequence
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from .cache import Cache, CacheStats
from .clock import Clock, SystemClock, seconds_to_ns
from .config import (
    EstimatorSettings,
    algorithm_parameter,
    canonical_order,
    format_estimator_config,
    parse_config_id,
    parse_estimator_config,
)
from .effects import Handler, Link, Sleep
from .estimator import Estimator, housekeeping_loop
from .eventlog import EventLog, EventRow, parse_event_log
from .sim import Simulation
from .tcp import ServerHandle, TcpLink, run_actors, serve
from .workload import (
    GET_METHOD,
    PHASE_SHIFTS,
    QUERY_SINUSOID,
    SET_METHOD,
    UPDATE_SINUSOID,
    StalenessLedger,
    ValueServer,
    WorkloadConfig,
    query_actor,
    query_once,
    update_actor,
    update_once,
)

WINDOW_S = 15.0


@dataclass(frozen=True)
class ExperimentConfig:
    """One run: an algorithm id against one workload instance."""

    config_id: str
    phase_tag: str = "0"
    seed: int = 1
    duration_s: float = 300.0
    clock_mode: str = "virtual"
    period_s: float | None = None  # None: period follows duration
    blacklist: tuple[str, ...] = ()
    housekeeping_after_s: float = 300.0
    max_ttl_cap: int | None = None  # None: estimator default cap
    updates_via_cache: bool = False
    link_latency_s: float = 0.0

    def __post_init__(self) -> None:
        parse_config_id(self.config_id)  # raises ValueError when unknown
        if self.clock_mode not in ("virtual", "real"):
            raise ValueError(f"clock_mode must be virtual or real, got {self.clock_mode!r}")
        self.workload()  # checks phase, duration, period and seed

    def workload(self) -> WorkloadConfig:
        period = self.period_s if self.period_s is not None else self.duration_s
        return WorkloadConfig(
            query=replace(QUERY_SINUSOID, period_s=period),
            update=replace(UPDATE_SINUSOID, period_s=period),
            duration_s=self.duration_s,
            seed=self.seed,
            phase_tag=self.phase_tag,
        )

    def estimator_settings(self) -> EstimatorSettings:
        _, algorithm = parse_config_id(self.config_id)
        blacklist = self.blacklist
        if self.updates_via_cache and SET_METHOD not in blacklist:
            blacklist = blacklist + (SET_METHOD,)
        kwargs = {}
        if self.max_ttl_cap is not None:
            kwargs["max_ttl_cap"] = self.max_ttl_cap
        return EstimatorSettings(
            algorithm,
            blacklist=blacklist,
            housekeeping_after_s=self.housekeeping_after_s,
            **kwargs,
        )


@dataclass(frozen=True)
class WindowStats:
    start_s: float
    error_fraction: float
    hit_fraction: float
    mean_ttl: float


@dataclass(frozen=True)
class ExperimentResult:
    config_id: str
    phase_tag: str
    seed: int
    duration_s: float
    clock_mode: str
    error_fraction: float
    traffic_reduction: float
    total_queries: int
    stale_queries: int
    errored_queries: int
    total_updates: int
    cache_stats: CacheStats
    windows: tuple[WindowStats, ...]

    def to_json_dict(self) -> dict:
        return {
            "config_id": self.config_id,
            "phase": self.phase_tag,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "clock": self.clock_mode,
            "error_fraction": self.error_fraction,
            "traffic_reduction": self.traffic_reduction,
            "total_queries": self.total_queries,
            "stale_queries": self.stale_queries,
            "errored_queries": self.errored_queries,
            "total_updates": self.total_updates,
            "cache": {
                "hits": self.cache_stats.hits,
                "misses": self.cache_stats.misses,
                "insertions": self.cache_stats.insertions,
                "expirations": self.cache_stats.expirations,
            },
            "windows": [
                [w.start_s, w.error_fraction, w.hit_fraction, w.mean_ttl]
                for w in self.windows
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "ExperimentResult":
        cache = data["cache"]
        return ExperimentResult(
            config_id=data["config_id"],
            phase_tag=data["phase"],
            seed=data["seed"],
            duration_s=data["duration_s"],
            clock_mode=data["clock"],
            error_fraction=data["error_fraction"],
            traffic_reduction=data["traffic_reduction"],
            total_queries=data["total_queries"],
            stale_queries=data["stale_queries"],
            errored_queries=data["errored_queries"],
            total_updates=data["total_updates"],
            cache_stats=CacheStats(
                cache["hits"], cache["misses"], cache["insertions"], cache["expirations"]
            ),
            windows=tuple(WindowStats(*w) for w in data["windows"]),
        )


@dataclass(frozen=True)
class RunMetrics:
    """Run totals and per-window series from one scan over the event rows.

    total_queries counts completed GetValues (ok or stale); errored ones
    are counted apart and excluded from the error fraction. The two ratios
    raise ValueError when the rows hold nothing to divide by.
    """

    total_queries: int
    stale_queries: int
    errored_queries: int
    total_updates: int
    hits: int
    misses: int
    windows: tuple[WindowStats, ...]

    @property
    def error_fraction(self) -> float:
        """Stale share of completed queries."""
        if self.total_queries == 0:
            raise ValueError("no completed queries in log")
        return self.stale_queries / self.total_queries

    @property
    def traffic_reduction(self) -> float:
        """Share of cache lookups answered without going upstream."""
        if self.hits + self.misses == 0:
            raise ValueError("no cache lookups in log")
        return self.hits / (self.hits + self.misses)


def compute_windows(
    rows: Iterable[EventRow],
    start_ns: int,
    duration_s: float,
    window_s: float = WINDOW_S,
) -> RunMetrics:
    """Fold rows into run totals and fixed windows over [0, duration).

    Each window holds its error fraction, hit fraction and mean issued
    TTL; rows outside [0, duration) count in the first or last window.
    """
    count = max(1, math.ceil(duration_s / window_s))
    window_ns = seconds_to_ns(window_s)
    hits = [0] * count
    misses = [0] * count
    ok = [0] * count
    stale = [0] * count
    ttl_sum = [0.0] * count
    ttl_n = [0] * count
    errored = updates = 0
    for row in rows:
        idx = (row.timestamp_ns - start_ns) // window_ns
        idx = min(max(idx, 0), count - 1)
        if row.component == "cache":
            if row.event == "hit":
                hits[idx] += 1
            elif row.event == "miss":
                misses[idx] += 1
        elif row.component == "client" and row.method == GET_METHOD:
            if row.event == "ok":
                ok[idx] += 1
            elif row.event == "stale":
                stale[idx] += 1
            elif row.event == "error":
                errored += 1
        elif row.component == "client" and row.method == SET_METHOD and row.event == "ok":
            updates += 1
        elif row.component == "estimator" and row.event == "estimate":
            ttl_sum[idx] += float(row.value)
            ttl_n[idx] += 1
    windows = []
    for i in range(count):
        queries = ok[i] + stale[i]
        lookups = hits[i] + misses[i]
        windows.append(
            WindowStats(
                start_s=i * window_s,
                error_fraction=stale[i] / queries if queries else 0.0,
                hit_fraction=hits[i] / lookups if lookups else 0.0,
                mean_ttl=ttl_sum[i] / ttl_n[i] if ttl_n[i] else 0.0,
            )
        )
    return RunMetrics(
        total_queries=sum(ok) + sum(stale),
        stale_queries=sum(stale),
        errored_queries=errored,
        total_updates=updates,
        hits=sum(hits),
        misses=sum(misses),
        windows=tuple(windows),
    )


def _wire(
    settings: EstimatorSettings,
    connect: Callable[[Handler], Link],
    clock: Clock,
    log: EventLog,
    out_dir: Path | None,
) -> tuple[ValueServer, Estimator, Cache]:
    """Build server <- estimator <- cache; connect(handler) returns a link to it.

    The estimator is built from its config file representation: the
    settings always round-trip through the flat text codec, and with an
    output directory the text is also written as estimator.cfg so the run
    directory documents exactly what the sidecar was given.
    """
    text = format_estimator_config(settings)
    if out_dir is not None:
        (out_dir / "estimator.cfg").write_text(text, encoding="ascii")
    parsed = parse_estimator_config(text)
    server = ValueServer()
    estimator = Estimator(
        parsed.algorithm,
        connect(server.handle),
        clock,
        log,
        blacklist=parsed.blacklist,
        housekeeping_after_s=parsed.housekeeping_after_s,
        max_ttl_cap=parsed.max_ttl_cap,
    )
    cache = Cache(connect(estimator.handle), clock, log)
    return server, estimator, cache


def _tcp_connector(stack: ExitStack, clock: Clock) -> Callable[[Handler], Link]:
    """connect() over loopback TCP: each handler's server starts at its first
    connect, every connect opens a new link, and the stack closes them all."""
    servers: dict[Handler, ServerHandle] = {}

    def connect(handler: Handler) -> Link:
        if handler not in servers:
            servers[handler] = stack.enter_context(serve(handler, clock=clock))
        return stack.enter_context(TcpLink(servers[handler].address))

    return connect


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None) -> ExperimentResult:
    """Run one experiment to completion and return its metrics."""
    out_path: Path | None = None
    if out_dir is not None:
        out_path = Path(out_dir)
        out_path.mkdir(parents=True, exist_ok=True)
    log = EventLog()
    workload = cfg.workload()
    with ExitStack() as stack:
        sim = Simulation() if cfg.clock_mode == "virtual" else None
        if sim is not None:
            clock: Clock = sim.clock
            connect = partial(sim.virtual_link, latency_s=cfg.link_latency_s)
        else:
            clock = SystemClock()
            connect = _tcp_connector(stack, clock)
        server, estimator, cache = _wire(cfg.estimator_settings(), connect, clock, log, out_path)
        cache_link = connect(cache.handle)
        update_link = connect(cache.handle if cfg.updates_via_cache else server.handle)
        ledger = StalenessLedger(server.current_value())
        query_rng, update_rng = workload.actor_rngs()
        start_ns = clock.now_ns()
        end_ns = start_ns + seconds_to_ns(cfg.duration_s)
        actors = [
            query_actor(
                workload.query, clock, cache_link, ledger, query_rng, start_ns, end_ns, log
            ),
            update_actor(
                workload.effective_update(), clock, update_link, ledger, update_rng,
                start_ns, end_ns, log,
            ),
            housekeeping_loop(estimator, end_ns, clock),
        ]
        if sim is not None:
            for actor in actors:
                sim.spawn(actor)
            sim.run(until_ns=end_ns)
        else:
            # A crashed actor ends the run at once, as on the virtual clock.
            run_actors(actors)
    # The windows' TTL sums run in timestamp order, which fixes their rounding.
    rows = sorted(log.rows(), key=lambda r: r.timestamp_ns)
    metrics = compute_windows(rows, start_ns, cfg.duration_s)
    result = ExperimentResult(
        config_id=parse_config_id(cfg.config_id)[0],
        phase_tag=cfg.phase_tag,
        seed=cfg.seed,
        duration_s=cfg.duration_s,
        clock_mode=cfg.clock_mode,
        error_fraction=metrics.error_fraction,
        traffic_reduction=metrics.traffic_reduction,
        total_queries=metrics.total_queries,
        stale_queries=metrics.stale_queries,
        errored_queries=metrics.errored_queries,
        total_updates=metrics.total_updates,
        cache_stats=cache.snapshot_stats(),
        windows=metrics.windows,
    )
    if out_path is not None:
        log.write_to(out_path / "events.csv")
        write_result(result, out_path / "result.json")
        write_timeseries(result.windows, out_path / "timeseries.csv")
    return result


# Scripted traces: a fixed list of operations at fixed instants, used to
# check the full topology against a straight-line replay oracle.


@dataclass(frozen=True)
class ScriptedOp:
    at_s: float
    kind: str  # "query" | "update"

    def __post_init__(self) -> None:
        if self.kind not in ("query", "update"):
            raise ValueError(f"kind must be query or update, got {self.kind!r}")
        if self.at_s < 0:
            raise ValueError("at_s must be >= 0")


def scripted_actor(
    ops: Sequence[ScriptedOp],
    clock: Clock,
    cache_link,
    server_link,
    ledger: StalenessLedger,
    log: EventLog,
    start_ns: int,
) -> Generator:
    """Replay ops in order at their scripted instants (single actor)."""
    counter = 0
    for op in ops:
        target_ns = start_ns + seconds_to_ns(op.at_s)
        now_ns = clock.now_ns()
        if target_ns > now_ns:
            yield Sleep(target_ns - now_ns)
        if op.kind == "query":
            yield from query_once(clock, cache_link, ledger, log)
        else:
            counter += 1
            value = str(counter).encode("ascii")
            yield from update_once(clock, server_link, ledger, value, log)


def run_scripted_trace(
    ops: Sequence[ScriptedOp],
    config_id: str,
    max_ttl_cap: int | None = None,
) -> list[EventRow]:
    """Run a scripted trace through the virtual topology; returns log rows."""
    sim = Simulation()
    log = EventLog()
    settings = ExperimentConfig(config_id, max_ttl_cap=max_ttl_cap).estimator_settings()
    server, _, cache = _wire(settings, sim.virtual_link, sim.clock, log, None)
    ledger = StalenessLedger(server.current_value())
    cache_link, server_link = sim.virtual_link(cache.handle), sim.virtual_link(server.handle)
    sim.spawn(
        scripted_actor(ops, sim.clock, cache_link, server_link, ledger, log, sim.clock.now_ns())
    )
    sim.run()
    return sorted(log.rows(), key=lambda r: r.timestamp_ns)


def aggregate_logs(text: str) -> RunMetrics:
    """Recompute run metrics from raw CSV text (errors name the row).

    The whole log folds into one window. A log without a completed query
    or a cache lookup raises ValueError here, not at first use of a ratio.
    """
    metrics = compute_windows(parse_event_log(text), 0, WINDOW_S)
    metrics.error_fraction, metrics.traffic_reduction  # noqa: B018 - validates both
    return metrics


def write_result(result: ExperimentResult, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n",
        encoding="ascii",
    )


def read_result(path: str | Path) -> ExperimentResult:
    return ExperimentResult.from_json_dict(json.loads(Path(path).read_text(encoding="ascii")))


def write_timeseries(windows: Sequence[WindowStats], path: str | Path) -> None:
    lines = ["window_start_s,hit_fraction,error_fraction,mean_ttl"]
    for w in windows:
        lines.append(
            f"{w.start_s:g},{w.hit_fraction:.6f},{w.error_fraction:.6f},{w.mean_ttl:.6f}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def scatter_lines(results: Sequence[ExperimentResult]) -> list[str]:
    """Aggregate per (config, phase), seeds averaged, in canonical order."""
    if not results:
        raise ValueError("no results to aggregate")
    groups: dict[tuple[str, str], list[ExperimentResult]] = {}
    for result in results:
        groups.setdefault((result.config_id, result.phase_tag), []).append(result)
    phase_order = list(PHASE_SHIFTS)
    ordered = sorted(
        groups.items(),
        key=lambda item: (canonical_order(item[0][0]), phase_order.index(item[0][1])),
    )
    lines = ["config_id,parameter,phase_shift,traffic_reduction,error_fraction"]
    for (config_id, phase_tag), members in ordered:
        parameter = algorithm_parameter(parse_config_id(config_id)[1])
        mean_tr = sum(r.traffic_reduction for r in members) / len(members)
        mean_ef = sum(r.error_fraction for r in members) / len(members)
        lines.append(
            f"{config_id},{parameter:g},{phase_tag},{mean_tr:.6f},{mean_ef:.6f}"
        )
    return lines


def write_scatter(results: Sequence[ExperimentResult], path: str | Path) -> None:
    Path(path).write_text("\n".join(scatter_lines(results)) + "\n", encoding="ascii")


def run_dir(out_dir: str | Path, config_id: str, phase_tag: str, seed: int) -> Path:
    return Path(out_dir) / config_id / phase_tag / f"seed-{seed}"


@dataclass(frozen=True)
class SuiteOutcome:
    results: tuple[ExperimentResult, ...]
    failures: tuple[tuple[str, str, int, str], ...]  # (config, phase, seed, error)


def run_suite(
    config_ids: Sequence[str],
    phases: Sequence[str],
    seeds: Sequence[int],
    duration_s: float,
    out_dir: str | Path,
    clock_mode: str = "virtual",
    period_s: float | None = None,
) -> SuiteOutcome:
    """Run the cross product and write per-run dirs plus scatter.csv."""
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    ordered_ids = sorted(dict.fromkeys(parse_config_id(c)[0] for c in config_ids),
                         key=canonical_order)
    results: list[ExperimentResult] = []
    failures: list[tuple[str, str, int, str]] = []
    for config_id in ordered_ids:
        for phase in phases:
            for seed in seeds:
                try:
                    cfg = ExperimentConfig(
                        config_id=config_id,
                        phase_tag=phase,
                        seed=seed,
                        duration_s=duration_s,
                        clock_mode=clock_mode,
                        period_s=period_s,
                    )
                    results.append(
                        run_experiment(cfg, run_dir(out_path, config_id, phase, seed))
                    )
                except Exception as exc:  # noqa: BLE001 - suite keeps going
                    failures.append((config_id, phase, seed, f"{type(exc).__name__}: {exc}"))
    if results:
        write_scatter(results, out_path / "scatter.csv")
    return SuiteOutcome(tuple(results), tuple(failures))


def load_results(root: str | Path) -> list[ExperimentResult]:
    """All result.json files under root, in sorted path order."""
    return [read_result(p) for p in sorted(Path(root).rglob("result.json"))]
