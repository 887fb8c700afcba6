"""Experiment orchestration: topology wiring, runs, suites, aggregation.

A run wires the four-node topology

    client --> cache --> estimator --> server
       \\----------- updates ----------/

once, through a connect(handler) -> link function: under the virtual
clock (deterministic, runs in milliseconds) it returns virtual links on
one event loop, under the real clock TCP links to loopback servers
(tcp.connector; only a real-clock run imports the TCP backend).
Updates go straight to the server by default; routing them through the
cache with SetValue blacklisted is available as a fidelity option.

Each run directory holds four files:

    events.csv      every timestamped CSV row from all components, in
                    record order
    estimator.cfg   the settings the estimator sidecar was built with, as
                    key=value lines (nothing reads the file back)
    result.json     the run's identity, the cache's counters, and the
                    totals and windows of one fold over the rows
                    (compute_windows), which `meshcache aggregate` repeats
                    on events.csv; both take their totals from
                    RunMetrics.totals()
    timeseries.csv  the same windows as CSV for plotting

Neither the fold nor events.csv sorts the rows: record order is time
order on both backends (see eventlog), so the fold's TTL sums run in time
order, which fixes their rounding.

A suite is the cross product configs x phases x seeds; it aggregates
per (config, phase) by averaging seeds and writes scatter.csv.
"""

from __future__ import annotations

import json
import math
from array import array
from collections.abc import Callable, Generator, Iterable, Iterator, Sequence
from contextlib import ExitStack
from dataclasses import asdict, astuple, dataclass, fields
from functools import partial
from pathlib import Path

from .cache import Cache, CacheStats
from .clock import Clock, SystemClock, seconds_to_ns
from .config import canonical_order, format_estimator_config, parse_config_id
from .effects import Handler, Link, Sleep
from .estimator import (
    DEFAULT_HOUSEKEEPING_AFTER_S,
    Estimator,
    housekeeping_loop,
    validate_housekeeping_after,
    validate_max_ttl_cap,
)
from .eventlog import EventLog, EventRow, RowKind, parse_event_lines
from .sim import Simulation
from .ttl import DEFAULT_MAX_TTL_CAP, AlgorithmConfig
from .workload import (
    GET_METHOD,
    PHASE_SHIFTS,
    SET_METHOD,
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
    """One run: an algorithm id against one workload instance.

    The run's estimator and workload are built from these fields alone.
    """

    config_id: str
    phase_tag: str = "0"
    seed: int = 1
    duration_s: float = 300.0
    clock_mode: str = "virtual"
    housekeeping_after_s: float = DEFAULT_HOUSEKEEPING_AFTER_S
    max_ttl_cap: int | None = DEFAULT_MAX_TTL_CAP  # None: no cap
    updates_via_cache: bool = False
    link_latency_s: float = 0.0

    def __post_init__(self) -> None:
        parse_config_id(self.config_id)  # raises ValueError when unknown
        if self.clock_mode not in ("virtual", "real"):
            raise ValueError(f"clock_mode must be virtual or real, got {self.clock_mode!r}")
        if not (self.link_latency_s >= 0 and math.isfinite(self.link_latency_s)):
            raise ValueError(
                f"link_latency_s must be non-negative and finite, got {self.link_latency_s}"
            )
        validate_housekeeping_after(self.housekeeping_after_s)
        validate_max_ttl_cap(self.max_ttl_cap)
        self.workload()  # checks phase, duration and seed

    def workload(self) -> WorkloadConfig:
        return WorkloadConfig(duration_s=self.duration_s, seed=self.seed, phase_tag=self.phase_tag)


@dataclass(frozen=True)
class WindowStats:
    start_s: float
    error_fraction: float
    hit_fraction: float
    mean_ttl: float


class WindowSeries(Sequence[WindowStats]):
    """A run's windows as three float columns, window i starting at i * window_s.

    Iteration builds each WindowStats on demand (indexing builds them
    all), so a kept run holds three arrays of doubles, not one object per
    window and per float. A series equals any sequence of the same
    WindowStats.
    """

    __slots__ = ("window_s", "error_fraction", "hit_fraction", "mean_ttl")

    def __init__(
        self, window_s: float, error_fraction: array, hit_fraction: array, mean_ttl: array
    ) -> None:
        self.window_s = window_s
        self.error_fraction = error_fraction
        self.hit_fraction = hit_fraction
        self.mean_ttl = mean_ttl

    def __len__(self) -> int:
        return len(self.mean_ttl)

    def __iter__(self) -> Iterator[WindowStats]:
        w = self.window_s
        columns = zip(self.error_fraction, self.hit_fraction, self.mean_ttl)
        return (WindowStats(i * w, *values) for i, values in enumerate(columns))

    def __getitem__(self, index):
        return tuple(self)[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"WindowSeries({tuple(self)!r})"


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
    windows: Sequence[WindowStats]

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

    def totals(self) -> dict[str, float]:
        """The run totals result.json and `meshcache aggregate` report, by name.

        hits and misses are left out: result.json keeps them in its cache
        block. Raises ValueError as the two ratios do.
        """
        return {
            "error_fraction": self.error_fraction,
            "traffic_reduction": self.traffic_reduction,
            "total_queries": self.total_queries,
            "stale_queries": self.stale_queries,
            "errored_queries": self.errored_queries,
            "total_updates": self.total_updates,
        }


@dataclass(frozen=True)
class ExperimentResult(RunMetrics):
    """One run: its identity, the fold's metrics and the cache's counters.

    The cache logs one row per lookup it counts, so hits and misses equal
    cache_stats.hits and cache_stats.misses.
    """

    config_id: str
    phase_tag: str
    seed: int
    duration_s: float
    clock_mode: str
    cache_stats: CacheStats

    def to_json_dict(self) -> dict:
        return {
            "config_id": self.config_id,
            "phase": self.phase_tag,
            "seed": self.seed,
            "duration_s": self.duration_s,
            "clock": self.clock_mode,
            **self.totals(),
            "cache": asdict(self.cache_stats),
            "windows": [
                [w.start_s, w.error_fraction, w.hit_fraction, w.mean_ttl]
                for w in self.windows
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "ExperimentResult":
        cache = data["cache"]
        # Every other field of the fold is a top-level count in the file.
        counts = {
            f.name: data[f.name]
            for f in fields(RunMetrics)
            if f.name not in ("hits", "misses", "windows")
        }
        return ExperimentResult(
            config_id=data["config_id"],
            phase_tag=data["phase"],
            seed=data["seed"],
            duration_s=data["duration_s"],
            clock_mode=data["clock"],
            hits=cache["hits"],
            misses=cache["misses"],
            windows=tuple(WindowStats(*w) for w in data["windows"]),
            cache_stats=CacheStats(**cache),
            **counts,
        )


# The per-window tallies of the fold, by name.
_TALLIES = ("hit", "miss", "ok", "stale", "error", "update", "estimate")


def _tally_of(kind: RowKind) -> tuple[str | None, float | None]:
    """The tally a row of this kind adds one to (None: no tally), and the
    TTL it issued (None but for estimate rows, whose value must parse)."""
    component, method, event, value = kind
    if component == "cache":
        if event in ("hit", "miss"):
            return event, None
    elif component == "client":
        if method == GET_METHOD:
            if event in ("ok", "stale", "error"):
                return event, None
        elif method == SET_METHOD and event == "ok":
            return "update", None
    elif component == "estimator" and event == "estimate":
        return "estimate", float(value)
    return None, None


def compute_windows(
    stamped: Iterable[tuple[int, int]],
    kinds: Sequence[RowKind],
    start_ns: int,
    duration_s: float,
    window_s: float = WINDOW_S,
) -> RunMetrics:
    """Fold (timestamp_ns, index) rows into run totals and fixed windows over
    [0, duration), each index naming a row's kind in the table kinds, as
    EventLog.stamped_codes() gives a log's rows against EventLog.kinds().

    Each window holds its error fraction, hit fraction and mean issued
    TTL; rows outside [0, duration) count in the first or last window.
    Each index is classified once, on its first row (with any lower index
    not yet seen): which tally it bumps and the TTL it adds. So kinds may
    grow while the fold reads rows, as long as a row's index is in kinds
    when that row is read.
    """
    count = max(1, math.ceil(duration_s / window_s))
    window_ns = seconds_to_ns(window_s)
    tallies = {name: [0] * count for name in _TALLIES}
    ttl_sum = [0.0] * count

    def step_of(kind: RowKind) -> tuple[list[int] | None, float | None]:
        name, ttl = _tally_of(kind)
        return tallies.get(name), ttl

    # Each index's step, in index order: the tally it bumps and the TTL it adds.
    steps: list[tuple[list[int] | None, float | None]] = []
    last = count - 1
    for ts, code in stamped:
        try:
            tally, ttl = steps[code]
        except IndexError:
            steps += map(step_of, kinds[len(steps):code + 1])
            tally, ttl = steps[code]
        if tally is None:
            continue
        idx = (ts - start_ns) // window_ns
        if idx < 0:
            idx = 0
        elif idx > last:
            idx = last
        tally[idx] += 1
        if ttl is not None:
            ttl_sum[idx] += ttl
    hits, misses, ok, stale = (tallies[name] for name in ("hit", "miss", "ok", "stale"))
    ttl_n = tallies["estimate"]
    windows = WindowSeries(
        window_s,
        error_fraction=array("d", [s / (o + s) if o + s else 0.0 for o, s in zip(ok, stale)]),
        hit_fraction=array("d", [h / (h + m) if h + m else 0.0 for h, m in zip(hits, misses)]),
        mean_ttl=array("d", [t / n if n else 0.0 for t, n in zip(ttl_sum, ttl_n)]),
    )
    return RunMetrics(
        total_queries=sum(ok) + sum(stale),
        stale_queries=sum(stale),
        errored_queries=sum(tallies["error"]),
        total_updates=sum(tallies["update"]),
        hits=sum(hits),
        misses=sum(misses),
        windows=windows,
    )


def _wire(
    cfg: ExperimentConfig,
    connect: Callable[[Handler], Link],
    clock: Clock,
    log: EventLog,
    out_dir: Path | None,
) -> tuple[ValueServer, Estimator, Cache]:
    """Build server <- estimator <- cache; connect(handler) returns a link to it.

    With an output directory, the settings the estimator was built with
    are also written as estimator.cfg, so the run directory documents
    them.
    """
    _, algorithm = parse_config_id(cfg.config_id)
    settings = {
        "blacklist": (SET_METHOD,) if cfg.updates_via_cache else (),
        "housekeeping_after_s": cfg.housekeeping_after_s,
        "max_ttl_cap": cfg.max_ttl_cap,
    }
    server = ValueServer()
    estimator = Estimator(algorithm, connect(server.handle), clock, log, **settings)
    if out_dir is not None:
        text = format_estimator_config(algorithm, **settings)
        (out_dir / "estimator.cfg").write_text(text, encoding="ascii")
    cache = Cache(connect(estimator.handle), clock, log)
    return server, estimator, cache


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
            from . import tcp  # only a real-clock run loads the TCP backend

            clock = SystemClock()
            connect = tcp.connector(stack)
        server, estimator, cache = _wire(cfg, connect, clock, log, out_path)
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
                workload.update, clock, update_link, ledger, update_rng, start_ns, end_ns, log
            ),
            housekeeping_loop(estimator, end_ns, clock),
        ]
        if sim is not None:
            try:
                for actor in actors:
                    sim.spawn(actor)
                sim.run(until_ns=end_ns)
            finally:
                # The actors still queued past end_ns would otherwise keep
                # the simulation and the log alive in a reference cycle.
                sim.close()
        else:
            # A crashed actor ends the run at once, as on the virtual clock.
            tcp.run_actors(actors)
    metrics = compute_windows(log.stamped_codes(), log.kinds(), start_ns, cfg.duration_s)
    metrics.totals()  # a run with no completed query or cache lookup fails here
    result = ExperimentResult(
        **vars(metrics),
        config_id=parse_config_id(cfg.config_id)[0],
        phase_tag=cfg.phase_tag,
        seed=cfg.seed,
        duration_s=cfg.duration_s,
        clock_mode=cfg.clock_mode,
        cache_stats=cache.snapshot_stats(),
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
    max_ttl_cap: int | None = DEFAULT_MAX_TTL_CAP,
) -> list[EventRow]:
    """Run a scripted trace through the virtual topology; returns log rows."""
    sim = Simulation()
    log = EventLog()
    cfg = ExperimentConfig(config_id, max_ttl_cap=max_ttl_cap)
    server, _, cache = _wire(cfg, sim.virtual_link, sim.clock, log, None)
    ledger = StalenessLedger(server.current_value())
    cache_link, server_link = sim.virtual_link(cache.handle), sim.virtual_link(server.handle)
    sim.spawn(
        scripted_actor(ops, sim.clock, cache_link, server_link, ledger, log, sim.clock.now_ns())
    )
    sim.run()
    return log.rows()


def aggregate_logs(source: str | Path | Iterable[str]) -> RunMetrics:
    """Recompute run metrics from an events.csv, given its path or an open
    text file (errors name the row).

    The rows fold one at a time as they are parsed, so the fold holds one
    line of the file, not the file. Each kind takes an index in order of
    first appearance, as the event log numbers them. The whole log folds
    into one window. A log without a completed query or a cache lookup
    raises ValueError here, not at first use of a ratio.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="ascii") as fh:
            return aggregate_logs(fh)
    codes: dict[RowKind, int] = {}
    kinds: list[RowKind] = []

    def stamped() -> Iterator[tuple[int, int]]:
        for row in parse_event_lines(source):
            kind = row[1:]
            code = codes.setdefault(kind, len(codes))
            if code == len(kinds):
                kinds.append(kind)
            yield row[0], code

    metrics = compute_windows(stamped(), kinds, 0, WINDOW_S)
    metrics.totals()  # validates both ratios
    return metrics


def write_result(result: ExperimentResult, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(result.to_json_dict(), indent=2, sort_keys=True) + "\n",
        encoding="ascii",
    )


def read_result(path: str | Path) -> ExperimentResult:
    """The result a result.json holds; ValueError naming the file if it holds
    none, or a value write_result never writes."""
    try:
        result = ExperimentResult.from_json_dict(json.loads(Path(path).read_text(encoding="ascii")))
        counts = {
            f.name: getattr(result, f.name) for f in fields(RunMetrics) if f.name != "windows"
        }
        counts.update(asdict(result.cache_stats), seed=result.seed)
        for name, value in counts.items():
            if type(value) is not int or value < 0:
                raise ValueError(f"{name} {value!r} is not a non-negative integer")
        if result.stale_queries > result.total_queries:
            raise ValueError("stale_queries exceeds total_queries")
        # The run's identity (config id, phase, seed, duration, clock), as a run checks it.
        ExperimentConfig(
            result.config_id, result.phase_tag, result.seed, result.duration_s, result.clock_mode
        )
        for window in map(astuple, result.windows):
            if not all(type(v) in (int, float) for v in window):
                raise ValueError(f"window {list(window)!r} is not four numbers")
        result.totals()  # both ratios have something to divide by
        return result
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a run result: {type(exc).__name__}: {exc}") from exc


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
        parameter = parse_config_id(config_id)[1].parameter
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
) -> SuiteOutcome:
    """Run the cross product and write per-run dirs plus scatter.csv.

    Each algorithm, phase and seed runs once, however often it is listed:
    config ids that parse to one algorithm run under the first spelling.
    """
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    spellings: dict[AlgorithmConfig, str] = {}
    for config_id in config_ids:
        name, algorithm = parse_config_id(config_id)
        spellings.setdefault(algorithm, name)
    ordered_ids = sorted(spellings.values(), key=canonical_order)
    results: list[ExperimentResult] = []
    failures: list[tuple[str, str, int, str]] = []
    for config_id in ordered_ids:
        for phase in dict.fromkeys(phases):
            for seed in dict.fromkeys(seeds):
                try:
                    cfg = ExperimentConfig(
                        config_id=config_id,
                        phase_tag=phase,
                        seed=seed,
                        duration_s=duration_s,
                        clock_mode=clock_mode,
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
