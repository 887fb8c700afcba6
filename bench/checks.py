"""Output checks for the benchmark, computed apart from the program.

The ``sim-suite`` checks regenerate each run's Poisson request schedule
from its seed (``SeedSequence(seed).spawn(2)``, PCG64, the sinusoids and
the rounding the package documents) and replay the ``static-B`` cache
rule in straight-line code; everything else is checked as a property of
the method. The live checks judge what the load generator saw against
the writes it made. Every check returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import bisect
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

# The suite matrix: every config id the paper evaluates, all four phase
# shifts of the update sinusoid against the query sinusoid.
CONFIG_IDS = (
    "static-0",
    "static-1",
    "static-10",
    "static-30",
    "adaptive-0.1",
    "adaptive-0.25",
    "adaptive-0.5",
    "updaterisk-0.1",
    "updaterisk-0.25",
    "updaterisk-0.5",
    "updaterisk-0.75",
    "updaterisk-0.90",
)
PHASES = {"0": 0.0, "pi4": math.pi / 4, "pi2": math.pi / 2, "pi": math.pi}

# rate(t) = mean + amplitude * sin(2 pi t / period + phase), in requests/s.
QUERY_RATE = (5.5, 4.5)
UPDATE_RATE = (0.575, 0.525)

# Configs the paper claims keep staleness at "about 3 % or less".
CONSERVATIVE = ("adaptive-0.1", "updaterisk-0.1")
MAX_CONSERVATIVE_ERROR = 0.05

NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000


def request_times_ns(
    seed: int, stream: int, rate: tuple[float, float], phase: float, period_s: float,
    duration_s: float,
) -> list[int]:
    """Instants at which one actor sends, regenerated from the seed.

    stream 0 is the query actor, stream 1 the update actor. Each gap is an
    exponential draw with mean 1000 / rate(t) ms at the send instant t,
    rounded to whole milliseconds and at least 1 ms.
    """
    bitgen = np.random.PCG64(np.random.SeedSequence(seed).spawn(2)[stream])
    rng = np.random.Generator(bitgen)
    mean, amplitude = rate
    end_ns = int(round(duration_s * NS_PER_S))
    times: list[int] = []
    t_ns = 0
    draws: list[float] = []
    while t_ns < end_ns:
        times.append(t_ns)
        if not draws:
            draws = rng.standard_exponential(4096).tolist()[::-1]
        t_s = t_ns / 1e9
        r = mean + amplitude * math.sin(2.0 * math.pi * t_s / period_s + phase)
        t_ns += max(1, int(round(draws.pop() * (1000.0 / r)))) * NS_PER_MS
    return times


def static_hits_misses(query_times_ns: list[int], beta_s: int) -> tuple[int, int]:
    """Hits and misses of a fixed-TTL cache fed at zero link latency."""
    if beta_s < 1:
        return 0, len(query_times_ns)
    hits = misses = 0
    expires_ns = -1
    for t_ns in query_times_ns:
        if t_ns < expires_ns:
            hits += 1
        else:
            misses += 1
            expires_ns = t_ns + beta_s * NS_PER_S
    return hits, misses


def count_events(path: Path) -> Counter:
    """(component, method, event) -> rows in one events.csv."""
    counts: Counter = Counter()
    with open(path, encoding="ascii") as fh:
        for line in fh:
            _, component, method, event, _ = line.split(",", 4)
            counts[component, method, event] += 1
    return counts


def check_run(
    result: dict, events: Counter, config_id: str, phase: str, seed: int, duration_s: float,
    period_s: float,
) -> list[str]:
    """Every check on one run of the matrix."""
    problems: list[str] = []

    def expect(what: str, got, want) -> None:
        if got != want:
            problems.append(f"{what}: {got} != {want}")

    queries = request_times_ns(seed, 0, QUERY_RATE, 0.0, period_s, duration_s)
    updates = request_times_ns(seed, 1, UPDATE_RATE, PHASES[phase], period_s, duration_s)
    hits = events["cache", "GetValue", "hit"]
    misses = events["cache", "GetValue", "miss"]
    ok = events["client", "GetValue", "ok"]
    stale = events["client", "GetValue", "stale"]
    errored = events["client", "GetValue", "error"]
    gets = ok + stale + errored
    sets = events["client", "SetValue", "ok"] + events["client", "SetValue", "error"]

    # Against the regenerated schedule.
    expect("GetValue count vs regenerated schedule", gets, len(queries))
    expect("SetValue count vs regenerated schedule", sets, len(updates))
    family, _, parameter = config_id.partition("-")
    if family == "static":
        expect("static hits/misses vs straight-line replay", (hits, misses),
               static_hits_misses(queries, int(parameter)))

    # Properties of the method.
    expect("hits + misses vs GetValue count", hits + misses, gets)
    expect("query errors", errored, 0)
    if config_id == "static-0":
        expect("static-0 hits", hits, 0)
        expect("static-0 stale", stale, 0)
    if stale > hits:
        problems.append(f"stale {stale} > hits {hits}: only the cache can serve an old value")
    expect("one estimate per miss", events["estimator", "GetValue", "estimate"], misses)
    if config_id in CONSERVATIVE and ok + stale and stale / (ok + stale) > MAX_CONSERVATIVE_ERROR:
        problems.append(f"error fraction {stale / (ok + stale):.4f} > {MAX_CONSERVATIVE_ERROR}")

    # result.json against the rows of events.csv.
    cache = result["cache"]
    expect("result cache.hits vs events.csv", cache["hits"], hits)
    expect("result cache.misses vs events.csv", cache["misses"], misses)
    expect("result total_queries vs events.csv", result["total_queries"], ok + stale)
    expect("result stale_queries vs events.csv", result["stale_queries"], stale)
    expect("result errored_queries vs events.csv", result["errored_queries"], errored)
    expect("result total_updates vs events.csv", result["total_updates"],
           events["client", "SetValue", "ok"])
    if ok + stale:
        expect("result error_fraction", result["error_fraction"], stale / (ok + stale))
    if hits + misses:
        expect("result traffic_reduction", result["traffic_reduction"], hits / (hits + misses))
    expect("result identity", (result["config_id"], result["phase"], result["seed"]),
           (config_id, phase, seed))
    return problems


def check_run_dir(run_dir: Path, config_id: str, phase: str, seed: int, duration_s: float,
                  period_s: float) -> tuple[list[str], dict]:
    """Read one run directory and check it; returns (problems, result.json)."""
    try:
        result = json.loads((run_dir / "result.json").read_text(encoding="ascii"))
        events = count_events(run_dir / "events.csv")
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {}
    return check_run(result, events, config_id, phase, seed, duration_s, period_s), result


def check_scatter(text: str, results: list[dict]) -> list[str]:
    """scatter.csv holds one row per (config, phase): seeds averaged, 6 decimals."""
    groups: dict[tuple[str, str], list[dict]] = {}
    for r in results:
        groups.setdefault((r["config_id"], r["phase"]), []).append(r)
    rows = {}
    for line in text.splitlines()[1:]:
        config_id, _, phase, tr, ef = line.split(",")
        rows[config_id, phase] = (tr, ef)
    problems = []
    if set(rows) != set(groups):
        problems.append(f"scatter.csv rows {sorted(rows)} != runs {sorted(groups)}")
    for key, members in groups.items():
        want = (
            f"{sum(r['traffic_reduction'] for r in members) / len(members):.6f}",
            f"{sum(r['error_fraction'] for r in members) / len(members):.6f}",
        )
        if key in rows and rows[key] != want:
            problems.append(f"scatter.csv {key}: {rows[key]} != {want}")
    return problems


# Live workload ------------------------------------------------------------


def check_live_miss(failed: int, hits: int, reads, writes, initial: bytes) -> list[str]:
    """Responses all OK, no cache hit, and no read returns an overwritten value.

    reads and writes are (value, send ns, receive ns) on one clock. A
    value v written by w is certainly overwritten once some write sent
    after w was acknowledged has itself been acknowledged: that write
    reached the server after v did. A read sent later than that must not
    return v.
    """
    problems = []
    if failed:
        problems.append(f"{failed} responses were not OK")
    if hits:
        problems.append(f"cache recorded {hits} hits with a zero TTL")
    ordered = sorted(writes, key=lambda w: w[1])
    sends = [w[1] for w in ordered]
    earliest_ack_from = [math.inf] * (len(ordered) + 1)
    for i in range(len(ordered) - 1, -1, -1):
        earliest_ack_from[i] = min(ordered[i][2], earliest_ack_from[i + 1])
    overwritten_at = {initial: earliest_ack_from[0]}
    written_at = {initial: -math.inf}
    for value, sent, acked in ordered:
        overwritten_at[value] = earliest_ack_from[bisect.bisect_right(sends, acked)]
        written_at[value] = sent
    stale = unknown = future = 0
    for value, sent, received in reads:
        if value not in overwritten_at:
            unknown += 1
        elif overwritten_at[value] < sent:
            stale += 1
        elif written_at[value] > received:
            future += 1
    if unknown:
        problems.append(f"{unknown} reads returned a value never written")
    if stale:
        problems.append(f"{stale} reads returned a value overwritten before they were sent")
    if future:
        problems.append(f"{future} reads returned a value written after they completed")
    return problems
