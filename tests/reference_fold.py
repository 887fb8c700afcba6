"""The attribute-reading fold that meshcache.harness.compute_windows must agree with.

This is compute_windows as it was before the fold unpacked rows by
position: it reads each EventRow field by name and clamps the window
index with min/max. Tests run both folds on the same rows and require
equal RunMetrics.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from meshcache.clock import seconds_to_ns
from meshcache.eventlog import EventRow
from meshcache.harness import WINDOW_S, RunMetrics, WindowStats
from meshcache.workload import GET_METHOD, SET_METHOD


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
