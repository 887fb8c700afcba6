"""The program process of the live workload: server, estimator and cache.

Wires the three nodes over loopback TCP with ``meshcache.serve`` and
``meshcache.TcpLink`` (server <- estimator <- cache) and prints
``ready <cache port>`` once all three listen. SetValue is blacklisted at
the estimator, so writes may go through the cache, as the harness's
``updates_via_cache`` runs send them. Then it answers commands, one per
stdin line:

    mark    start the CPU-share window; answers ``ok``
    stats   answers one JSON line of counters (and per-layer figures when
            traced)

End of input closes everything and exits.

    python3 bench/sidecar.py --config static-0 --value HEX [--trace 1 --spans FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from meshcache import Cache, Estimator, SystemClock, TcpLink, ValueServer, parse_config_id, serve


def _threads() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _sockets() -> int:
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{fd}").startswith("socket:"):
                count += 1
        except OSError:
            pass
    return count


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--value", required=True, help="the server's initial value, hex")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    clock = SystemClock()
    _, algorithm = parse_config_id(args.config)
    server = ValueServer(bytes.fromhex(args.value))
    server_handle = serve(server.handle, clock=clock)
    server_link = TcpLink(server_handle.address)
    estimator = Estimator(algorithm, server_link, clock, blacklist=("SetValue",))
    estimator_handle = serve(estimator.handle, clock=clock)
    estimator_link = TcpLink(estimator_handle.address)
    cache = Cache(estimator_link, clock)
    cache_handle = serve(cache.handle, clock=clock)
    if tracer is not None:
        tracing.wrap_link(tracer, estimator_link, "tcp.cache_upstream")
        tracing.wrap_link(tracer, server_link, "tcp.estimator_upstream")
    handles = (cache_handle, estimator_handle, server_handle)
    print("ready", cache_handle.address[1], flush=True)

    mark_cpu, mark_wall = 0.0, time.perf_counter()
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "mark":
                times = os.times()
                mark_cpu, mark_wall = times.user + times.system, time.perf_counter()
                print("ok", flush=True)
            elif command == "stats":
                times = os.times()
                stats = cache.snapshot_stats()
                report = {
                    "hits": stats.hits,
                    "misses": stats.misses,
                    "insertions": stats.insertions,
                    "expirations": stats.expirations,
                    "store_size": cache.size(),
                    "table_size": estimator.table_size(),
                    "set_count": server.set_count,
                    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    "cpu_share": (times.user + times.system - mark_cpu)
                    / (time.perf_counter() - mark_wall),
                    "threads": _threads(),
                    # Both ends of the two inner hops live here; listeners are not counted.
                    "connections": _sockets() - len(handles),
                }
                if tracer is not None:
                    report["layers"] = tracing.layer_metrics(tracer)
                    tracer.write_spans(args.spans)
                print(json.dumps(report), flush=True)
    finally:
        for handle in handles:
            handle.close()
        for link in (estimator_link, server_link):
            link.close()


if __name__ == "__main__":
    main()
