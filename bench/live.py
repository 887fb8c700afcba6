"""The ``live-miss`` workload: the sidecars over loopback TCP.

The sidecar process (``sidecar.py``) runs server, estimator and cache with
``static-0``; this process is the load generator. The traffic is the
harness's client mix: the service holds one value, read with GetValue
(empty payload) and replaced with SetValue. The generator first reads the
value once, then runs a closed loop on ``READERS`` threads, one
connection each, in whole rounds of ``ROUND_READS`` + ``ROUND_WRITES``
requests until the run's seconds are up. Every read crosses all three
hops; the writes of a round are SetValues sent through the cache
(blacklisted at the estimator, so never stored), spread evenly among the
reads.

An operation is one request; it fails if it raised a transport error or
its response was not OK.
"""

from __future__ import annotations

import json
import random
import threading
import time
from array import array

import checks
from common import (
    OUT,
    SETUP_SAMPLES,
    ask,
    cpu_seconds,
    median,
    percentile,
    pin_to_one_cpu,
    start_child,
    stop_child,
)
from meshcache import Message, TcpLink, TransportError

READERS = 2
# Writes per read as in the harness: the mean update rate over the mean
# query rate of its sinusoids, 0.575 / 5.5 = 23 / 220.
ROUND_READS = 220
ROUND_WRITES = 23
ROUND = ROUND_READS + ROUND_WRITES
WINDOW_S = 1  # one-second windows, for the printed per-window figures
CONFIG_ID = "static-0"
GET = Message.request("GetValue")


def _write_slots() -> tuple[bool, ...]:
    """Which requests of a round are SetValues: ROUND_WRITES, evenly spread."""
    return tuple((i + 1) * ROUND_WRITES // ROUND > i * ROUND_WRITES // ROUND for i in range(ROUND))


class _Reader:
    """One closed-loop client thread and everything it saw."""

    def __init__(self, index: int, port: int) -> None:
        self.index = index
        self.link = TcpLink(("127.0.0.1", port))
        self.slots = _write_slots()
        self.latency_ns = array("q")
        self.end_ns = array("q")
        self.read_log: list[tuple[bytes, int, int]] = []
        self.write_log: list[tuple[bytes, int, int]] = []
        self.failed = 0
        self.last_ns = 0

    def send(self, request: Message) -> Message | None:
        t0 = time.perf_counter_ns()
        try:
            response = self.link.send(request)
        except TransportError:
            response = None
        t1 = time.perf_counter_ns()
        self.latency_ns.append(t1 - t0)
        self.end_ns.append(t1)
        self.last_ns = t1
        if response is None or not response.ok:
            self.failed += 1
            return None
        log = self.read_log if request.method == "GetValue" else self.write_log
        log.append((response.payload if log is self.read_log else request.payload, t0, t1))
        return response

    def loop(self, start: threading.Barrier, deadline_ns: int) -> None:
        start.wait()
        counter = 0
        while self.last_ns < deadline_ns:
            for write in self.slots:
                if write:
                    counter += 1
                    self.send(Message.request("SetValue", f"w{self.index}-{counter}".encode("ascii")))
                else:
                    self.send(GET)


def _windows(readers: list[_Reader], t0_ns: int, count: int) -> list[list[float]]:
    """Latencies in ms of the requests that ended in each whole window."""
    windows: list[list[float]] = [[] for _ in range(count)]
    for r in readers:
        for end, latency in zip(r.end_ns, r.latency_ns):
            i = (end - t0_ns) // (WINDOW_S * 1_000_000_000)
            if 0 <= i < count:
                windows[i].append(latency / 1e6)
    return windows


def run(seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (measurements, outcome) for one benchmark run."""
    value = random.Random(seed).randbytes(16).hex().encode("ascii")
    args = ["--config", CONFIG_ID, "--value", value.hex()]
    pin_to_one_cpu()

    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, _, ready_s = start_child("sidecar.py", *args)
        stop_child(proc)
        setup.append(ready_s)
    if trace:
        args += ["--trace", "1", "--spans", str(OUT / "spans-live-miss.csv")]
    proc, line, ready_s = start_child("sidecar.py", *args)
    setup.append(ready_s)
    try:
        port = int(line.split()[1])
        readers = [_Reader(i, port) for i in range(READERS)]
        readers[0].send(GET)
        warmup_ops = len(readers[0].latency_ns)
        del readers[0].latency_ns[:]
        del readers[0].end_ns[:]

        ask(proc, "mark")
        start = threading.Barrier(READERS + 1)
        deadline_ns = time.perf_counter_ns() + int(seconds * 1e9)
        threads = [threading.Thread(target=r.loop, args=(start, deadline_ns), daemon=True) for r in readers]
        for t in threads:
            t.start()
        cpu0 = cpu_seconds()
        start.wait()
        t0 = time.perf_counter_ns()
        for t in threads:
            t.join()
        window_s = (max(r.last_ns for r in readers) - t0) / 1e9
        loadgen_share = (cpu_seconds() - cpu0) / window_s
        stats = json.loads(ask(proc, "stats"))
        for r in readers:
            r.link.close()
    finally:
        stop_child(proc)

    requests = sum(len(r.latency_ns) for r in readers)
    failed = sum(r.failed for r in readers)
    attempted = warmup_ops + requests
    reads = [entry for r in readers for entry in r.read_log]
    writes = [entry for r in readers for entry in r.write_log]
    problems = checks.check_live_miss(failed, stats["hits"], reads, writes, value)

    latencies_ms = [ns / 1e6 for r in readers for ns in r.latency_ns]
    measured = {
        "setup_s": median(setup),
        "throughput_rps": requests / window_s,
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p90_ms": percentile(latencies_ms, 90),
        "peak_rss_mb": stats["peak_rss_kb"] / 1024.0,
    }
    # Per-second figures, printed only: other tenants of the host slow
    # whole seconds at a time, which these show.
    windows = _windows(readers, t0, int(window_s))
    rates = [len(w) / WINDOW_S for w in windows]
    print(
        f"live-miss: {requests} requests in {window_s:.2f} s on {READERS} connections "
        f"after {warmup_ops} warm-up read; cache hits {stats['hits']} misses {stats['misses']}; "
        f"CPU share: load generator {loadgen_share:.2f}, sidecars {stats['cpu_share']:.2f}"
    )
    print(
        f"live-miss: p99 {percentile(latencies_ms, 99):.4f} ms; window rates "
        f"{min(rates):.0f}..{max(rates):.0f} req/s; fastest tenth of windows: "
        f"{percentile(rates, 90):.0f} req/s, p50 {percentile([percentile(w, 50) for w in windows], 10):.4f} ms, "
        f"p90 {percentile([percentile(w, 90) for w in windows], 10):.4f} ms"
    )
    layers = dict(stats.get("layers", {}))
    if trace:
        for name in ("hits", "misses", "insertions", "expirations", "store_size"):
            layers[f"cache.{name}"] = float(stats[name])
        layers["estimator.table_size"] = float(stats["table_size"])
        layers["tcp.connections"] = float(stats["connections"])
        layers["tcp.threads"] = float(stats["threads"])
        layers["sidecar.cpu_share"] = stats["cpu_share"]
        layers["loadgen.cpu_share"] = loadgen_share
    outcome = {"correct": not problems, "attempted": attempted, "failed": failed,
               "problems": problems}
    return {"e2e": measured, "layers": layers}, outcome
