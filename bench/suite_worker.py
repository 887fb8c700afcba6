"""The program process of the ``sim-suite`` workload.

Prints ``ready`` once the package is imported. Without ``--probe`` it then
runs the whole matrix through ``meshcache.harness.run_suite`` in passes,
each into its own directory (two untraced, one traced), and prints one
JSON line with what it measured: the time of every pass, of every matrix
run, and of every simulated minute.

    python3 bench/suite_worker.py --out DIR --seed N [--trace 1 --spans FILE]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time

from meshcache import harness, sim

import checks

DURATION_S = 1800.0
# Every pass does the same work, so each run and each simulated minute is
# timed as its fastest pass: this host's speed changes within seconds. A
# traced run makes one pass; its spans do not need the best of two.
PASSES = 2
# Each run's event loop is driven in slices of this much virtual time, and
# every slice is timed: the host time of one simulated minute.
SLICE_NS = 60 * 1_000_000_000


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true", help="exit once ready")
    parser.add_argument("--out")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args()
    print("ready", flush=True)
    if args.probe:
        return

    tracer = registry = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        registry = tracing.install(tracer)

    run_s: list[float] = []
    sidecars = {"hits": 0, "misses": 0, "insertions": 0, "expirations": 0,
                "store_size": 0, "table_size": 0}
    real_run = harness.run_experiment

    def timed_run(cfg, out_dir=None):
        t0 = time.perf_counter()
        try:
            return real_run(cfg, out_dir)
        finally:
            run_s.append(time.perf_counter() - t0)
            if registry is not None:
                for cache in registry["caches"]:
                    stats = cache.snapshot_stats()
                    for name in ("hits", "misses", "insertions", "expirations"):
                        sidecars[name] += getattr(stats, name)
                    sidecars["store_size"] = max(sidecars["store_size"], cache.size())
                for estimator in registry["estimators"]:
                    sidecars["table_size"] = max(sidecars["table_size"], estimator.table_size())
                registry["caches"].clear()
                registry["estimators"].clear()

    harness.run_experiment = timed_run

    slice_s: list[float] = []
    real_sim_run = sim.Simulation.run

    def sliced_run(self, until_ns=None):
        # Stopping at until_ns leaves later events queued, so running to
        # the end in slices processes the same events in the same order.
        if until_ns is None:
            return real_sim_run(self, until_ns)
        t_ns = self.clock.now_ns()
        while t_ns < until_ns:
            t_ns = min(until_ns, t_ns + SLICE_NS)
            t0 = time.perf_counter()
            real_sim_run(self, t_ns)
            slice_s.append(time.perf_counter() - t0)

    sim.Simulation.run = sliced_run

    passes = []
    failures = []
    cpu0 = os.times()
    start = time.perf_counter()
    for _ in range(1 if args.trace else PASSES):
        out_dir = os.path.join(args.out, f"pass-{len(passes)}")
        t0 = time.perf_counter()
        outcome = harness.run_suite(
            checks.CONFIG_IDS, tuple(checks.PHASES), (args.seed,), DURATION_S, out_dir
        )
        passes.append({"dir": out_dir, "wall_s": time.perf_counter() - t0})
        failures += [list(f) for f in outcome.failures]
    wall = time.perf_counter() - start
    cpu1 = os.times()
    report = {
        "passes": passes,
        "run_s": run_s,
        "slice_s": slice_s,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cpu_share": (cpu1.user + cpu1.system - cpu0.user - cpu0.system) / wall,
        "duration_s": DURATION_S,
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, runs=len(run_s))
        layers["harness.run_experiment_s"] = sorted(run_s)[len(run_s) // 2]
        layers.update({f"cache.{k}": float(v) for k, v in sidecars.items() if k != "table_size"})
        layers["estimator.table_size"] = float(sidecars["table_size"])
        report["layers"] = layers
        tracer.write_spans(args.spans)
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
