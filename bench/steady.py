"""Steadiness command: two interleaved sets of runs of every workload.

    python3 bench/steady.py [--runs 10] [--traced K]

Runs every workload of ``BENCHMARK.json`` for its ``run_seconds``. Run i
of set A uses seed i + 1 and run i of set B seed i + 101; the two sets
alternate which goes first. For every end-to-end metric it prints each
set's median and quartiles (``statistics.quantiles(n=4)``), the spread
(quartile distance over the median), and whether the sets agree within
the metric's bound in ``BENCHMARK.json``: both spreads within the bound,
and set B's median no worse than set A's by more than the bound. With
``--traced K`` it also makes K traced runs per workload and prints every
per-layer median and the tracing overhead on each end-to-end metric
against the untraced runs. Every result line is kept in
``bench/out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import BENCH_DIR, OUT, ROOT


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    print(f"  {workload} seed {seed} trace {trace}: {elapsed:.1f} s, correct {result['correct']}, "
          f"{result['failed']}/{result['attempted']} failed", flush=True)
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs needs at least 2 for quartiles")
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results: dict = {w: {"A": [], "B": [], "traced": []} for w in workloads}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for name in order:
            for workload in workloads:
                seed = i + 1 if name == "A" else i + 101
                results[workload][name].append(run_once(workload, seed, seconds, 0))
    for i in range(args.traced):
        for workload in workloads:
            results[workload]["traced"].append(run_once(workload, i + 1, seconds, 1))

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(results), encoding="utf-8")

    steady = True
    for workload in workloads:
        sets = results[workload]
        print(f"\n{workload}: {args.runs} runs per set, {seconds} s each")
        steady &= _compare(spec, sets)
        if sets["traced"]:
            _traced(spec, sets)
    print(f"\n{'STEADY' if steady else 'NOT STEADY'}; results in {path}")
    return 0 if steady else 1


def _compare(spec: dict, sets: dict) -> bool:
    """Prints the two sets' quartiles per end-to-end metric; True if they agree."""
    shares = {r["failed"] / r["attempted"] for n in ("A", "B") for r in sets[n]}
    correct = all(r["correct"] for n in ("A", "B") for r in sets[n])
    print(f"  correct in every run: {correct}; failed share {sorted(shares)}")
    steady = correct and len(shares) == 1
    print(f"  {'metric':<16} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        stats = {}
        for n in ("A", "B"):
            stats[n] = spread([r["metrics"][name]["value"] for r in sets[n]])
            med, q1, q3, s = stats[n]
            print(f"  {name:<16} {n:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {s:>7.3f}")
        drift = stats["B"][0] / stats["A"][0] - 1.0
        worse = -drift if m["better"] == "higher" else drift
        spreads_ok = max(stats["A"][3], stats["B"][3]) <= bound
        agree = worse <= bound and spreads_ok
        steady &= agree
        print(f"  {name:<16} B/A - 1 = {drift:+.3f}, bound {bound}: "
              f"{'agree' if agree else 'DISAGREE'}")
    return steady


def _traced(spec: dict, sets: dict) -> None:
    """Prints per-layer medians and the tracing overhead against the untraced runs."""
    print(f"  traced runs: {len(sets['traced'])}")
    for m in spec["per_layer"]:
        values = [r["metrics"][m["name"]]["value"] for r in sets["traced"]]
        print(f"  {m['name']:<32} {statistics.median(values):>14.6g} {m['unit']}")
    untraced = sets["A"] + sets["B"]
    for m in spec["end_to_end"]:
        plain = statistics.median(r["metrics"][m["name"]]["value"] for r in untraced)
        traced = statistics.median(r["metrics"]["trace." + m["name"]]["value"] for r in sets["traced"])
        print(f"  tracing overhead on {m['name']:<16} {traced / plain - 1.0:+.3f} "
              f"({plain:.6g} -> {traced:.6g} {m['unit']})")


if __name__ == "__main__":
    sys.exit(main())
