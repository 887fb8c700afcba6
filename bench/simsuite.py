"""The ``sim-suite`` workload: the paper's whole matrix on the virtual clock.

The matrix is all 12 config ids x 4 phase shifts x the run's seed, at the
1800 s duration and period. The harness writes every run directory and
``scatter.csv``; this side then checks each run against ``checks.py``.
An operation is one matrix run; it fails if it raised or if a check on
it failed. The matrix runs twice (once traced) and every run and every
simulated minute is timed at its faster pass. The run is this fixed
amount of work, so its length does not follow ``--seconds``. Throughput is simulated
client requests per host second of one pass so timed; latency is the
host time of one simulated minute of a run.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

import checks
from common import (
    OUT,
    SETUP_SAMPLES,
    cpu_seconds,
    median,
    percentile,
    pin_to_one_cpu,
    start_child,
    stop_child,
)


def _setup_samples() -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, _, ready_s = start_child("suite_worker.py", "--probe")
        stop_child(proc)
        samples.append(ready_s)
    return samples


def _split(values: list, parts: int) -> list[list]:
    size = len(values) // parts
    return [values[i * size:(i + 1) * size] for i in range(parts)]


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def run(seed: int, trace: bool) -> tuple[dict, dict]:
    """Returns (measurements, outcome) for one benchmark run."""
    pin_to_one_cpu()
    setup = _setup_samples()
    out = OUT / f"sim-suite-{seed}"
    shutil.rmtree(out, ignore_errors=True)
    args = ["--out", str(out), "--seed", str(seed)]
    if trace:
        args += ["--trace", "1", "--spans", str(OUT / "spans-sim-suite.csv")]
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    proc, _, ready_s = start_child("suite_worker.py", *args)
    try:
        report = json.loads(proc.stdout.readline())
    finally:
        stop_child(proc)
    loadgen_share = (cpu_seconds() - cpu0) / (time.perf_counter() - t0)
    setup.append(ready_s)

    try:
        failed_runs = {(c, p, s) for c, p, s, _ in report["failures"]}
        for c, p, s, error in report["failures"]:
            print(f"sim-suite: run {c} {p} seed {s} raised {error}")
        attempted = failed = 0
        problems: list[str] = []
        requests = 0
        for pass_info in report["passes"]:
            pass_dir = Path(pass_info["dir"])
            results = []
            for config_id in checks.CONFIG_IDS:
                for phase in checks.PHASES:
                    attempted += 1
                    if (config_id, phase, seed) in failed_runs:
                        failed += 1
                        continue
                    run_dir = pass_dir / config_id / phase / f"seed-{seed}"
                    found, result = checks.check_run_dir(
                        run_dir, config_id, phase, seed, report["duration_s"], report["duration_s"]
                    )
                    if found:
                        failed += 1
                        problems += [f"{config_id} {phase} seed {seed}: {p}" for p in found]
                        continue
                    results.append(result)
                    requests += (
                        result["total_queries"] + result["errored_queries"] + result["total_updates"]
                    )
            scatter = pass_dir / "scatter.csv"
            problems += checks.check_scatter(scatter.read_text(encoding="ascii"), results)
        output_mb = _tree_bytes(Path(report["passes"][0]["dir"])) / 1e6
    finally:
        shutil.rmtree(out, ignore_errors=True)

    passes = len(report["passes"])
    runs_per_pass = len(report["run_s"]) // passes
    best_run_s = [min(r) for r in zip(*_split(report["run_s"], passes))]
    best_slice_ms = [min(s) * 1000.0 for s in zip(*_split(report["slice_s"], passes))]
    measured = {
        "setup_s": median(setup),
        "throughput_rps": requests / passes / sum(best_run_s),
        "latency_p50_ms": percentile(best_slice_ms, 50),
        "latency_p90_ms": percentile(best_slice_ms, 90),
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
    }
    pass_walls = " ".join(f"{p['wall_s']:.2f}" for p in report["passes"])
    print(
        f"sim-suite: {passes} passes of {runs_per_pass} runs, {pass_walls} s; "
        f"{sum(best_run_s):.2f} s with every run at its fastest; "
        f"{requests // passes} simulated requests and {output_mb:.1f} MB per pass"
    )
    layers = dict(report.get("layers", {}))
    if trace:
        layers["harness.output_mb"] = output_mb
        layers["sidecar.cpu_share"] = report["cpu_share"]
        layers["loadgen.cpu_share"] = loadgen_share
    outcome = {"correct": not problems, "attempted": attempted, "failed": failed,
               "problems": problems}
    return {"e2e": measured, "layers": layers}, outcome
