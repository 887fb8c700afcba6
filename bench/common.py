"""Paths, child-process helpers and statistics shared by the benchmark files.

Every path is relative to the checkout the benchmark runs in: the package
is imported from ``src/`` (nothing is installed) and everything the
benchmark writes goes under ``bench/out/``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Set-up is timed this many times per run and reported as the median.
SETUP_SAMPLES = 11


def require_source() -> None:
    """Exit with status 2 unless the package source is in this checkout."""
    if not (SRC / "meshcache" / "__init__.py").is_file():
        print(f"benchmark: no package source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_to_one_cpu() -> None:
    """Run this thread, and the threads and children it starts, on one CPU.

    Every workload runs on the first CPU the benchmark may use. The live
    load generator and sidecar share it, so that no request waits for an
    idle CPU to wake, which on a virtual machine takes a time that changes
    from run to run (README).
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_child(script: str, *args: str) -> tuple[subprocess.Popen, str, float]:
    """Start a benchmark child and wait for its first line.

    Returns the process, the line, and the seconds from the start of the
    process until that line arrived: the child prints it once it is ready
    to take its first operation.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / script), *args],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=ROOT,
    )
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    if not line.startswith("ready"):
        stop_child(proc)
        raise RuntimeError(f"{script} did not start (exit {proc.returncode}): {line!r}")
    return proc, line.strip(), ready_s


def stop_child(proc: subprocess.Popen) -> None:
    """Close the child's stdin, wait for it, kill it if it does not end."""
    try:
        if proc.stdin and not proc.stdin.closed:
            proc.stdin.close()
    except OSError:
        pass
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout:
        proc.stdout.close()


def ask(proc: subprocess.Popen, command: str) -> str:
    """Send one command line to a child and return its one-line answer."""
    proc.stdin.write(command + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"child ended while answering {command!r}")
    return line.strip()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return float(ordered[mid]) if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def cpu_seconds() -> float:
    """CPU seconds this process has used, user plus system."""
    times = os.times()
    return times.user + times.system


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
