"""Whole runs checked exactly against the straight-line oracle.

At latency 0 neither actor's instants depend on the TTLs, so a run's
schedule follows from its workload alone (trace_oracle.run_schedule).
The oracle replays that schedule, reference_fold folds its rows, and the
run's totals and every window must equal the result.

Run as a script, it checks every result.json under a suite directory:

    PYTHONPATH=src python tests/test_whole_run_oracle.py SUITE_DIR [COUNT]

and exits non-zero unless every run matches (and, given COUNT, exactly
COUNT runs were found).
"""

import sys
from pathlib import Path

import pytest

from meshcache.config import CONFIG_IDS
from meshcache.eventlog import EventRow
from meshcache.harness import ExperimentConfig, read_result, run_experiment
from reference_fold import compute_windows
from trace_oracle import replay_trace, run_schedule

COUNTS = ("hits", "misses", "total_queries", "stale_queries", "errored_queries", "total_updates")


def differences(result):
    """How a latency-0 virtual run's result differs from the oracle's replay of it."""
    ops = run_schedule(result.duration_s, result.seed, result.phase_tag)
    rows = replay_trace(ops, result.config_id, concurrent=True)
    expected = compute_windows([EventRow(*row) for row in rows], 0, result.duration_s)
    diffs = [
        f"{name} {getattr(result, name)} != {getattr(expected, name)}"
        for name in COUNTS
        if getattr(result, name) != getattr(expected, name)
    ]
    if result.windows != expected.windows:
        diffs.append("windows differ")
    return diffs


@pytest.mark.parametrize("phase_tag", ["0", "pi"])
@pytest.mark.parametrize("config_id", CONFIG_IDS)
def test_a_whole_run_equals_the_oracle(config_id, phase_tag):
    result = run_experiment(ExperimentConfig(config_id, phase_tag, seed=1, duration_s=1800.0))
    assert result.total_updates > 0
    assert differences(result) == []


def main(argv):
    root = Path(argv[0])
    bad = []
    paths = sorted(root.rglob("result.json"))
    for path in paths:
        bad += [f"{path.parent.relative_to(root)}: {d}" for d in differences(read_result(path))]
    print(f"{len(paths)} runs against the oracle, {len(bad)} differences", *bad[:20], sep="\n")
    return bool(bad) or not paths or (len(argv) > 1 and len(paths) != int(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
