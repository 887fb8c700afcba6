"""Tests of the benchmark's output checks: real outputs pass, doctored ones fail.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from common import require_source

require_source()

import checks  # noqa: E402
from meshcache.harness import ExperimentConfig, run_experiment, run_suite  # noqa: E402

DURATION_S = 240.0
PLURAL = {"hit": "hits", "miss": "misses"}


def _run(tmp_path, config_id: str, phase: str = "pi2", seed: int = 3):
    cfg = ExperimentConfig(config_id=config_id, phase_tag=phase, seed=seed, duration_s=DURATION_S)
    run_dir = tmp_path / config_id
    run_experiment(cfg, run_dir)
    result = json.loads((run_dir / "result.json").read_text(encoding="ascii"))
    return result, checks.count_events(run_dir / "events.csv")


def _check(result, events, config_id, phase="pi2", seed=3):
    return checks.check_run(result, events, config_id, phase, seed, DURATION_S, DURATION_S)


def _relabel(events: Counter, result: dict, src: str, dst: str, n: int = 1) -> None:
    """Turn n cache lookups from src into dst ("hit"/"miss") in both outputs.

    The estimate rows follow the misses, so only the checks that look past
    the two files' mutual agreement can notice.
    """
    events["cache", "GetValue", src] -= n
    events["cache", "GetValue", dst] += n
    events["estimator", "GetValue", "estimate"] += n if dst == "miss" else -n
    result["cache"][PLURAL[src]] -= n
    result["cache"][PLURAL[dst]] += n
    hits, misses = result["cache"]["hits"], result["cache"]["misses"]
    result["traffic_reduction"] = hits / (hits + misses)


@pytest.mark.parametrize("config_id", ["static-0", "static-10", "adaptive-0.1", "updaterisk-0.5"])
@pytest.mark.parametrize("phase", ["0", "pi"])
def test_real_runs_pass(tmp_path, config_id, phase):
    result, events = _run(tmp_path, config_id, phase)
    assert _check(result, events, config_id, phase) == []


def test_regenerated_schedule_matches_every_suite_run(tmp_path):
    ids = ["static-1", "adaptive-0.25"]
    outcome = run_suite(ids, ["0", "pi4"], [5, 6], DURATION_S, tmp_path)
    assert not outcome.failures
    results = []
    for config_id in ids:
        for phase in ("0", "pi4"):
            for seed in (5, 6):
                problems, result = checks.check_run_dir(
                    tmp_path / config_id / phase / f"seed-{seed}", config_id, phase, seed,
                    DURATION_S, DURATION_S,
                )
                assert problems == []
                results.append(result)
    scatter = (tmp_path / "scatter.csv").read_text(encoding="ascii")
    assert checks.check_scatter(scatter, results) == []
    doctored = scatter.replace(scatter.splitlines()[1], scatter.splitlines()[1][:-1] + "9")
    assert checks.check_scatter(doctored, results)


def test_static0_with_a_hit_fails(tmp_path):
    result, events = _run(tmp_path, "static-0")
    _relabel(events, result, "miss", "hit")
    problems = _check(result, events, "static-0")
    assert "static-0 hits: 1 != 0" in problems


def test_query_count_off_by_one_fails(tmp_path):
    result, events = _run(tmp_path, "adaptive-0.5")
    events["client", "GetValue", "ok"] += 1
    events["cache", "GetValue", "hit"] += 1
    result["total_queries"] += 1
    result["cache"]["hits"] += 1
    ok_stale = result["total_queries"]
    result["error_fraction"] = result["stale_queries"] / ok_stale
    hits, misses = result["cache"]["hits"], result["cache"]["misses"]
    result["traffic_reduction"] = hits / (hits + misses)
    problems = _check(result, events, "adaptive-0.5")
    assert problems == ["GetValue count vs regenerated schedule: "
                        f"{ok_stale + result['errored_queries']} != {ok_stale - 1}"]


def test_update_count_off_by_one_fails(tmp_path):
    result, events = _run(tmp_path, "updaterisk-0.5")
    events["client", "SetValue", "ok"] -= 1
    result["total_updates"] -= 1
    problems = _check(result, events, "updaterisk-0.5")
    assert [p.split(":")[0] for p in problems] == ["SetValue count vs regenerated schedule"]


def test_static_hits_off_the_straight_line_replay_fail(tmp_path):
    result, events = _run(tmp_path, "static-10")
    _relabel(events, result, "hit", "miss")
    problems = _check(result, events, "static-10")
    assert [p.split(":")[0] for p in problems] == ["static hits/misses vs straight-line replay"]


def test_more_stale_than_hits_fails(tmp_path):
    result, events = _run(tmp_path, "static-1")
    moved = events["cache", "GetValue", "hit"] + 1 - events["client", "GetValue", "stale"]
    events["client", "GetValue", "ok"] -= moved
    events["client", "GetValue", "stale"] += moved
    result["stale_queries"] += moved
    result["error_fraction"] = result["stale_queries"] / result["total_queries"]
    problems = _check(result, events, "static-1")
    assert any(p.startswith("stale") and "> hits" in p for p in problems)


def test_query_errors_fail(tmp_path):
    result, events = _run(tmp_path, "static-1")
    events["client", "GetValue", "ok"] -= 1
    events["client", "GetValue", "error"] += 1
    events["cache", "GetValue", "hit"] -= 1
    result["cache"]["hits"] -= 1
    result["total_queries"] -= 1
    result["errored_queries"] += 1
    result["error_fraction"] = result["stale_queries"] / result["total_queries"]
    hits, misses = result["cache"]["hits"], result["cache"]["misses"]
    result["traffic_reduction"] = hits / (hits + misses)
    problems = _check(result, events, "static-1")
    assert "query errors: 1 != 0" in problems


def test_conservative_error_fraction_above_bound_fails(tmp_path):
    result, events = _run(tmp_path, "adaptive-0.1")
    total = result["total_queries"]
    stale = int(total * 0.06) + 1
    extra_hits = max(0, stale - events["cache", "GetValue", "hit"])
    _relabel(events, result, "miss", "hit", extra_hits)
    events["client", "GetValue", "ok"] -= stale - result["stale_queries"]
    events["client", "GetValue", "stale"] = stale
    result["stale_queries"] = stale
    result["error_fraction"] = stale / total
    problems = _check(result, events, "adaptive-0.1")
    assert [p.split(" ")[0] for p in problems] == ["error"]


def test_result_json_disagreeing_with_events_fails(tmp_path):
    result, events = _run(tmp_path, "updaterisk-0.1")
    result["cache"]["hits"] += 1
    problems = _check(result, events, "updaterisk-0.1")
    assert [p.split(":")[0] for p in problems] == ["result cache.hits vs events.csv"]


def test_missing_estimate_fails(tmp_path):
    result, events = _run(tmp_path, "adaptive-0.5")
    events["estimator", "GetValue", "estimate"] -= 1
    assert [p.split(":")[0] for p in _check(result, events, "adaptive-0.5")] == [
        "one estimate per miss"
    ]


# Live checks ----------------------------------------------------------------


WRITES = [(b"a", 10, 20), (b"b", 30, 40), (b"c", 35, 60)]


def test_live_miss_accepts_fresh_reads():
    reads = [(b"init", 0, 5), (b"init", 15, 25), (b"a", 25, 28), (b"b", 45, 50),
             (b"c", 45, 50), (b"b", 55, 58), (b"c", 70, 80)]
    # c was sent before b was acknowledged, so either may be the last write.
    assert checks.check_live_miss(0, 0, reads, WRITES, b"init") == []


def test_live_miss_rejects_an_overwritten_value():
    # a was acked at 20; b was sent at 30 (after) and acked at 40, so a read
    # sent at 45 must not return a.
    problems = checks.check_live_miss(0, 0, [(b"a", 45, 50)], WRITES, b"init")
    assert problems == ["1 reads returned a value overwritten before they were sent"]
    problems = checks.check_live_miss(0, 0, [(b"init", 21, 22)], WRITES, b"init")
    assert problems == ["1 reads returned a value overwritten before they were sent"]


def test_live_miss_rejects_unknown_and_future_values_hits_and_failures():
    assert checks.check_live_miss(0, 0, [(b"zz", 1, 2)], WRITES, b"init") == [
        "1 reads returned a value never written"
    ]
    assert checks.check_live_miss(0, 0, [(b"c", 1, 2)], WRITES, b"init") == [
        "1 reads returned a value written after they completed"
    ]
    assert checks.check_live_miss(0, 1, [], WRITES, b"init") == [
        "cache recorded 1 hits with a zero TTL"
    ]
    assert checks.check_live_miss(2, 0, [], WRITES, b"init") == ["2 responses were not OK"]
