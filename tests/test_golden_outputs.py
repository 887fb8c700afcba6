"""Golden outputs: SHA-256 of a run directory's files, pinned.

A change that must not alter output, such as a faster scheduler or a
leaner event log, must leave these bytes as they are. The digests were
recorded at commit 29aab11 with numpy 2.4.6, whose PCG64 stream and
exponential draws the workload's arrival times come from; those of
estimator.cfg at dc6d86c, before the file was written from the
estimator's own settings instead of a text round trip. The full check is
the default suite's manifest, tests/golden/default_suite.sha256, which CI
compares; these four runs are the part of it that every test run repeats.
"""

import hashlib

import pytest

from meshcache.harness import ExperimentConfig, run_experiment

GOLDEN = {
    ("static-1", 0.0): (
        "a19b4aa61bfef8fbd92845a563b84aec5b01ac9082eeb2ba77c0bfe2c80a804c",
        "b51898eb0163e5a2e9a1e4ae84d0e4fa4606616aee6c7e0b541a8e35113b3370",
        "3e1a5b30947d7426ed476a8a582a12b7378373701b9057d26c1400babf382ec9",
        "f170f579f57570f97895ccdd86ee12cb814d282554d993023fa49bb22de3e88d",
    ),
    ("adaptive-0.5", 0.0): (
        "2ceed0333059c52340d5111fe3fe896aa4aea8d22f807e6fcadcd9e19a483797",
        "d915f8628114b63eb307ff16fc81ca81b42ec599eaf0a5ebdb33b5dc63e104c2",
        "01701a87efb06b67ce2acf33d9dbe5bfcae771a98a6a48de7bf08caa9d0e45a1",
        "498903156e09620c3e59292bd388f075e8294e7f2f4edc81f7f8ab334cd10d26",
    ),
    ("updaterisk-0.5", 0.0): (
        "5dcea644435f582cba31244432418fa3dfcb5e62025625e00fb7599cafc73446",
        "9dff537a36078d78e248fb74185e20899b32984273969a990c0ee2dcc69d7931",
        "0599bf1cec0a78d93addda30bb957545a8f8eb0ea8bde41d3301c88c08d05e9c",
        "d988f35d19c9a732aaef434b13239a2ba0412471a874bf1512c2519ebfe3935e",
    ),
    # Updates through the cache, so the latency run has no route-dependent
    # staleness floor.
    ("updaterisk-0.5", 0.05): (
        "19940ab88a69c5f00521e4b274ee17bd3488b9f42e5ee235511af4656d15f8b1",
        "406fab96491fda5e319229b663d5166873884df174380315e3607c803bb6230a",
        "84810c2bfb2d3faad864a98786270e890a2a10e2211bd64b7028de000ccb6380",
        "07a40cac7032e2d5ec5706b2c0ebe1ca9a42eecf15c3f72f8bc72e7da44f8674",
    ),
}

FILES = ("events.csv", "result.json", "timeseries.csv", "estimator.cfg")


@pytest.mark.parametrize("config_id, latency_s", list(GOLDEN))
def test_run_outputs_match_their_golden_digests(tmp_path, config_id, latency_s):
    cfg = ExperimentConfig(
        config_id,
        phase_tag="pi2",
        seed=1,
        duration_s=1800.0,
        link_latency_s=latency_s,
        updates_via_cache=latency_s > 0,
    )
    run_experiment(cfg, tmp_path)
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in FILES)
    assert dict(zip(FILES, digests)) == dict(zip(FILES, GOLDEN[config_id, latency_s]))
