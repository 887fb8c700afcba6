"""The workload's generator, pinned to numpy's stream bit for bit.

meshcache.rng computes numpy's SeedSequence(seed).spawn(2) -> PCG64 ->
standard_exponential in pure Python. numpy is the reference here, as
tests/reference_*.py are for the fast paths: every draw must be the float
numpy gives, on both children, across the ziggurat's slow branches, at
every layer's acceptance boundary, through the memoised prefix from two
threads, and past the prefix's end.
"""

import hashlib
import sys
import threading
from itertools import islice

import numpy as np
import pytest

from meshcache import rng
from meshcache.harness import ExperimentConfig, run_experiment
from test_golden_outputs import FILES, GOLDEN

SEEDS = [0, 1, 5, 2**32 - 1, 2**32 + 5, 2**63 + 11, 2**64 - 1]
DRAWS = 100_000
MASK64 = 2**64 - 1
MASK128 = 2**128 - 1
# PCG64's LCG multiplier (O'Neill, HMC-CS-2014-0905).
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def numpy_child(seed, child):
    return np.random.SeedSequence(seed).spawn(2)[child]


def numpy_generator(seed, child):
    return np.random.Generator(np.random.PCG64(numpy_child(seed, child)))


@pytest.fixture
def prefixes():
    """No memoised prefix, so a test's streams are generated by the test;
    none it made is left for the next."""
    rng._prefix.cache_clear()
    yield rng._prefix
    rng._prefix.cache_clear()


def take(stream, n):
    return list(islice(stream, n))


@pytest.mark.parametrize("seed", SEEDS)
def test_both_children_draw_numpys_stream_through_both_slow_branches(
    monkeypatch, prefixes, seed
):
    # The idx-0 tail is the only caller of log1p and the wedge test the only
    # caller of exp; layer 1 always takes the wedge test, as ke[1] is 0.
    calls = {"log1p": 0, "exp": 0}

    def counted(name):
        real = getattr(rng, name)

        def call(x):
            calls[name] += 1
            return real(x)

        return call

    monkeypatch.setattr(rng, "log1p", counted("log1p"))
    monkeypatch.setattr(rng, "exp", counted("exp"))
    for child in (0, 1):
        words = numpy_child(seed, child).generate_state(4, np.uint64)
        assert rng.seed_state(seed, child) == tuple(int(w) for w in words)
        ours = take(rng.exponential_stream(seed, child), DRAWS)
        assert ours == numpy_generator(seed, child).standard_exponential(DRAWS).tolist()
    assert calls["log1p"] > 0
    assert calls["exp"] > 0


def state_before(output, hi, inc):
    """A PCG64 state whose next 64-bit output is output, with hi the next
    state's upper half."""
    rot = hi >> 58
    xor = (output << rot | output >> (64 - rot)) & MASK64
    after = hi << 64 | (xor ^ hi)
    return (after - inc) * pow(PCG64_MULT, -1, 2**128) & MASK128


def numpy_from_state(state, inc):
    bitgen = np.random.PCG64()
    bitgen.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bitgen


def test_every_layer_agrees_on_both_sides_of_its_acceptance_boundary():
    # ri = ke[idx] - 1 returns the layer's x at once; ri = ke[idx] takes the
    # slow branch, which reads a second output and may start again. Three
    # draws and the final state must agree either way.
    inc = np.random.PCG64(numpy_child(1, 0)).state["state"]["inc"]
    checked = 0
    for idx, ke in enumerate(rng._KE):
        hi = (idx + 1) * 0x9E3779B97F4A7C15 & MASK64
        for ri in (ke - 1, ke):
            if not 0 <= ri < 2**53:
                continue
            output = ri << 11 | idx << 3 | 0b101
            state = state_before(output, hi, inc)
            assert int(numpy_from_state(state, inc).random_raw()) == output
            bitgen = numpy_from_state(state, inc)
            want = np.random.Generator(bitgen).standard_exponential(3).tolist()
            got, after = rng.exponentials(state, inc, 3)
            assert got.tolist() == want, (idx, ri)
            assert after == bitgen.state["state"]["state"], (idx, ri)
            checked += 1
    assert checked == 2 * 256 - 1  # ke[1] = 0 has no ri below it


def test_two_threads_on_one_shared_prefix_both_draw_numpys_stream(prefixes):
    seed, child, n = 424242, 1, rng.MAX_PREFIX_DRAWS + 775
    want = numpy_generator(seed, child).standard_exponential(n).tolist()
    barrier = threading.Barrier(2)
    got = {}

    def draw(name):
        barrier.wait()
        got[name] = take(rng.exponential_stream(seed, child), n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(name,)) for name in "ab"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert got == {"a": want, "b": want}
    assert prefixes.cache_info().currsize == 1
    assert len(prefixes(seed, child)[0]) == rng.MAX_PREFIX_DRAWS


def test_a_stream_read_past_the_prefix_cap_continues_numpys_stream(prefixes):
    # Two blocks past the prefix: the continuation goes on from the state
    # after each block, and a second stream reads the memoised prefix.
    n = 3 * rng.MAX_PREFIX_DRAWS + 7
    want = numpy_generator(7, 0).standard_exponential(n).tolist()
    assert take(rng.exponential_stream(7, 0), n) == want
    assert take(rng.exponential_stream(7, 0), n) == want
    assert prefixes.cache_info().misses == 1


def test_a_run_that_draws_past_a_small_cap_keeps_its_golden_outputs(
    monkeypatch, prefixes, tmp_path
):
    # With a prefix of 1000 draws the query actor's ~9.9k gaps of an 1800 s
    # run come mostly from the continuation; the outputs must not change.
    monkeypatch.setattr(rng, "MAX_PREFIX_DRAWS", 1000)
    cfg = ExperimentConfig("static-1", phase_tag="pi2", seed=1, duration_s=1800.0)
    run_experiment(cfg, tmp_path)
    digests = tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in FILES)
    assert digests == GOLDEN["static-1", 0.0]
    assert len(prefixes(1, 0)[0]) == 1000


def test_the_prefixes_stay_within_their_bounds(prefixes):
    sizes = []
    for seed in range(rng.MAX_PREFIX_STREAMS + 3):
        for child in (0, 1):
            n = rng.MAX_PREFIX_DRAWS + 10 if seed < 2 else 10
            take(rng.exponential_stream(seed, child), n)
            sizes.append(prefixes.cache_info().currsize)
    # The least recently used prefix goes once MAX_PREFIX_STREAMS are held.
    assert sizes == [min(i + 1, rng.MAX_PREFIX_STREAMS) for i in range(len(sizes))]
    assert prefixes.cache_info().misses == len(sizes)
    assert len(prefixes(rng.MAX_PREFIX_STREAMS + 2, 1)[0]) == rng.MAX_PREFIX_DRAWS


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_an_1800_s_run_reads_only_its_shared_prefix(monkeypatch, prefixes, seed):
    # The default suite's runs read their gaps from the memoised prefix
    # alone, so a suite generates each seed's streams once.
    made = []

    def counted(state, inc, n):
        made.append(n)
        return exponentials(state, inc, n)

    exponentials = rng.exponentials
    monkeypatch.setattr(rng, "exponentials", counted)
    cfg = ExperimentConfig("static-0", phase_tag="pi2", seed=seed, duration_s=1800.0)
    result = run_experiment(cfg)
    # One draw per query; the update actor draws about a tenth as many.
    assert 9000 < result.total_queries + result.errored_queries < rng.MAX_PREFIX_DRAWS
    assert made == [rng.MAX_PREFIX_DRAWS, rng.MAX_PREFIX_DRAWS]
    assert prefixes.cache_info().currsize == 2
