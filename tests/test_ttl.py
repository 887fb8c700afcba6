"""TTL estimation algorithms and the observation history type."""

import math

import numpy as np
import pytest

from meshcache.clock import NS_PER_S
from meshcache.ttl import (
    DEFAULT_MAX_TTL_CAP,
    AdaptiveTtl,
    ObservationHistory,
    StaticTtl,
    UpdateRiskTtl,
    empty_history,
    estimate,
    observe,
)


def history_with_changes(depth, stamps_s, digest=b"d"):
    """Build a history whose change timestamps sit at the given seconds."""
    h = empty_history(depth)
    for i, t_s in enumerate(stamps_s):
        h = observe(h, int(t_s * NS_PER_S), digest + str(i).encode())
    return h


# --- config validation ---


def test_static_rejects_negative_beta():
    with pytest.raises(ValueError):
        StaticTtl(-1)


def test_adaptive_requires_positive_alpha():
    with pytest.raises(ValueError):
        AdaptiveTtl(0.0)
    with pytest.raises(ValueError):
        AdaptiveTtl(-0.5)


@pytest.mark.parametrize("rho", [-0.1, 1.0, 1.5])
def test_update_risk_rejects_rho_outside_unit_interval(rho):
    with pytest.raises(ValueError):
        UpdateRiskTtl(rho)


def test_update_risk_rejects_k_below_one():
    with pytest.raises(ValueError):
        UpdateRiskTtl(0.5, k=0)


def test_required_history_depth():
    assert StaticTtl(5).history_depth == 1
    assert AdaptiveTtl(0.5).history_depth == 1
    assert UpdateRiskTtl(0.5).history_depth == 2
    assert UpdateRiskTtl(0.5, k=7).history_depth == 7


# --- observation history ---


def test_first_observation_counts_as_a_change():
    h = observe(empty_history(2), 1000, b"a")
    assert h.change_timestamps == (1000,)
    assert h.last_digest == b"a"
    assert h.last_touched == 1000


def test_identical_digest_only_refreshes_last_touched():
    h = observe(empty_history(2), 1000, b"a")
    h = observe(h, 5000, b"a")
    assert h.change_timestamps == (1000,)
    assert h.last_touched == 5000


def test_new_digest_appends_a_change():
    h = observe(empty_history(3), 1000, b"a")
    h = observe(h, 2000, b"b")
    assert h.change_timestamps == (1000, 2000)
    assert h.last_digest == b"b"


def test_depth_evicts_oldest_change():
    h = empty_history(2)
    for t, d in [(1, b"a"), (2, b"b"), (3, b"c")]:
        h = observe(h, t, d)
    assert h.change_timestamps == (2, 3)


def test_observe_rejects_time_before_last_change():
    h = observe(empty_history(2), 1000, b"a")
    with pytest.raises(ValueError):
        observe(h, 999, b"b")


def test_two_changes_at_the_same_instant_are_both_recorded():
    # Two different digests in one nanosecond: a second change at that
    # instant, so update-risk's k-th change is now and the estimate is 0.
    h = observe(observe(empty_history(2), 1000, b"a"), 1000, b"b")
    assert h.change_timestamps == (1000, 1000) and h.last_digest == b"b"
    assert estimate(UpdateRiskTtl(0.5), h, 1000) == 0
    assert ObservationHistory(2, b"b", (1000, 1000)).change_timestamps == (1000, 1000)


def test_history_is_immutable_and_validated():
    h = observe(empty_history(2), 1000, b"a")
    with pytest.raises(Exception):
        h.last_digest = b"x"  # a named tuple: fields cannot be assigned
    with pytest.raises(ValueError):
        ObservationHistory(history_depth=0)
    with pytest.raises(ValueError):
        ObservationHistory(history_depth=1, last_digest=b"a", change_timestamps=(2, 1))
    with pytest.raises(ValueError):
        ObservationHistory(history_depth=1, change_timestamps=(5,))  # no digest


# --- static ---


def test_static_returns_beta_for_any_history():
    empty = empty_history(1)
    seen = history_with_changes(1, [12.0])
    for beta in (0, 1, 10, 30, 7):
        assert estimate(StaticTtl(beta), empty, 0) == beta
        assert estimate(StaticTtl(beta), seen, 99 * NS_PER_S) == beta


def test_static_ignores_the_cap():
    # The cap applies to dynamic estimates; a static-100 stays 100.
    h = empty_history(1)
    assert estimate(StaticTtl(100), h, 0, max_ttl_cap=30) == 100


# --- adaptive ---


def test_adaptive_empty_history_is_zero():
    assert estimate(AdaptiveTtl(0.5), empty_history(1), 10 * NS_PER_S) == 0


def test_adaptive_hand_checked_values():
    h = history_with_changes(1, [0.0])
    assert estimate(AdaptiveTtl(0.5), h, 10 * NS_PER_S) == 5
    assert estimate(AdaptiveTtl(0.1), h, 25 * NS_PER_S) == 2  # floor(2.5)


def test_adaptive_floors_not_rounds():
    h = history_with_changes(1, [0.0])
    assert estimate(AdaptiveTtl(0.35), h, 17 * NS_PER_S) == 5  # 5.95 -> 5


def test_adaptive_clamps_to_cap():
    h = history_with_changes(1, [0.0])
    assert estimate(AdaptiveTtl(1.0), h, 500 * NS_PER_S) == DEFAULT_MAX_TTL_CAP
    assert estimate(AdaptiveTtl(1.0), h, 500 * NS_PER_S, max_ttl_cap=7) == 7
    assert estimate(AdaptiveTtl(1.0), h, 500 * NS_PER_S, max_ttl_cap=None) == 500


def test_adaptive_caps_an_estimate_that_overflows():
    # 10 s * 1e308 is inf as a float; the cap applies before any flooring.
    h = history_with_changes(1, [0.0])
    assert estimate(AdaptiveTtl(1e308), h, 10 * NS_PER_S) == DEFAULT_MAX_TTL_CAP


# --- update risk ---


def test_update_risk_needs_k_changes():
    one = history_with_changes(2, [0.0])
    assert estimate(UpdateRiskTtl(0.5, k=2), one, 30 * NS_PER_S) == 0
    two = history_with_changes(2, [0.0, 10.0])
    assert estimate(UpdateRiskTtl(0.5, k=2), two, 30 * NS_PER_S) > 0


def test_update_risk_hand_checked_values():
    # Second-most-recent change 20 s ago: floor(-(20/2) * ln(0.5)) = 6,
    # and with rho=0.9: floor(10 * ln(10)) = 23.
    h = history_with_changes(2, [0.0, 12.0])
    assert estimate(UpdateRiskTtl(0.5, k=2), h, 20 * NS_PER_S) == 6
    assert estimate(UpdateRiskTtl(0.9, k=2), h, 20 * NS_PER_S) == 23


def test_update_risk_zero_rho_is_always_zero():
    h = history_with_changes(2, [0.0, 50.0])
    for now_s in (50, 60, 1000):
        assert estimate(UpdateRiskTtl(0.0, k=2), h, now_s * NS_PER_S) == 0


def test_update_risk_clamps_to_cap():
    h = history_with_changes(2, [0.0, 1.0])
    cfg = UpdateRiskTtl(0.9, k=2)
    assert estimate(cfg, h, 1000 * NS_PER_S) == DEFAULT_MAX_TTL_CAP
    assert estimate(cfg, h, 1000 * NS_PER_S, max_ttl_cap=None) == 1151


# --- dispatch and shared properties ---


def test_estimate_dispatches_by_config_type():
    # estimate() is each record's own rule, under the default cap unless
    # one is given.
    h = history_with_changes(2, [0.0, 10.0])
    now = 20 * NS_PER_S
    assert estimate(StaticTtl(3), h, now) == 3
    for cfg in (StaticTtl(40), AdaptiveTtl(0.5), AdaptiveTtl(9.0), UpdateRiskTtl(0.5, k=2)):
        assert estimate(cfg, h, now) == cfg.ttl(h, now, DEFAULT_MAX_TTL_CAP)
        assert estimate(cfg, h, now, max_ttl_cap=None) == cfg.ttl(h, now, None)
    with pytest.raises(AttributeError):
        estimate(object(), h, now)


def test_estimates_are_pure():
    h = history_with_changes(2, [3.0, 8.0])
    now = 40 * NS_PER_S
    for cfg in (StaticTtl(4), AdaptiveTtl(0.3), UpdateRiskTtl(0.6, k=2)):
        first = estimate(cfg, h, now)
        assert all(estimate(cfg, h, now) == first for _ in range(5))


def test_monotone_in_alpha_and_rho():
    rng = np.random.default_rng(7)
    for _ in range(300):
        stamps = np.sort(rng.uniform(0.0, 100.0, size=2))
        h = history_with_changes(2, list(stamps))
        now = int((stamps[-1] + rng.uniform(0.0, 60.0)) * NS_PER_S)
        alphas = sorted(rng.uniform(0.01, 3.0, size=2))
        a_lo = estimate(AdaptiveTtl(alphas[0]), h, now, max_ttl_cap=None)
        a_hi = estimate(AdaptiveTtl(alphas[1]), h, now, max_ttl_cap=None)
        assert a_lo <= a_hi
        rhos = sorted(rng.uniform(0.0, 0.99, size=2))
        u_lo = estimate(UpdateRiskTtl(rhos[0], k=2), h, now, max_ttl_cap=None)
        u_hi = estimate(UpdateRiskTtl(rhos[1], k=2), h, now, max_ttl_cap=None)
        assert u_lo <= u_hi


def test_k1_update_risk_matches_adaptive_spot_checks():
    # rho = 1 - e^(-alpha) with k=1 collapses the risk formula to age * alpha.
    h = history_with_changes(1, [5.0])
    for alpha, now_s in [(0.5, 25.0), (0.1, 300.0), (2.0, 6.5)]:
        rho = 1.0 - math.exp(-alpha)
        a = estimate(AdaptiveTtl(alpha), h, int(now_s * NS_PER_S), max_ttl_cap=None)
        u = estimate(
            UpdateRiskTtl(rho, k=1), h, int(now_s * NS_PER_S), max_ttl_cap=None
        )
        assert a == u
