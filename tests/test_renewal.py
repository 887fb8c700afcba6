"""The simulated pipeline against renewal theory for a fixed TTL.

For a fixed TTL of T seconds and Poisson GetValues at rate lambda, each
miss fills the cache and the next lambda*T queries on average hit, so the
local hit share is lambda*T / (1 + lambda*T); a hit at age a is stale
with probability 1 - exp(-mu*a) at update rate mu (Jung, Berger and
Balakrishnan, "Modeling TTL-based Internet caches", IEEE INFOCOM 2003).
The sinusoids' period is the run's duration, long against every TTL, so
a run's expected traffic reduction and stale share are these local rates
integrated over both sinusoids. The model reads nothing of the package
but the sinusoid parameters.

Tolerance: each cell runs SEEDS seeds of a full-length run, and the
check is Student's t of the seeds' mean against the model, with the
standard error taken from the seeds' own spread. With 6 seeds (5 degrees
of freedom) an exact model gives |t| >= 6 with probability about 0.0018
per check, about 3 % over the 15 distinct checks here (the query stream,
and so the traffic reduction, is the same in every phase). The bound
comes from that distribution, not from the runs.
"""

import math
import statistics

import pytest

from meshcache.harness import ExperimentConfig, run_experiment
from meshcache.workload import WorkloadConfig

DURATION_S = 1800.0
SEEDS = range(1, 7)
T_BOUND = 6.0


def rate(sinusoid, t_s):
    return sinusoid.mean_rate + sinusoid.amplitude * math.sin(
        2 * math.pi * t_s / sinusoid.period_s + sinusoid.phase
    )


def fixed_ttl_model(workload, ttl_s, steps=3600):
    """Expected (traffic reduction, stale share) of a run with a fixed TTL."""
    dt = workload.duration_s / steps
    queries = hits = stale = 0.0
    for i in range(steps):
        t = (i + 0.5) * dt
        lam, mu = rate(workload.query, t), rate(workload.update, t)
        misses = lam / (1 + lam * ttl_s)  # per second: one per renewal cycle
        queries += lam * dt
        hits += misses * lam * ttl_s * dt
        # Per cycle: the integral over the TTL of lambda * (1 - exp(-mu*a)).
        stale += misses * lam * (ttl_s - (1 - math.exp(-mu * ttl_s)) / mu) * dt
    # A run starts with an empty cache and ends inside a cycle. Renewal
    # theory's second-order term counts h^2 / 2 more misses than the
    # steady rate, h being the hit share at the run's ends (whose rates
    # are equal: the period is the duration).
    lam = rate(workload.query, 0.0)
    hits -= (lam * ttl_s / (1 + lam * ttl_s)) ** 2 / 2
    return hits / queries, stale / queries


def t_of(values, expected):
    return (statistics.mean(values) - expected) / (statistics.stdev(values) / math.sqrt(len(values)))


@pytest.mark.parametrize("phase", ["0", "pi4", "pi2", "pi"])
@pytest.mark.parametrize("ttl_s", [1, 10, 30])
def test_fixed_ttl_runs_match_the_renewal_model(ttl_s, phase):
    runs = [
        run_experiment(ExperimentConfig(f"static-{ttl_s}", phase, seed, DURATION_S))
        for seed in SEEDS
    ]
    traffic, stale = fixed_ttl_model(WorkloadConfig(DURATION_S, 1, phase), ttl_s)
    t_traffic = t_of([r.traffic_reduction for r in runs], traffic)
    t_stale = t_of([r.error_fraction for r in runs], stale)
    assert abs(t_traffic) < T_BOUND, (traffic, t_traffic)
    assert abs(t_stale) < T_BOUND, (stale, t_stale)
