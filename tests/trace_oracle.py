"""Straight-line replay oracle for scripted traces and whole runs.

Re-implements the client -> cache -> estimator -> server pipeline as one
sequential loop with its own arithmetic, so the event-loop topology can
be checked against a second, independently written account of the same
semantics. Nothing here imports the package's cache, estimator, or TTL
code on purpose; keep it that way. run_schedule() takes only the
workload's draws and pacing from the package.

Rules replayed:
  - the cache serves a stored value while now < expiry, deletes it at or
    past expiry, and stores fresh responses only when ttl >= 1, expiring
    at fill-time + ttl seconds;
  - the estimator sees only cache misses, records a change whenever the
    served value differs from the last one it saw (first sight counts),
    and estimates: static beta | floor(age * alpha) | floor(-(bud/k) *
    ln(1-rho)), clamped to [0, cap];
  - queries classify ok/stale against the ledger value; updates write a
    1-based counter to the server and publish it on acknowledgement.

A whole run has two concurrent actors. At a millisecond they share, they
act in the order the scheduler queued them, which the oracle does not
model: it replays the updates of a shared millisecond first. So for a whole run (concurrent=True)
a query that shares its millisecond with updates is fresh if its answer
is the value before them or after them. This is the latency-0 case of
the workload's classifier, which accepts the value expected when the
query was issued or when its answer arrived. A single-actor scripted
trace keeps the strict rule, because its order is fixed.
"""

import math

NS = 1_000_000_000
NS_PER_MS = 1_000_000


def run_schedule(duration_s, seed, phase_tag):
    """(at_s, kind) ops of a whole run's two actors at latency 0, in time order.

    Each actor acts at 0, then after each op sleeps next_delay_ms at the
    op's instant, until the run's end; at a shared millisecond the update
    comes first.
    """
    from meshcache.workload import WorkloadConfig, next_delay_ms

    workload = WorkloadConfig(duration_s=duration_s, seed=seed, phase_tag=phase_tag)
    query_draws, update_draws = workload.actor_rngs()
    end = round(duration_s * NS)
    instants = []
    for order, kind, sinusoid, draws in (
        (0, "update", workload.update, update_draws),
        (1, "query", workload.query, query_draws),
    ):
        now = 0
        while now < end:
            instants.append((now, order, kind))
            now += next_delay_ms(sinusoid, now / NS, draws) * NS_PER_MS
    instants.sort()
    return [(now / NS, kind) for now, _, kind in instants]


def parse_config(config_id):
    family, _, raw = config_id.partition("-")
    if family == "static":
        return family, int(raw)
    return family, float(raw)


def replay_trace(ops, config_id, cap=30, k=2, concurrent=False):
    """Expected (ns, component, method, event, value) rows for scripted ops.

    ops: iterable of (at_s, kind) with kind "query" or "update"; replayed
    in order, never moving time backwards. concurrent: the ops are two
    actors' (run_schedule), so the tie rule above applies.
    """
    family, param = parse_config(config_id)
    rows = []
    now = 0
    server_value = b"0"
    expected = b"0"
    counter = 0
    stored = None  # (payload, expires_ns)
    change_stamps = []  # estimator-side change instants, newest last
    last_seen = None
    depth = k if family == "updaterisk" else 1
    tie_ns, before_tie = None, None  # the last update's instant; the value before its updates

    for at_s, kind in ops:
        now = max(now, round(at_s * NS))
        if kind == "update":
            if tie_ns != now:
                tie_ns, before_tie = now, expected
            counter += 1
            server_value = str(counter).encode()
            expected = server_value
            rows.append((now, "client", "SetValue", "ok", ""))
            continue

        if stored is not None and now >= stored[1]:
            stored = None
        if stored is not None:
            rows.append((now, "cache", "GetValue", "hit", ""))
            payload = stored[0]
        else:
            rows.append((now, "cache", "GetValue", "miss", ""))
            payload = server_value
            if last_seen is None or payload != last_seen:
                change_stamps.append(now)
                del change_stamps[:-depth]
                last_seen = payload
            if family == "static":
                ttl = param
            elif family == "adaptive":
                age_s = (now - change_stamps[-1]) / NS
                ttl = math.floor(age_s * param)
            else:
                if len(change_stamps) < k:
                    ttl = 0
                else:
                    bud_s = (now - change_stamps[-k]) / NS
                    ttl = math.floor(-(bud_s / k) * math.log(1.0 - param))
            if family != "static":
                ttl = min(max(ttl, 0), cap) if cap is not None else max(ttl, 0)
            rows.append((now, "estimator", "GetValue", "estimate", str(ttl)))
            if ttl >= 1:
                stored = (payload, now + ttl * NS)
        fresh = payload == expected or (concurrent and tie_ns == now and payload == before_tie)
        outcome = "ok" if fresh else "stale"
        rows.append((now, "client", "GetValue", outcome, ""))
    return rows
