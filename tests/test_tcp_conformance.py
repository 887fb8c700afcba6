"""The TCP backend checked row for row against the virtual one.

Criterion 8's 100 seeded micro-traces run through the same topology over
loopback TCP: harness._wire over tcp.connector, one actor on the loop
under tcp.run_actors, and a clock that the actor sets to each operation's
instant, so nothing sleeps and no housekeeping runs. Every log row,
timestamp included, must equal the virtual run's and the straight-line
oracle's. The rows pass through every frame codec path the sidecars use,
so a codec memo that answers for the wrong frame changes them.
"""

from contextlib import ExitStack

from meshcache import tcp
from meshcache.clock import seconds_to_ns
from meshcache.eventlog import EventLog
from meshcache.harness import ExperimentConfig, _wire, run_scripted_trace
from meshcache.workload import StalenessLedger, query_once, update_once
from test_acceptance import micro_traces
from trace_oracle import replay_trace


class SetClock:
    """A clock that reads what the actor last set."""

    def __init__(self) -> None:
        self.ns = 0

    def now_ns(self) -> int:
        return self.ns


def scripted_actor(ops, clock, cache_link, server_link, ledger, log):
    """Each op at its instant, as harness.scripted_actor runs them, but setting the clock."""
    counter = 0
    for op in ops:
        clock.ns = seconds_to_ns(op.at_s)
        if op.kind == "query":
            yield from query_once(clock, cache_link, ledger, log)
        else:
            counter += 1
            value = str(counter).encode("ascii")
            yield from update_once(clock, server_link, ledger, value, log)


def run_over_tcp(ops, config_id):
    clock = SetClock()
    log = EventLog()
    with ExitStack() as stack:
        connect = tcp.connector(stack)
        server, _, cache = _wire(ExperimentConfig(config_id), connect, clock, log, None)
        ledger = StalenessLedger(server.current_value())
        cache_link, server_link = connect(cache.handle), connect(server.handle)
        tcp.run_actors([scripted_actor(ops, clock, cache_link, server_link, ledger, log)])
    return log.rows()


def test_the_micro_traces_give_the_same_rows_over_tcp_as_on_the_virtual_clock():
    mismatched = []
    rows = 0
    for i, (config, ops) in enumerate(micro_traces()):
        got = run_over_tcp(ops, config)
        want = replay_trace([(op.at_s, op.kind) for op in ops], config)
        rows += len(got)
        if got != run_scripted_trace(ops, config) or [tuple(r) for r in got] != want:
            mismatched.append((i, config))
    assert mismatched == [], f"{len(mismatched)} of 100 traces differ: {mismatched[:10]}"
    assert rows > 1000
