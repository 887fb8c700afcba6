"""Benchmark command: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload sim-suite|live-miss \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
``--seconds`` is how long ``live-miss`` measures; ``sim-suite`` is a
fixed amount of work (two passes of the matrix) and does not use it.
Human-readable lines come first; the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or
every per-layer metric (``--trace 1``). A traced run reports its own
end-to-end figures as ``trace.<name>``, so that the tracing overhead is
the difference to an untraced run (``steady.py`` prints it).
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback

from common import OUT, ROOT, metric, require_source

WORKLOADS = ("sim-suite", "live-miss")
# A run that has not ended by then stops its children and exits with 1.
RUN_TIMEOUT_S = 160


def _timeout(signum, frame):
    raise TimeoutError(f"run did not end within {RUN_TIMEOUT_S} s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    require_source()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(parents=True, exist_ok=True)

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_TIMEOUT_S)
    try:
        if args.workload == "sim-suite":
            import simsuite

            measured, outcome = simsuite.run(args.seed, bool(args.trace))
        else:
            import live

            measured, outcome = live.run(args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 - a run that breaks prints no result
        traceback.print_exc()
        return 1
    signal.alarm(0)

    e2e = measured["e2e"]
    if args.trace:
        produced = dict(measured["layers"])
        produced.update({f"trace.{name}": value for name, value in e2e.items()})
        declared = spec["per_layer"]
        unknown = set(produced) - {m["name"] for m in declared}
        if unknown:
            print(f"undeclared per-layer metrics: {sorted(unknown)}", file=sys.stderr)
            return 1
        # A layer the workload does not run reads 0.
        metrics = {m["name"]: metric(float(produced.get(m["name"], 0.0)), m["unit"]) for m in declared}
    else:
        metrics = {m["name"]: metric(float(e2e[m["name"]]), m["unit"]) for m in spec["end_to_end"]}

    for problem in outcome["problems"]:
        print(f"CHECK FAILED {args.workload}: {problem}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {outcome['attempted']} failed = {outcome['failed']}")
    print(
        json.dumps(
            {
                "correct": outcome["correct"],
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
