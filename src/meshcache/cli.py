"""Command-line entry points for running and analyzing experiments.

    meshcache run --config-id static-1 --phase 0 --seed 1 \
        --duration-s 300 --clock virtual --out results/
    meshcache suite --matrix matrix.txt --out results/
    meshcache aggregate --in results/static-1/0/seed-1 --out metrics.json
    meshcache plot-data --in results/ --kind scatter --out scatter.csv

Exit codes: 0 success; 1 a run failed, or an input file does not parse;
2 unusable config, or an output that cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import parse_config_id, parse_matrix
from .harness import (
    ExperimentConfig,
    aggregate_logs,
    load_results,
    run_dir,
    run_experiment,
    run_suite,
    write_scatter,
    write_timeseries,
)
from .workload import PHASE_SHIFTS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshcache",
        description="Adaptive-TTL caching sidecar experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("--config-id", required=True)
    run_p.add_argument("--phase", choices=sorted(PHASE_SHIFTS), default="0")
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--duration-s", type=float, default=300.0)
    run_p.add_argument("--clock", choices=["virtual", "real"], default="virtual")
    run_p.add_argument("--out", required=True)
    run_p.set_defaults(func=_cmd_run)

    suite_p = sub.add_parser("suite", help="run a matrix of experiments")
    suite_p.add_argument("--matrix", required=True)
    suite_p.add_argument("--out", required=True)
    suite_p.set_defaults(func=_cmd_suite)

    agg_p = sub.add_parser("aggregate", help="recompute metrics from event logs")
    agg_p.add_argument("--in", dest="in_dir", required=True)
    agg_p.add_argument("--out", required=True)
    agg_p.set_defaults(func=_cmd_aggregate)

    plot_p = sub.add_parser("plot-data", help="emit scatter or timeseries CSV")
    plot_p.add_argument("--in", dest="in_dir", required=True)
    plot_p.add_argument("--kind", choices=["scatter", "timeseries"], required=True)
    plot_p.add_argument("--out", required=True)
    plot_p.set_defaults(func=_cmd_plot_data)
    return parser


def _make_output_dir(path: Path) -> bool:
    """Create an output directory before any run; False, reported, if it cannot be."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = ExperimentConfig(
            config_id=args.config_id,
            phase_tag=args.phase,
            seed=args.seed,
            duration_s=args.duration_s,
            clock_mode=args.clock,
        )
        canonical, _ = parse_config_id(args.config_id)
    except ValueError as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return 2
    out = run_dir(args.out, canonical, args.phase, args.seed)
    if not _make_output_dir(out):
        return 2
    try:
        result = run_experiment(cfg, out)
    except Exception as exc:  # noqa: BLE001 - report, signal via exit code
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(
        f"{result.config_id} phase={result.phase_tag} seed={result.seed} "
        f"traffic_reduction={result.traffic_reduction:.6f} "
        f"error_fraction={result.error_fraction:.6f} -> {out}"
    )
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    try:
        matrix = parse_matrix(Path(args.matrix).read_text(encoding="ascii"))
    except OSError as exc:
        print(f"cannot read matrix: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"bad matrix: {exc}", file=sys.stderr)
        return 2
    if not _make_output_dir(Path(args.out)):
        return 2
    outcome = run_suite(
        matrix.config_ids,
        matrix.phases,
        matrix.seeds,
        matrix.duration_s,
        args.out,
        clock_mode=matrix.clock,
    )
    for config_id, phase, seed, error in outcome.failures:
        print(f"failed: {config_id} phase={phase} seed={seed}: {error}", file=sys.stderr)
    print(
        f"{len(outcome.results)} runs ok, {len(outcome.failures)} failed "
        f"-> {Path(args.out) / 'scatter.csv'}"
    )
    return 1 if outcome.failures else 0


def _cmd_aggregate(args: argparse.Namespace) -> int:
    root = Path(args.in_dir)
    logs = sorted(root.rglob("events.csv"))
    if not logs:
        print(f"no events.csv under {root}", file=sys.stderr)
        return 2
    runs = {}
    for log_path in logs:
        rel = str(log_path.parent.relative_to(root)) or "."
        try:
            metrics = aggregate_logs(log_path)
        except ValueError as exc:
            print(f"{log_path}: {exc}", file=sys.stderr)
            return 1
        runs[rel] = {**metrics.totals(), "hits": metrics.hits, "misses": metrics.misses}
    text = json.dumps({"runs": runs}, indent=2, sort_keys=True) + "\n"
    try:
        Path(args.out).write_text(text, encoding="ascii")
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    print(f"aggregated {len(runs)} run(s) -> {args.out}")
    return 0


def _cmd_plot_data(args: argparse.Namespace) -> int:
    try:
        results = load_results(args.in_dir)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    if not results:
        print(f"no result.json under {args.in_dir}", file=sys.stderr)
        return 2
    if args.kind == "timeseries" and len(results) != 1:
        print(
            f"timeseries needs exactly one run, found {len(results)}; "
            "point --in at a single run directory",
            file=sys.stderr,
        )
        return 2
    try:
        if args.kind == "scatter":
            write_scatter(results, args.out)
        else:
            write_timeseries(results[0].windows, args.out)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    print(f"{args.kind} data -> {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
