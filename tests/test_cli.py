"""Command-line interface: subcommands, file outputs, exit codes."""

import functools
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from meshcache import cli
from meshcache.cli import main
from meshcache.config import parse_matrix
from meshcache.harness import ExperimentConfig, read_result, run_experiment

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_run_writes_a_run_directory_and_reports_metrics(tmp_path, capsys):
    code = main(
        [
            "run",
            "--config-id", "static-1",
            "--phase", "pi",
            "--seed", "2",
            "--duration-s", "10",
            "--clock", "virtual",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "traffic_reduction=" in out and "error_fraction=" in out
    run = tmp_path / "static-1" / "pi" / "seed-2"
    for name in ("events.csv", "result.json", "timeseries.csv"):
        assert (run / name).exists()


def test_run_refuses_a_dynamic_prefix(tmp_path, capsys):
    code = main(["run", "--config-id", "dynamic-adaptive-0.5", "--duration-s", "5",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "bad config: config id" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_run_rejects_unknown_config(tmp_path, capsys):
    code = main(["run", "--config-id", "nosuch-3", "--out", str(tmp_path)])
    assert code == 2
    assert "bad config" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["inf", "nan"])
def test_run_refuses_an_alpha_that_is_not_finite(tmp_path, capsys, alpha):
    # Refused before the run: with such an alpha every estimate would fail.
    code = main(["run", "--config-id", f"adaptive-{alpha}", "--duration-s", "5",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "bad config: config id" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("config_id", ["static-\u0663", "static-1_0", "adaptive-1e-1", "static-+1"])
def test_run_refuses_a_parameter_that_is_not_a_plain_decimal(tmp_path, capsys, config_id):
    # Each would otherwise run under a second name for one algorithm, or
    # write a run directory whose name is not ASCII.
    code = main(["run", "--config-id", config_id, "--duration-s", "5", "--out", str(tmp_path)])
    assert code == 2
    assert f"bad config: config id {config_id!r}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_suite_runs_a_matrix(tmp_path, capsys):
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("static-1\nphases=0,pi\nseeds=1\nduration_s=5\n")
    out = tmp_path / "results"
    assert main(["suite", "--matrix", str(matrix), "--out", str(out)]) == 0
    assert "2 runs ok, 0 failed" in capsys.readouterr().out
    scatter = (out / "scatter.csv").read_text().splitlines()
    assert scatter[0] == "config_id,parameter,phase_shift,traffic_reduction,error_fraction"
    assert len(scatter) == 3


def test_suite_bad_matrix_is_a_config_error(tmp_path, capsys):
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("nosuch-1\n")
    assert main(["suite", "--matrix", str(matrix), "--out", str(tmp_path / "o")]) == 2
    assert "bad matrix" in capsys.readouterr().err
    assert main(["suite", "--matrix", str(tmp_path / "absent.txt"),
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "line", ["duration_s=0", "duration_s=-5", "seeds=1,-1", f"seeds={2**64}"]
)
def test_suite_matrix_with_unusable_run_knobs_is_a_config_error(tmp_path, capsys, line):
    matrix = tmp_path / "matrix.txt"
    matrix.write_text(f"static-1\nphases=0\n{line}\n")
    out = tmp_path / "o"
    assert main(["suite", "--matrix", str(matrix), "--out", str(out)]) == 2
    assert "bad matrix" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("duration", ["nan", "inf", "-1", "1e300", "1e10"])
@pytest.mark.parametrize("command", ["run", "suite"])
def test_a_duration_that_is_not_positive_and_finite_is_a_config_error(
    tmp_path, capsys, command, duration
):
    out = tmp_path / "o"
    if command == "run":
        argv = ["run", "--config-id", "static-1", "--duration-s", duration, "--out", str(out)]
        reported = "bad config"
    else:
        matrix = tmp_path / "matrix.txt"
        matrix.write_text(f"static-1\nphases=0\nduration_s={duration}\n")
        argv = ["suite", "--matrix", str(matrix), "--out", str(out)]
        reported = "bad matrix"
    assert main(argv) == 2
    assert f"{reported}: duration_s must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_run_rejects_a_seed_outside_64_bits(tmp_path, capsys, seed):
    code = main(["run", "--config-id", "static-1", "--seed", seed, "--duration-s", "5",
                 "--out", str(tmp_path)])
    assert code == 2
    assert "bad config" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
def test_run_rejects_a_bad_latency(tmp_path, capsys, monkeypatch, value):
    # `meshcache run` has no latency flag; the config it builds gets the
    # value here, so it is refused before anything runs.
    bad_config = functools.partial(ExperimentConfig, link_latency_s=value)
    monkeypatch.setattr(cli, "ExperimentConfig", bad_config)
    code = main(["run", "--config-id", "static-1", "--duration-s", "5", "--out", str(tmp_path)])
    assert code == 2
    assert "bad config: link_latency_s must be" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_aggregate_recomputes_metrics_from_logs(tmp_path, capsys):
    out = tmp_path / "results"
    main(["run", "--config-id", "static-1", "--duration-s", "10", "--out", str(out)])
    metrics_path = tmp_path / "metrics.json"
    assert main(["aggregate", "--in", str(out), "--out", str(metrics_path)]) == 0
    data = json.loads(metrics_path.read_text())
    (rel,) = data["runs"].keys()
    assert rel == "static-1/0/seed-1"
    run_metrics = data["runs"][rel]
    result = json.loads((out / rel / "result.json").read_text())
    assert run_metrics["error_fraction"] == result["error_fraction"]
    assert run_metrics["traffic_reduction"] == result["traffic_reduction"]
    assert run_metrics["hits"] == result["cache"]["hits"]


def test_a_run_directory_reads_back_and_aggregates_to_its_result(tmp_path, capsys):
    cfg = ExperimentConfig("adaptive-0.5", "pi2", duration_s=120.0)
    result = run_experiment(cfg, tmp_path / "run")
    assert read_result(tmp_path / "run" / "result.json") == result
    metrics_path = tmp_path / "metrics.json"
    assert main(["aggregate", "--in", str(tmp_path / "run"), "--out", str(metrics_path)]) == 0
    aggregated = json.loads(metrics_path.read_text())["runs"]["."]
    written = json.loads((tmp_path / "run" / "result.json").read_text())
    shared = aggregated.keys() & written.keys()
    assert shared == set(result.totals())
    assert {k: aggregated[k] for k in shared} == {k: written[k] for k in shared}
    assert (aggregated["hits"], aggregated["misses"]) == (
        written["cache"]["hits"], written["cache"]["misses"]
    )


def test_aggregate_without_logs_is_a_config_error(tmp_path, capsys):
    assert main(["aggregate", "--in", str(tmp_path), "--out",
                 str(tmp_path / "m.json")]) == 2
    assert "no events.csv" in capsys.readouterr().err


def test_aggregate_reports_unusable_logs(tmp_path, capsys):
    run = tmp_path / "r"
    run.mkdir()
    (run / "events.csv").write_text("0,client,GetValue,error,\n")
    assert main(["aggregate", "--in", str(tmp_path), "--out",
                 str(tmp_path / "m.json")]) == 1
    assert "no completed queries" in capsys.readouterr().err


def test_plot_data_scatter_and_timeseries(tmp_path):
    out = tmp_path / "results"
    for phase in ("0", "pi"):
        main(["run", "--config-id", "static-1", "--phase", phase,
              "--duration-s", "50", "--out", str(out)])
    scatter = tmp_path / "scatter.csv"
    assert main(["plot-data", "--in", str(out), "--kind", "scatter",
                 "--out", str(scatter)]) == 0
    assert len(scatter.read_text().splitlines()) == 3

    series = tmp_path / "series.csv"
    single = out / "static-1" / "pi" / "seed-1"
    assert main(["plot-data", "--in", str(single), "--kind", "timeseries",
                 "--out", str(series)]) == 0
    # Rebuilt from result.json, the series is the run's own file, byte for byte.
    assert series.read_bytes() == (single / "timeseries.csv").read_bytes()
    assert len(series.read_text().splitlines()) == 5  # header and 4 windows


def test_plot_data_timeseries_needs_exactly_one_run(tmp_path, capsys):
    out = tmp_path / "results"
    for phase in ("0", "pi"):
        main(["run", "--config-id", "static-1", "--phase", phase,
              "--duration-s", "10", "--out", str(out)])
    assert main(["plot-data", "--in", str(out), "--kind", "timeseries",
                 "--out", str(tmp_path / "t.csv")]) == 2
    assert "exactly one run" in capsys.readouterr().err


def test_plot_data_with_no_results_is_a_config_error(tmp_path, capsys):
    assert main(["plot-data", "--in", str(tmp_path), "--kind", "scatter",
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert "no result.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text", ['{"config_id": "static-1"}', "not json", "[]", '{"cache": 1}'],
    ids=["missing-fields", "not-json", "a-list", "wrong-types"],
)
def test_plot_data_names_a_result_file_that_does_not_parse(tmp_path, capsys, text):
    run = tmp_path / "static-1" / "0" / "seed-1"
    run.mkdir(parents=True)
    (run / "result.json").write_text(text)
    assert main(["plot-data", "--in", str(tmp_path), "--kind", "scatter",
                 "--out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(run / "result.json") in err
    assert not (tmp_path / "s.csv").exists()


def set_field(data, field, value):
    data[field] = value


def set_cache(data, field, value):
    data["cache"][field] = value


def set_stale_above_total(data, field, value):
    data["stale_queries"] = data["total_queries"] + 7


def set_windows(data, field, value):
    data["windows"][0] = ["a", "b", "c", "d"]


def set_window_value(data, field, value):
    window, column = field
    data["windows"][window][column] = value


def add_window(data, field, value):
    data["windows"].append(value)


@pytest.mark.parametrize(
    "edit, field, value",
    [
        (set_field, "config_id", "bogus-1"),
        (set_field, "config_id", "dynamic-static-1"),
        (set_field, "config_id", " static-1"),
        (set_field, "total_queries", "x"),
        (set_field, "total_queries", 0),
        (set_field, "phase", "zz"),
        (set_windows, None, None),
        (set_cache, "hits", "x"),
        (set_field, "stale_queries", -5),
        (set_stale_above_total, None, None),
        (set_cache, "hits", -3),
        (set_field, "seed", -1),
        (set_field, "clock", "sundial"),
        (set_field, "duration_s", "x"),
        (set_cache, "expirations", -4),
        (add_window, None, [30.0, 0.0, 0.0, 0.0]),
        (set_window_value, (1, 0), 99.0),
        (set_window_value, (0, 1), 5.0),
        (set_window_value, (0, 2), -1.0),
        (set_window_value, (0, 3), -3.0),
        (set_window_value, (0, 3), math.inf),
    ],
    ids=[
        "config-id", "dynamic-config-id", "padded-config-id", "count", "no-queries", "phase",
        "window", "cache-hits",
        "negative-stale", "stale-above-total", "negative-hits", "negative-seed",
        "clock", "duration", "negative-expirations", "window-count", "window-start",
        "error-fraction", "hit-fraction", "negative-ttl", "infinite-ttl",
    ],
)
@pytest.mark.parametrize("kind", ["scatter", "timeseries"])
def test_plot_data_refuses_a_result_value_write_result_never_writes(
    tmp_path, capsys, kind, edit, field, value
):
    out = tmp_path / "results"
    main(["run", "--config-id", "static-1", "--duration-s", "30", "--out", str(out)])
    run = out / "static-1" / "0" / "seed-1"
    data = json.loads((run / "result.json").read_text())
    edit(data, field, value)
    (run / "result.json").write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["plot-data", "--in", str(run), "--kind", kind,
                 "--out", str(tmp_path / "p.csv")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(run / "result.json") in err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("below", ["", "sub"])
@pytest.mark.parametrize("command", ["run", "suite"])
def test_an_output_that_cannot_be_created_is_a_config_error(tmp_path, capsys, command, below):
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    out = taken / below
    if command == "run":
        argv = ["run", "--config-id", "static-1", "--duration-s", "5", "--out", str(out)]
    else:
        matrix = tmp_path / "matrix.txt"
        matrix.write_text("static-1\nphases=0\nseeds=1\nduration_s=5\n")
        argv = ["suite", "--matrix", str(matrix), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("cannot write output: ")
    assert taken.read_text() == "a file\n"


def test_an_output_in_a_missing_directory_is_reported_not_raised(tmp_path, capsys):
    out = tmp_path / "results"
    main(["run", "--config-id", "static-1", "--duration-s", "10", "--out", str(out)])
    capsys.readouterr()
    missing = tmp_path / "missing" / "out.csv"
    for argv in (
        ["aggregate", "--in", str(out)],
        ["plot-data", "--in", str(out), "--kind", "scatter"],
        ["plot-data", "--in", str(out / "static-1" / "0" / "seed-1"), "--kind", "timeseries"],
    ):
        assert main([*argv, "--out", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(missing) in err
    assert not missing.parent.exists()


def test_unknown_subcommand_exits_with_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def readme_blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README, flags=re.DOTALL)


def test_readme_matrix_example_parses():
    (block,) = readme_blocks("ini")
    matrix = parse_matrix(block)
    assert len(matrix.config_ids) == 12 and matrix.duration_s == 1800.0
    assert matrix.phases == ("0", "pi4", "pi2", "pi") and matrix.seeds == (1, 2, 3)
    # The defaults README states for a matrix that lists only config ids.
    defaults = parse_matrix("static-1\n")
    assert (defaults.phases, defaults.seeds, defaults.duration_s) == (
        ("0", "pi4", "pi2", "pi"), (1, 2, 3), 300.0
    )


def test_the_golden_suite_matrix_is_the_readme_matrix():
    (block,) = readme_blocks("ini")
    golden = Path(__file__).resolve().parent / "golden" / "paper_matrix.cfg"
    assert golden.read_text(encoding="ascii") == block


def test_readme_post_processing_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config-id", "static-1", "--duration-s", "10",
                 "--out", "results/"]) == 0
    commands = [
        shlex.split(line, comments=True)
        for block in readme_blocks("sh")
        for line in block.splitlines()
        if line.startswith(("meshcache aggregate", "meshcache plot-data"))
    ]
    assert [argv[1] for argv in commands] == ["aggregate", "plot-data", "plot-data"]
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    result = json.loads(Path("results/static-1/0/seed-1/result.json").read_text())
    aggregated = json.loads(Path("metrics.json").read_text())["runs"]["static-1/0/seed-1"]
    assert aggregated["total_updates"] == result["total_updates"] > 0
