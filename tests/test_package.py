"""The package namespace: every public name, loaded from its submodule on first use."""

from importlib import import_module

import pytest

import meshcache

# Every name `meshcache` exports, by the submodule that defines it.
EXPORTED = {
    "cache": "Cache CacheEntry CacheStats parse_max_age",
    "clock": "NS_PER_MS NS_PER_S Clock SystemClock VirtualClock",
    "config": "CONFIG_IDS SuiteMatrix parse_config_id parse_matrix",
    "digests": "",
    "effects": "Call DirectLink Handler Link Sleep TransportError drive invoke_handler",
    "estimator": "Estimator validate_blacklist",
    "eventlog": "EventLog EventRow parse_event_log parse_event_row",
    "harness": (
        "ExperimentConfig ExperimentResult RunMetrics ScriptedOp SuiteOutcome WindowSeries"
        " WindowStats aggregate_logs compute_windows load_results read_result run_experiment"
        " run_scripted_trace run_suite scatter_lines write_result write_scatter write_timeseries"
    ),
    "sim": "Simulation Task VirtualLink",
    "tcp": "ServerHandle TcpLink serve",
    "ttl": (
        "DEFAULT_MAX_TTL_CAP AdaptiveTtl AlgorithmConfig ObservationHistory StaticTtl"
        " UpdateRiskTtl empty_history estimate observe"
    ),
    "wire": (
        "MAX_FRAME_LEN BadTextError DecodeError EncodeError Message OversizeFrameError"
        " TrailingBytesError TruncatedFrameError UnknownKindError decode encode"
    ),
    "workload": (
        "PHASE_SHIFTS QUERY_SINUSOID UPDATE_SINUSOID SinusoidConfig StalenessLedger ValueServer"
        " WorkloadConfig next_delay_ms query_actor rate_at update_actor"
    ),
}
NAMES = {name: module for module, names in EXPORTED.items() for name in names.split()}
PUBLIC = set(NAMES) | set(EXPORTED)


def test_each_name_is_its_submodules_own_object():
    assert meshcache.__version__ == "0.1.0"
    modules = {module: import_module(f"meshcache.{module}") for module in EXPORTED}
    wrong = [n for n, m in NAMES.items() if getattr(meshcache, n) is not getattr(modules[m], n)]
    wrong += [m for m in EXPORTED if getattr(meshcache, m) is not modules[m]]
    assert wrong == []


def test_all_is_the_sorted_public_names():
    assert meshcache.__all__ == sorted(PUBLIC)


def test_dir_and_star_import_list_every_public_name():
    assert PUBLIC <= set(dir(meshcache))
    namespace: dict = {}
    exec("from meshcache import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        meshcache.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from meshcache import no_such_name", {})
