"""Transparent inter-service caching sidecars with adaptive TTL estimation.

A cache sidecar answers repeated requests locally while entries are
fresh; an estimator sidecar forwards everything upstream and stamps each
response with a TTL derived from how often that response has been seen
to change. Both run over a small framed unary transport that executes
either on a deterministic virtual-time event loop or over real TCP, and
an experiment harness measures the staleness/traffic trade-off under a
sinusoidal single-value workload.

Every name below is loaded from its submodule on first use (PEP 562), so
a process imports only the modules it runs: a client or a sidecar never
loads the harness, the virtual-time scheduler, numpy or OpenSSL.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule the package exposes, with the names it exports.
_EXPORTS = {
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
        "DEFAULT_MAX_TTL_CAP AdaptiveTtl AlgorithmConfig ObservationHistory StaticTtl UpdateRiskTtl"
        " empty_history estimate observe"
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

# name -> the submodule that defines it; a submodule maps to itself.
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names.split())}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
