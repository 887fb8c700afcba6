"""Transparent inter-service caching sidecars with adaptive TTL estimation.

A cache sidecar answers repeated requests locally while entries are
fresh; an estimator sidecar forwards everything upstream and stamps each
response with a TTL derived from how often that response has been seen
to change. Both run over a small framed unary transport that executes
either on a deterministic virtual-time event loop or over real TCP, and
an experiment harness measures the staleness/traffic trade-off under a
sinusoidal single-value workload.
"""

from .cache import Cache, CacheEntry, CacheStats, parse_max_age
from .clock import NS_PER_MS, NS_PER_S, Clock, SystemClock, VirtualClock
from .config import (
    CONFIG_IDS,
    SuiteMatrix,
    format_estimator_config,
    parse_config_id,
    parse_matrix,
)
from .effects import Call, DirectLink, Handler, Link, Sleep, TransportError, drive, invoke_handler
from .estimator import Estimator, blacklist_matches, housekeeping_loop, validate_blacklist
from .eventlog import EventLog, EventRow, parse_event_log, parse_event_row, split_kinds
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    RunMetrics,
    ScriptedOp,
    SuiteOutcome,
    WindowSeries,
    WindowStats,
    aggregate_logs,
    compute_windows,
    load_results,
    read_result,
    run_experiment,
    run_scripted_trace,
    run_suite,
    scatter_lines,
    write_result,
    write_scatter,
    write_timeseries,
)
from .sim import Simulation, Task, VirtualLink
from .tcp import ServerHandle, TcpLink, serve
from .ttl import (
    DEFAULT_MAX_TTL_CAP,
    AdaptiveTtl,
    AlgorithmConfig,
    ObservationHistory,
    StaticTtl,
    UpdateRiskTtl,
    empty_history,
    estimate,
    observe,
)
from .wire import (
    MAX_FRAME_LEN,
    BadTextError,
    DecodeError,
    EncodeError,
    Message,
    OversizeFrameError,
    TrailingBytesError,
    TruncatedFrameError,
    UnknownKindError,
    decode,
    encode,
)
from .workload import (
    PHASE_SHIFTS,
    QUERY_SINUSOID,
    UPDATE_SINUSOID,
    SinusoidConfig,
    StalenessLedger,
    ValueServer,
    WorkloadConfig,
    next_delay_ms,
    query_actor,
    rate_at,
    update_actor,
)

__version__ = "0.1.0"
