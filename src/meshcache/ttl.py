"""Cache TTL estimation over per-key response-change histories.

Three interchangeable estimators produce a non-negative integer TTL in
seconds (0 means "do not cache"):

  static       TTL = beta, a fixed operator-chosen value.
  adaptive     TTL = (now - last_change) * alpha: the longer a response
               has gone unchanged, the longer it may be cached.
  update-risk  TTL = -(bud_k / k) * ln(1 - rho), where bud_k is the time
               since the k-th most recent observed change. rho in [0, 1)
               is the accepted risk of serving a response that has been
               updated meanwhile; k smooths the change-rate estimate over
               the last k changes (k=2 in practice).

Setting rho = 1 - e^(-alpha) with k = 1 makes update-risk coincide with
adaptive; a property test pins that equivalence.

Real-valued estimates are floored into whole seconds (never cache longer
than estimated) and clamped to an optional upper cap. Until an estimator
has the history it needs (one change for adaptive, k changes for
update-risk) it returns 0: unknown objects are not cached.

Each algorithm is one frozen record that carries everything its family
decides: ttl(), its rule; history_depth, the change timestamps that rule
needs kept; and parameter, its scalar knob (beta, alpha or rho) for the
suite's scatter.csv.

Everything here is pure: observe() returns a new history, and ttl() is a
function of (config, history, now, cap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import le
from typing import NamedTuple, Union

from .clock import ns_to_seconds

DEFAULT_MAX_TTL_CAP = 30


@dataclass(frozen=True)
class StaticTtl:
    """Fixed TTL of beta seconds; beta=0 disables caching entirely."""

    beta: int
    history_depth = 1

    def __post_init__(self) -> None:
        if self.beta < 0:
            raise ValueError("beta must be >= 0 seconds")

    @property
    def parameter(self) -> float:
        return float(self.beta)

    def ttl(self, history: ObservationHistory, now_ns: int, max_ttl_cap: int | None) -> int:
        """beta, regardless of history and of the cap."""
        return self.beta


@dataclass(frozen=True)
class AdaptiveTtl:
    """Linear acceptance of staleness relative to the age of the last change."""

    alpha: float
    history_depth = 1

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be > 0 and finite, got {self.alpha}")

    @property
    def parameter(self) -> float:
        return self.alpha

    def ttl(self, history: ObservationHistory, now_ns: int, max_ttl_cap: int | None) -> int:
        if not history.change_timestamps:
            return 0
        age_s = ns_to_seconds(now_ns - history.change_timestamps[-1])
        return _clamp(age_s * self.alpha, max_ttl_cap)


@dataclass(frozen=True)
class UpdateRiskTtl:
    """Accepted update risk rho in [0, 1) over a k-change history (default 2)."""

    rho: float
    k: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must be in [0, 1)")
        if self.k < 1:
            raise ValueError("k must be >= 1")

    @property
    def history_depth(self) -> int:
        return self.k

    @property
    def parameter(self) -> float:
        return self.rho

    def ttl(self, history: ObservationHistory, now_ns: int, max_ttl_cap: int | None) -> int:
        if len(history.change_timestamps) < self.k:
            return 0
        bud_s = ns_to_seconds(now_ns - history.change_timestamps[-self.k])
        return _clamp(-(bud_s / self.k) * math.log(1.0 - self.rho), max_ttl_cap)


AlgorithmConfig = Union[StaticTtl, AdaptiveTtl, UpdateRiskTtl]


class _HistoryFields(NamedTuple):
    history_depth: int
    last_digest: bytes | None = None
    change_timestamps: tuple[int, ...] = ()
    last_touched: int | None = None


class ObservationHistory(_HistoryFields):
    """Per-key record of the digests seen and when they changed.

    change_timestamps holds the instants (ns, non-decreasing) at which
    the response digest differed from the previous one, oldest first, at
    most history_depth entries. Two changes may share an instant: two
    responses with different digests can be observed in the same
    nanosecond, and observe() only refuses time that goes backwards. The
    first observation of a key counts as a change, which is what lets the
    estimators ever leave zero for objects that are never updated.

    A named tuple (immutable, equal to the plain tuple of its fields)
    whose constructor validates. _make, _replace and tuple.__new__ would
    skip the checks, so nothing builds one that way.
    """

    __slots__ = ()

    def __new__(
        cls,
        history_depth: int,
        last_digest: bytes | None = None,
        change_timestamps: tuple[int, ...] = (),
        last_touched: int | None = None,
    ) -> "ObservationHistory":
        if history_depth < 1:
            raise ValueError("history_depth must be >= 1")
        n_stamps = len(change_timestamps)
        if n_stamps > history_depth:
            raise ValueError("more change timestamps than history_depth allows")
        # 0 or 1 stamps are in order; only a longer run is scanned.
        if n_stamps > 1 and not all(map(le, change_timestamps, change_timestamps[1:])):
            raise ValueError("change_timestamps must be non-decreasing")
        if change_timestamps and last_digest is None:
            raise ValueError("recorded changes require a last_digest")
        return tuple.__new__(cls, (history_depth, last_digest, change_timestamps, last_touched))


def empty_history(history_depth: int) -> ObservationHistory:
    return ObservationHistory(history_depth)


def observe(history: ObservationHistory, now_ns: int, digest: bytes) -> ObservationHistory:
    """Fold one fresh-response observation into the history.

    A first observation, or a digest differing from the last one, records
    a change at now_ns (evicting the oldest entry beyond history_depth).
    An identical digest only refreshes last_touched.
    """
    depth, last_digest, stamps, _ = history
    if stamps and now_ns < stamps[-1]:
        raise ValueError(
            f"non-monotonic observation: {now_ns} precedes last change {stamps[-1]}"
        )
    if last_digest is not None and digest == last_digest:
        return ObservationHistory(depth, last_digest, stamps, now_ns)
    stamps = stamps + (now_ns,)
    if len(stamps) > depth:
        stamps = stamps[-depth:]
    return ObservationHistory(depth, digest, stamps, now_ns)


def _clamp(value: float, max_ttl_cap: int | None) -> int:
    # Capped before it is floored, so an estimate that overflowed to inf
    # still yields the cap.
    if max_ttl_cap is not None and value >= max_ttl_cap:
        return max_ttl_cap
    ttl = math.floor(value)
    return ttl if ttl > 0 else 0


def estimate(
    config: AlgorithmConfig,
    history: ObservationHistory,
    now_ns: int,
    max_ttl_cap: int | None = DEFAULT_MAX_TTL_CAP,
) -> int:
    """The TTL the config's own rule gives for this history at now_ns."""
    return config.ttl(history, now_ns, max_ttl_cap)
