"""Named experiment configurations and flat-file config codecs.

Config IDs name an estimation algorithm plus its parameter, e.g.
"static-10", "adaptive-0.25", "updaterisk-0.90": every "<family>-<number>"
string parses the same way. CONFIG_IDS names the evaluation suite's
twelve ids in the order results are reported. A "dynamic-" prefix on the
adaptive/updaterisk families is accepted as an alias and normalized away.

Two flat text formats live here as well: the estimator sidecar's
key=value config file (written by the harness, read back when the
sidecar is built) and the suite matrix file (one config id per line,
plus optional phases=/seeds=/duration_s=/clock= lines).
"""

from __future__ import annotations

from dataclasses import dataclass

from .estimator import (
    DEFAULT_HOUSEKEEPING_AFTER_S,
    validate_blacklist,
    validate_housekeeping_after,
    validate_max_ttl_cap,
)
from .ttl import DEFAULT_MAX_TTL_CAP, AdaptiveTtl, AlgorithmConfig, StaticTtl, UpdateRiskTtl
from .workload import PHASE_SHIFTS, WorkloadConfig

CONFIG_IDS = (
    "static-0",
    "static-1",
    "static-10",
    "static-30",
    "adaptive-0.1",
    "adaptive-0.25",
    "adaptive-0.5",
    "updaterisk-0.1",
    "updaterisk-0.25",
    "updaterisk-0.5",
    "updaterisk-0.75",
    "updaterisk-0.90",
)

DEFAULT_SEEDS = (1, 2, 3)


def parse_config_id(config_id: str) -> tuple[str, AlgorithmConfig]:
    """Resolve an id to (canonical id, algorithm config).

    Raises ValueError for anything that names no known family or carries
    an unusable parameter.
    """
    name = config_id.strip()
    if name.startswith("dynamic-"):
        name = name[len("dynamic-") :]
    family, sep, param = name.partition("-")
    if not sep or not param:
        raise ValueError(f"config id {config_id!r} is not <family>-<parameter>")
    try:
        if family == "static":
            return name, StaticTtl(int(param))
        if family == "adaptive":
            return name, AdaptiveTtl(float(param))
        if family == "updaterisk":
            return name, UpdateRiskTtl(float(param))
    except ValueError as exc:
        raise ValueError(f"config id {config_id!r}: {exc}") from None
    raise ValueError(f"config id {config_id!r} names unknown family {family!r}")


def canonical_order(config_id: str) -> tuple[int, str]:
    """Sort key: the suite's ids in CONFIG_IDS order, then the rest by name."""
    canonical, _ = parse_config_id(config_id)
    if canonical in CONFIG_IDS:
        return CONFIG_IDS.index(canonical), canonical
    return len(CONFIG_IDS), canonical


def algorithm_parameter(algorithm: AlgorithmConfig) -> float:
    """The scalar knob of an algorithm (beta, alpha, or rho)."""
    if isinstance(algorithm, StaticTtl):
        return float(algorithm.beta)
    if isinstance(algorithm, AdaptiveTtl):
        return algorithm.alpha
    if isinstance(algorithm, UpdateRiskTtl):
        return algorithm.rho
    raise TypeError(f"unknown algorithm config {algorithm!r}")


@dataclass(frozen=True)
class EstimatorSettings:
    """Everything the estimator sidecar needs, round-trippable as text."""

    algorithm: AlgorithmConfig
    blacklist: tuple[str, ...] = ()
    housekeeping_after_s: float = DEFAULT_HOUSEKEEPING_AFTER_S
    max_ttl_cap: int | None = DEFAULT_MAX_TTL_CAP

    def __post_init__(self) -> None:
        object.__setattr__(self, "blacklist", validate_blacklist(self.blacklist))


def format_estimator_config(settings: EstimatorSettings) -> str:
    algo = settings.algorithm
    lines = []
    if isinstance(algo, StaticTtl):
        lines += ["algorithm=static", f"beta={algo.beta}"]
    elif isinstance(algo, AdaptiveTtl):
        lines += ["algorithm=adaptive", f"alpha={algo.alpha!r}"]
    elif isinstance(algo, UpdateRiskTtl):
        lines += ["algorithm=updaterisk", f"rho={algo.rho!r}", f"k={algo.k}"]
    else:
        raise TypeError(f"unknown algorithm config {algo!r}")
    lines.append("blacklist=" + ",".join(settings.blacklist))
    lines.append(f"housekeeping_after={settings.housekeeping_after_s!r}")
    cap = "none" if settings.max_ttl_cap is None else str(settings.max_ttl_cap)
    lines.append(f"max_ttl_cap={cap}")
    return "\n".join(lines) + "\n"


def parse_estimator_config(text: str) -> EstimatorSettings:
    values: dict[str, str] = {}
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line {i}: expected key=value, got {line!r}")
        values[key.strip()] = value.strip()

    def take(key: str) -> str:
        if key not in values:
            raise ValueError(f"missing key {key!r}")
        return values.pop(key)

    family = take("algorithm")
    if family == "static":
        algorithm: AlgorithmConfig = StaticTtl(int(take("beta")))
    elif family == "adaptive":
        algorithm = AdaptiveTtl(float(take("alpha")))
    elif family == "updaterisk":
        algorithm = UpdateRiskTtl(float(take("rho")), int(values.pop("k", "2")))
    else:
        raise ValueError(f"unknown algorithm {family!r}")
    raw_blacklist = values.pop("blacklist", "")
    blacklist = tuple(p.strip() for p in raw_blacklist.split(",") if p.strip())
    housekeeping = validate_housekeeping_after(
        float(values.pop("housekeeping_after", str(DEFAULT_HOUSEKEEPING_AFTER_S))),
        "housekeeping_after",
    )
    raw_cap = values.pop("max_ttl_cap", str(DEFAULT_MAX_TTL_CAP))
    try:
        cap = None if raw_cap.lower() == "none" else int(raw_cap)
    except ValueError:
        raise ValueError(
            f"max_ttl_cap must be a non-negative integer or none, got {raw_cap!r}"
        ) from None
    validate_max_ttl_cap(cap)
    if values:
        raise ValueError(f"unknown keys: {sorted(values)}")
    return EstimatorSettings(algorithm, blacklist, housekeeping, cap)


@dataclass(frozen=True)
class SuiteMatrix:
    """Parsed suite matrix: which configs to run against which knobs."""

    config_ids: tuple[str, ...]
    phases: tuple[str, ...] = tuple(PHASE_SHIFTS)
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    duration_s: float = 300.0
    clock: str = "virtual"

    def __post_init__(self) -> None:
        if not self.config_ids:
            raise ValueError("matrix lists no config ids")
        if self.clock not in ("virtual", "real"):
            raise ValueError(f"clock must be virtual or real, got {self.clock!r}")
        if not self.phases or not self.seeds:
            raise ValueError("matrix needs at least one phase and one seed")
        for phase in self.phases:  # the checks each run's workload makes
            for seed in self.seeds:
                WorkloadConfig(duration_s=self.duration_s, seed=seed, phase_tag=phase)


def parse_matrix(text: str) -> SuiteMatrix:
    config_ids: list[str] = []
    options: dict[str, str] = {}
    for i, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" in line:
            key, _, value = line.partition("=")
            options[key.strip()] = value.strip()
            continue
        canonical, _ = parse_config_id(line)  # validates; raises ValueError
        config_ids.append(canonical)
    kwargs: dict = {}
    if "phases" in options:
        kwargs["phases"] = tuple(p.strip() for p in options.pop("phases").split(",") if p.strip())
    if "seeds" in options:
        kwargs["seeds"] = tuple(int(s) for s in options.pop("seeds").split(",") if s.strip())
    if "duration_s" in options:
        kwargs["duration_s"] = float(options.pop("duration_s"))
    if "clock" in options:
        kwargs["clock"] = options.pop("clock")
    if options:
        raise ValueError(f"unknown matrix keys: {sorted(options)}")
    return SuiteMatrix(tuple(dict.fromkeys(config_ids)), **kwargs)
