"""Named experiment configurations and the suite matrix format.

Config IDs name an estimation algorithm plus its parameter, e.g.
"static-10", "adaptive-0.25", "updaterisk-0.90": every "<family>-<number>"
string parses the same way. The number is a plain ASCII decimal, digits
for static and digits with an optional ".digits" fraction for the other
families. An id is its own name: the run directory and the result carry
it as written. Leading and trailing zeros still spell one algorithm two
ways ("static-7", "static-07"); a suite runs each algorithm once, under
the first spelling it lists. CONFIG_IDS names the evaluation suite's
twelve ids in the order results are reported.

The suite matrix file lives here as well: one config id per line, plus
optional phases=/seeds=/duration_s= lines.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass

from .ttl import AdaptiveTtl, AlgorithmConfig, StaticTtl, UpdateRiskTtl
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


# Each family's parameter grammar and the algorithm its text stands for.
_DECIMAL = re.compile(r"[0-9]+(?:\.[0-9]+)?")
_FAMILIES: dict[str, tuple[re.Pattern[str], Callable[[str], AlgorithmConfig]]] = {
    "static": (re.compile(r"[0-9]+"), lambda p: StaticTtl(int(p))),
    "adaptive": (_DECIMAL, lambda p: AdaptiveTtl(float(p))),
    "updaterisk": (_DECIMAL, lambda p: UpdateRiskTtl(float(p))),
}


def parse_config_id(config_id: str) -> tuple[str, AlgorithmConfig]:
    """Resolve an id to (the id, algorithm config).

    Raises ValueError for anything that names no known family or carries
    an unusable parameter.
    """
    family, sep, param = config_id.partition("-")
    if not sep or not param:
        raise ValueError(f"config id {config_id!r} is not <family>-<parameter>")
    if family not in _FAMILIES:
        raise ValueError(f"config id {config_id!r} names unknown family {family!r}")
    grammar, build = _FAMILIES[family]
    if not grammar.fullmatch(param):
        raise ValueError(f"config id {config_id!r}: {param!r} is not a plain ASCII decimal")
    try:
        return config_id, build(param)
    except ValueError as exc:
        raise ValueError(f"config id {config_id!r}: {exc}") from None


def canonical_order(config_id: str) -> tuple[int, str]:
    """Sort key: the suite's ids in CONFIG_IDS order, then the rest by name."""
    if config_id in CONFIG_IDS:
        return CONFIG_IDS.index(config_id), config_id
    return len(CONFIG_IDS), config_id


@dataclass(frozen=True)
class SuiteMatrix:
    """Parsed suite matrix: which configs to run against which knobs."""

    config_ids: tuple[str, ...]
    phases: tuple[str, ...] = tuple(PHASE_SHIFTS)
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    duration_s: float = 300.0

    def __post_init__(self) -> None:
        if not self.config_ids:
            raise ValueError("matrix lists no config ids")
        if not self.phases or not self.seeds:
            raise ValueError("matrix needs at least one phase and one seed")
        for phase in self.phases:  # the checks each run's workload makes
            for seed in self.seeds:
                WorkloadConfig(duration_s=self.duration_s, seed=seed, phase_tag=phase)


def _number(key: str, convert: Callable[[str], float], text: str) -> float:
    try:
        return convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise ValueError(f"{key}: {text.strip()!r} is not {kind}") from None


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
        parse_config_id(line)  # validates; raises ValueError
        config_ids.append(line)
    kwargs: dict = {}
    # Each phase and seed runs once, however often the file lists it.
    if "phases" in options:
        phases = (p.strip() for p in options.pop("phases").split(","))
        kwargs["phases"] = tuple(dict.fromkeys(p for p in phases if p))
    if "seeds" in options:
        seeds = (s for s in options.pop("seeds").split(",") if s.strip())
        kwargs["seeds"] = tuple(dict.fromkeys(_number("seeds", int, s) for s in seeds))
    if "duration_s" in options:
        kwargs["duration_s"] = _number("duration_s", float, options.pop("duration_s"))
    if options:
        raise ValueError(f"unknown matrix keys: {sorted(options)}")
    return SuiteMatrix(tuple(dict.fromkeys(config_ids)), **kwargs)
