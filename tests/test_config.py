"""Config ids, the estimator config text, and suite matrix parsing."""

import re

import pytest

from meshcache.clock import VirtualClock
from meshcache.config import (
    CONFIG_IDS,
    DEFAULT_SEEDS,
    SuiteMatrix,
    algorithm_parameter,
    canonical_order,
    format_estimator_config,
    parse_config_id,
    parse_matrix,
)
from meshcache.effects import DirectLink
from meshcache.estimator import Estimator
from meshcache.harness import ExperimentConfig
from meshcache.ttl import AdaptiveTtl, StaticTtl, UpdateRiskTtl
from meshcache.workload import ValueServer


# --- config ids ---


def test_the_twelve_predefined_ids():
    assert list(CONFIG_IDS) == [
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
    ]
    assert DEFAULT_SEEDS == (1, 2, 3)


# The algorithm each suite id stands for, written out independently of
# the parser.
SUITE_ALGORITHMS = {
    "static-0": StaticTtl(0),
    "static-1": StaticTtl(1),
    "static-10": StaticTtl(10),
    "static-30": StaticTtl(30),
    "adaptive-0.1": AdaptiveTtl(0.1),
    "adaptive-0.25": AdaptiveTtl(0.25),
    "adaptive-0.5": AdaptiveTtl(0.5),
    "updaterisk-0.1": UpdateRiskTtl(0.1),
    "updaterisk-0.25": UpdateRiskTtl(0.25),
    "updaterisk-0.5": UpdateRiskTtl(0.5),
    "updaterisk-0.75": UpdateRiskTtl(0.75),
    "updaterisk-0.90": UpdateRiskTtl(0.90, k=2),
}


@pytest.mark.parametrize("config_id", CONFIG_IDS)
def test_parse_predefined_ids(config_id):
    assert parse_config_id(config_id) == (config_id, SUITE_ALGORITHMS[config_id])


def test_dynamic_prefix_is_normalized_away():
    assert parse_config_id("dynamic-adaptive-0.5") == ("adaptive-0.5", AdaptiveTtl(0.5))
    assert parse_config_id("dynamic-updaterisk-0.1")[0] == "updaterisk-0.1"


def test_generic_family_parameter_ids_parse():
    assert parse_config_id("static-42") == ("static-42", StaticTtl(42))
    assert parse_config_id("adaptive-1.25") == ("adaptive-1.25", AdaptiveTtl(1.25))
    assert parse_config_id("adaptive-2") == ("adaptive-2", AdaptiveTtl(2.0))
    assert parse_config_id("updaterisk-0.33") == ("updaterisk-0.33", UpdateRiskTtl(0.33))


@pytest.mark.parametrize(
    "bad",
    [
        "", "static", "static-", "nosuch-1", "adaptive-zero", "static--3", "adaptive-0",
        "adaptive-inf", "adaptive-nan",
        # Only plain ASCII decimals: no other spelling of a number may run
        # under a second name, or under a name that is not ASCII.
        "static-\u0663", "adaptive-0.\u0665", "updaterisk-\uff10.5", "static-1_0",
        "adaptive-1e-1", "updaterisk-5e-1", "static-+1", "adaptive-+0.5", "static-1.0",
        "adaptive-.5", "adaptive-0.", "static- 1", "adaptive-0x1",
    ],
)
def test_unusable_ids_raise(bad):
    with pytest.raises(ValueError, match=re.escape(repr(bad))):
        parse_config_id(bad)


def test_canonical_order_matches_the_table_then_names():
    ids = ["updaterisk-0.5", "static-1", "adaptive-0.1", "static-0"]
    assert sorted(ids, key=canonical_order) == [
        "static-0",
        "static-1",
        "adaptive-0.1",
        "updaterisk-0.5",
    ]
    # Unlisted ids sort after the table, by name.
    assert canonical_order("adaptive-9.9") > canonical_order("updaterisk-0.90")


def test_algorithm_parameter_extracts_the_knob():
    assert algorithm_parameter(StaticTtl(30)) == 30.0
    assert algorithm_parameter(AdaptiveTtl(0.25)) == 0.25
    assert algorithm_parameter(UpdateRiskTtl(0.75)) == 0.75


# --- estimator config text ---


def read_settings(text):
    """An estimator.cfg text's key=value lines, as a dict."""
    return dict(line.split("=", 1) for line in text.splitlines())


def test_estimator_config_roundtrip_static():
    text = format_estimator_config(StaticTtl(10), (), 300.0, 30)
    assert text == "algorithm=static\nbeta=10\nblacklist=\nhousekeeping_after=300.0\nmax_ttl_cap=30\n"


def test_estimator_config_roundtrip_adaptive_preserves_float_exactly():
    values = read_settings(format_estimator_config(AdaptiveTtl(0.1), (), 300.0, None))
    assert float(values["alpha"]) == 0.1  # written as its repr: no drift
    assert values["max_ttl_cap"] == "none"


def test_estimator_config_roundtrip_update_risk_with_blacklist():
    text = format_estimator_config(UpdateRiskTtl(0.5, k=3), ("SetValue", "Admin*"), 120.0, 15)
    assert read_settings(text) == {
        "algorithm": "updaterisk",
        "rho": "0.5",
        "k": "3",
        "blacklist": "SetValue,Admin*",
        "housekeeping_after": "120.0",
        "max_ttl_cap": "15",
    }


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-5", "1e300"])
def test_estimator_config_refuses_a_bad_housekeeping_window(value):
    # The run's config holds the estimator's settings and checks them
    # before anything is built.
    with pytest.raises(ValueError, match="housekeeping_after_s must be positive and finite"):
        ExperimentConfig("static-1", housekeeping_after_s=float(value))


@pytest.mark.parametrize("value", [-1, 1.5, "ten", ""])
def test_estimator_config_refuses_a_bad_ttl_cap_by_name(value):
    with pytest.raises(ValueError, match="max_ttl_cap must be a non-negative integer"):
        ExperimentConfig("adaptive-0.5", max_ttl_cap=value)


def test_settings_validate_blacklist_up_front():
    clock = VirtualClock()
    upstream = DirectLink(ValueServer().handle, clock)
    with pytest.raises(ValueError, match="trailing wildcard"):
        Estimator(StaticTtl(1), upstream, clock, blacklist=("mid*dle",))


# --- suite matrix ---


def test_matrix_defaults():
    matrix = parse_matrix("static-1\nadaptive-0.5\n")
    assert matrix.config_ids == ("static-1", "adaptive-0.5")
    assert matrix.phases == ("0", "pi4", "pi2", "pi")
    assert matrix.seeds == (1, 2, 3)
    assert matrix.duration_s == 300.0
    assert matrix.clock == "virtual"


def test_matrix_options_and_dedup():
    text = (
        "# suite\nstatic-1\ndynamic-adaptive-0.5\nadaptive-0.5\n"
        "phases=0,pi\nseeds=7,8\nduration_s=60\nclock=virtual\n"
    )
    matrix = parse_matrix(text)
    assert matrix.config_ids == ("static-1", "adaptive-0.5")  # deduped, normalized
    assert matrix.phases == ("0", "pi")
    assert matrix.seeds == (7, 8)
    assert matrix.duration_s == 60.0


def test_matrix_runs_each_phase_and_seed_once():
    matrix = parse_matrix("static-1\nstatic-1\nphases=0,pi,0\nseeds=1,2,1,01\n")
    assert matrix.config_ids == ("static-1",)
    assert matrix.phases == ("0", "pi")
    assert matrix.seeds == (1, 2)


@pytest.mark.parametrize(
    "line, key",
    [("seeds=x", "seeds"), ("seeds=1,2.5", "seeds"), ("duration_s=long", "duration_s")],
)
def test_matrix_names_the_key_of_a_value_that_is_not_a_number(line, key):
    with pytest.raises(ValueError, match=f"^{key}: '[^']+' is not an? (integer|number)$"):
        parse_matrix(f"static-1\n{line}\n")


@pytest.mark.parametrize(
    "text",
    [
        "",  # no ids at all
        "nosuch-1\n",
        "static-1\nphases=quarter\n",
        "static-1\nclock=cuckoo\n",
        "static-1\nbogus=1\n",
    ],
)
def test_matrix_rejects_bad_text(text):
    with pytest.raises(ValueError):
        parse_matrix(text)
