"""Config ids, the estimator config codec, and suite matrix parsing."""

import pytest

from meshcache.config import (
    CONFIG_IDS,
    DEFAULT_SEEDS,
    EstimatorSettings,
    SuiteMatrix,
    algorithm_parameter,
    canonical_order,
    format_estimator_config,
    parse_config_id,
    parse_estimator_config,
    parse_matrix,
)
from meshcache.ttl import AdaptiveTtl, StaticTtl, UpdateRiskTtl


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
    assert parse_config_id("updaterisk-0.33") == ("updaterisk-0.33", UpdateRiskTtl(0.33))


@pytest.mark.parametrize(
    "bad",
    [
        "", "static", "static-", "nosuch-1", "adaptive-zero", "static--3", "adaptive-0",
        "adaptive-inf", "adaptive-nan",
    ],
)
def test_unusable_ids_raise(bad):
    with pytest.raises(ValueError):
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


# --- estimator config codec ---


def test_estimator_config_roundtrip_static():
    settings = EstimatorSettings(StaticTtl(10))
    text = format_estimator_config(settings)
    assert "algorithm=static" in text and "beta=10" in text
    assert parse_estimator_config(text) == settings


def test_estimator_config_roundtrip_adaptive_preserves_float_exactly():
    settings = EstimatorSettings(AdaptiveTtl(0.1), max_ttl_cap=None)
    parsed = parse_estimator_config(format_estimator_config(settings))
    assert parsed.algorithm.alpha == 0.1  # repr round-trip, no drift
    assert parsed.max_ttl_cap is None


def test_estimator_config_roundtrip_update_risk_with_blacklist():
    settings = EstimatorSettings(
        UpdateRiskTtl(0.5, k=3),
        blacklist=("SetValue", "Admin*"),
        housekeeping_after_s=120.0,
        max_ttl_cap=15,
    )
    assert parse_estimator_config(format_estimator_config(settings)) == settings


def test_estimator_config_accepts_comments_and_defaults():
    text = "# sidecar settings\nalgorithm=updaterisk\nrho=0.5\n"
    settings = parse_estimator_config(text)
    assert settings.algorithm == UpdateRiskTtl(0.5, k=2)  # k defaulted
    assert settings.blacklist == ()
    assert settings.max_ttl_cap == 30


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("algorithm=magic\n", "unknown algorithm"),
        ("rho=0.5\n", "missing key"),
        ("algorithm=adaptive\nalpha=0.5\nwhat=ever\n", "unknown keys"),
        ("algorithm adaptive\n", "key=value"),
    ],
)
def test_estimator_config_rejects_bad_text(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_estimator_config(text)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-5", "1e300"])
def test_estimator_config_refuses_a_bad_housekeeping_window(value):
    text = f"algorithm=static\nbeta=1\nhousekeeping_after={value}\n"
    with pytest.raises(ValueError, match="housekeeping_after must be positive and finite"):
        parse_estimator_config(text)


@pytest.mark.parametrize("value", ["-1", "1.5", "ten", ""])
def test_estimator_config_refuses_a_bad_ttl_cap_by_name(value):
    text = f"algorithm=adaptive\nalpha=0.5\nmax_ttl_cap={value}\n"
    with pytest.raises(ValueError, match="max_ttl_cap must be a non-negative integer"):
        parse_estimator_config(text)


@pytest.mark.parametrize("value, cap", [("0", 0), ("none", None), ("None", None)])
def test_estimator_config_keeps_a_zero_or_absent_ttl_cap(value, cap):
    text = f"algorithm=adaptive\nalpha=0.5\nmax_ttl_cap={value}\n"
    assert parse_estimator_config(text).max_ttl_cap == cap


def test_settings_validate_blacklist_up_front():
    with pytest.raises(ValueError):
        EstimatorSettings(StaticTtl(1), blacklist=("mid*dle",))


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
