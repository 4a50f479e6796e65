"""Configuration defaults: one home per default, on the config dataclasses."""

from dataclasses import fields
from pathlib import Path

import pytest

from myerson_airnet.auction import ValuationDistribution
from myerson_airnet.config import SCHEMA, ExperimentConfig, build_config, read_config_file
from myerson_airnet.errors import InputError
from myerson_airnet.network import NetConfig
from myerson_airnet.sim import WorldConfig

SAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "experiment.cfg"


def test_build_config_defaults_are_the_dataclass_defaults():
    cfg = build_config()
    assert cfg.net == NetConfig()
    assert cfg.world == WorldConfig()
    assert cfg.world.distribution == ValuationDistribution()
    assert (cfg.cases, cfg.out) == (ExperimentConfig.cases, ExperimentConfig.out)


def test_sample_config_sets_every_key_to_its_default():
    assert set(read_config_file(SAMPLE_CONFIG)) == set(SCHEMA) - {"out"}
    assert build_config(SAMPLE_CONFIG) == build_config()


def test_every_key_fills_a_field():
    names = {f.name for cls in (NetConfig, WorldConfig, ExperimentConfig) for f in fields(cls)}
    names |= {"dist_" + f.name for f in fields(ValuationDistribution)}
    assert set(SCHEMA) <= names


def test_one_support_bound_keeps_the_other_default():
    default = ValuationDistribution()
    lower_only = build_config(overrides={"dist_lower": "0"})
    assert lower_only.world.distribution == ValuationDistribution(0.0, default.upper)
    upper_only = build_config(overrides={"dist_upper": "2"})
    assert upper_only.world.distribution == ValuationDistribution(default.lower, 2.0)


def test_checks_run_cases_first_then_distribution_net_world():
    bad = {"n_bidders": "1", "n_devices": "1"}
    with pytest.raises(InputError, match="cases must be at least 1"):
        build_config(overrides={**bad, "cases": "0", "dist_lower": "3"})
    with pytest.raises(InputError, match="need lower < upper"):
        build_config(overrides={**bad, "dist_lower": "3"})
    with pytest.raises(InputError, match="need at least two bidders"):
        build_config(overrides=bad)
    with pytest.raises(InputError, match="a market needs at least two devices"):
        build_config(overrides={"n_devices": "1"})
