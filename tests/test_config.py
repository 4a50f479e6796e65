"""Configuration defaults: one home per default, on the config dataclasses."""

from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import pytest

from myerson_airnet.auction import ValuationDistribution
from myerson_airnet.config import (SCHEMA, ExperimentConfig, _parse, build_config,
                                   read_config_file)
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


def test_a_none_override_keeps_the_default():
    assert build_config(overrides={"seed": None, "area_width": None}) == build_config()
    assert build_config(overrides={"seed": None, "iterations": "3"}) == build_config(
        overrides={"iterations": "3"})


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


FIELD_TYPES = {"dist_" + name: kind for name, kind in get_type_hints(ValuationDistribution).items()}
for cls in (NetConfig, WorldConfig, ExperimentConfig):
    FIELD_TYPES.update(get_type_hints(cls))


@pytest.mark.parametrize("key", list(SCHEMA))
def test_every_key_parses_as_its_fields_type(key):
    kind = FIELD_TYPES[key]
    if kind is int:
        with pytest.raises(InputError, match=f"^{key}: expected an integer, got '1.5'$"):
            build_config(overrides={key: "1.5"})
        assert type(_parse(key, "-7")) is int and _parse(key, "-7") == -7
    elif kind is float:
        assert type(_parse(key, "1e3")) is float and _parse(key, "1e3") == 1000.0
        with pytest.raises(InputError, match=f"^{key}: expected a number, got 'x'$"):
            build_config(overrides={key: "x"})
    else:
        assert _parse(key, " 1e3") == " 1e3"
