"""Configuration keys: one declaration per key, on the config dataclasses."""

import re
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import pytest

from myerson_airnet.auction import ValuationDistribution
from myerson_airnet.cli import main
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
    with pytest.raises(InputError, match="n_bidders must be at least 2, got n_bidders = 1"):
        build_config(overrides=bad)
    with pytest.raises(InputError, match="n_devices must be at least 2, got n_devices = 1"):
        build_config(overrides={"n_devices": "1"})
    with pytest.raises(InputError, match="cases must be at least 1"):
        ExperimentConfig(NetConfig(), WorldConfig(), cases=0)  # built without build_config


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


# Each bounded key: a value just outside its bound, and nan for a float key, with the
# refusal written out in full.  Every single-key refusal reads
# "<key> must be <rule>[ and <rule>...], got <key> = <value!r>".
MAGNITUDE = "finite and at most 1e+100 in magnitude"
COORDINATE = "finite and at most 5.53402e+20 in magnitude"
REFUSALS = {
    "n_bidders": [(1, "n_bidders must be at least 2, got n_bidders = 1")],
    "dist_lower": [(-2e100, f"dist_lower must be {MAGNITUDE}, got dist_lower = -2e+100"),
                   (float("nan"), f"dist_lower must be {MAGNITUDE}, got dist_lower = nan")],
    "dist_upper": [(2e100, f"dist_upper must be {MAGNITUDE}, got dist_upper = 2e+100"),
                   (float("nan"), f"dist_upper must be {MAGNITUDE}, got dist_upper = nan")],
    "groups": [(0, "groups must be at least 1, got groups = 0")],
    "linear_units": [(0, "linear_units must be at least 1, got linear_units = 0")],
    "kappa": [(0.0, "kappa must be finite and greater than 0, got kappa = 0.0"),
              (float("nan"), "kappa must be finite and greater than 0, got kappa = nan")],
    "learning_rate": [
        (0.0, "learning_rate must be finite and greater than 0, got learning_rate = 0.0"),
        (float("nan"), "learning_rate must be finite and greater than 0, got learning_rate = nan"),
    ],
    "batch_size": [(0, "batch_size must be at least 1, got batch_size = 0")],
    "iterations": [(0, "iterations must be at least 1, got iterations = 0")],
    "convergence_tol": [
        (-5e-324, "convergence_tol must be finite and at least 0, got convergence_tol = -5e-324"),
        (float("nan"), "convergence_tol must be finite and at least 0, got convergence_tol = nan"),
        (float("inf"), "convergence_tol must be finite and at least 0, got convergence_tol = inf"),
    ],
    "seed": [(-1, "seed must be at least 0, got seed = -1")],
    "cases": [(0, "cases must be at least 1, got cases = 0")],
    "n_devices": [(1, "n_devices must be at least 2, got n_devices = 1")],
    "area_width": [
        (0.0, f"area_width must be {COORDINATE} and greater than 0, got area_width = 0.0"),
        (float("nan"), f"area_width must be {COORDINATE} and greater than 0, got area_width = nan"),
    ],
    "area_height": [
        (6e20, f"area_height must be {COORDINATE} and greater than 0, got area_height = 6e+20"),
        (float("nan"),
         f"area_height must be {COORDINATE} and greater than 0, got area_height = nan"),
    ],
    "image_rows": [(0, "image_rows must be at least 1, got image_rows = 0")],
    "image_cols": [(0, "image_cols must be at least 1, got image_cols = 0")],
    "pile_size": [(0, "pile_size must be at least 1, got pile_size = 0")],
    "battery": [(-5e-324, "battery must be finite and at least 0, got battery = -5e-324"),
                (float("nan"), "battery must be finite and at least 0, got battery = nan")],
    "uav_x": [(-6e20, f"uav_x must be {COORDINATE}, got uav_x = -6e+20"),
              (float("nan"), f"uav_x must be {COORDINATE}, got uav_x = nan")],
    "uav_y": [(6e20, f"uav_y must be {COORDINATE}, got uav_y = 6e+20"),
              (float("nan"), f"uav_y must be {COORDINATE}, got uav_y = nan")],
    "max_rounds": [(0, "max_rounds must be at least 1, got max_rounds = 0")],
    "similarity_aggregate": [("max", "similarity_aggregate must be one of 'mean', 'min', "
                                     "got similarity_aggregate = 'max'")],
    "valuation_rule": [("sum", "valuation_rule must be one of 'product', 'proximity', "
                               "got valuation_rule = 'sum'")],
}
UNBOUNDED = {"out"}


def build_with(key, value):
    """Build each dataclass that declares ``key`` directly, with ``value`` for it."""
    if key.startswith("dist_"):
        ValuationDistribution(**{key[len("dist_"):]: value})
    elif key == "cases":
        ExperimentConfig(NetConfig(), WorldConfig(), cases=value)
    for cls in (NetConfig, WorldConfig):
        if key in {f.name for f in fields(cls)}:
            cls(**{key: value})


def test_every_key_but_out_has_a_bound():
    assert set(REFUSALS) == set(SCHEMA) - UNBOUNDED


@pytest.mark.parametrize("key", sorted(set(SCHEMA) - UNBOUNDED))
def test_every_bounded_key_is_refused_in_one_form(tmp_path, capsys, key):
    for value, message in REFUSALS[key]:
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            build_with(key, value)
        out = tmp_path / "episode.csv"
        flag = "--" + key.replace("_", "-")
        assert main(["simulate", "--mechanism", "spa", flag, str(value), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()


def test_max_rounds_is_bounded_with_n_devices(tmp_path, capsys):
    """An episode holds every round's valuations until it writes them, so max_rounds is
    bounded jointly with n_devices, before any round runs."""
    message = ("an episode's held valuations must hold at most 33554432 values, "
               "got max_rounds * n_devices = 40000000")
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        WorldConfig(n_devices=200, max_rounds=200_000)
    WorldConfig(n_devices=200, max_rounds=2**25 // 200)
    out = tmp_path / "episode.csv"
    assert main(["simulate", "--mechanism", "spa", "--n-devices", "200", "--max-rounds",
                 "200000", "--out", str(out), "--events", str(tmp_path / "e.jsonl")]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not any(tmp_path.iterdir())
