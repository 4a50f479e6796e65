"""Flat key=value experiment configuration.

A config file holds one ``key = value`` pair per line ('#' comments and
blank lines allowed).  CLI flags override file values, which override
the defaults.  :data:`SCHEMA` is :data:`RUN_SCHEMA`, the keys every
subcommand takes, followed by :data:`WORLD_SCHEMA`, the keys only
``simulate`` adds; that order is the ``--help`` order.

:data:`SCHEMA` only parses and explains the keys.  Defaults live on the
dataclass fields the keys fill by name (``NetConfig``, ``WorldConfig``,
``ExperimentConfig``); ``dist_lower``/``dist_upper`` fill the fields of
``ValuationDistribution``, the one place the default support is written.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .auction import ValuationDistribution
from .errors import InputError
from .network import NetConfig
from .sim import WorldConfig


def _parser(kind, noun: str):
    """Parse text with ``kind``, raising :class:`InputError` that names ``noun``."""
    def parse(text: str):
        try:
            return kind(text)
        except ValueError:
            raise InputError(f"expected {noun}, got {text!r}") from None
    return parse


_parse_int = _parser(int, "an integer")
_parse_float = _parser(float, "a number")


@dataclass(frozen=True)
class _Key:
    parse: object
    help: str


RUN_SCHEMA: dict[str, _Key] = {
    # market
    "n_bidders": _Key(_parse_int, "number of bidders / devices"),
    "dist_lower": _Key(_parse_float, "valuation support lower bound"),
    "dist_upper": _Key(_parse_float, "valuation support upper bound"),
    # network and training
    "groups": _Key(_parse_int, "max-min groups per bidder"),
    "linear_units": _Key(_parse_int, "affine pieces per group"),
    "kappa": _Key(_parse_float, "softmax temperature"),
    "learning_rate": _Key(_parse_float, "gradient-descent step size"),
    "batch_size": _Key(_parse_int, "training batch size"),
    "iterations": _Key(_parse_int, "training iterations"),
    "convergence_tol": _Key(_parse_float, "early-stop loss range over 20 iterations (0 disables)"),
    "seed": _Key(_parse_int, "master RNG seed"),
    # experiments
    "cases": _Key(_parse_int, "number of revenue-gap cases"),
    "out": _Key(str, "primary output path"),
}
WORLD_SCHEMA: dict[str, _Key] = {
    "n_devices": _Key(_parse_int, "devices in the simulated world"),
    "area_width": _Key(_parse_float, "world width in meters"),
    "area_height": _Key(_parse_float, "world height in meters"),
    "image_rows": _Key(_parse_int, "image height in pixels"),
    "image_cols": _Key(_parse_int, "image width in pixels"),
    "pile_size": _Key(_parse_int, "images per pile"),
    "battery": _Key(_parse_float, "battery budget in meters of flight"),
    "uav_x": _Key(_parse_float, "collector start x"),
    "uav_y": _Key(_parse_float, "collector start y"),
    "max_rounds": _Key(_parse_int, "episode round cap"),
    "similarity_aggregate": _Key(str, "pile similarity aggregation: mean or min"),
    "valuation_rule": _Key(str, "raw valuation rule: product or proximity"),
}
SCHEMA: dict[str, _Key] = {**RUN_SCHEMA, **WORLD_SCHEMA}


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed bundle the CLI commands run from; the market is ``world.distribution``."""

    net: NetConfig
    world: WorldConfig
    cases: int = 300
    out: str | None = None


def read_config_file(path) -> dict[str, str]:
    """Parse a flat key=value file into raw strings, validating the keys."""
    raw: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise InputError(f"{path} is not a text config file") from None
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc.strerror}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise InputError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA:
            raise InputError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise InputError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _fill(cls, values: dict, prefix: str = "", **built):
    """Build ``cls`` from the ``values`` named ``prefix`` + one of its field names."""
    given = {f.name: values[prefix + f.name] for f in fields(cls) if prefix + f.name in values}
    return cls(**given, **built)


def build_config(config_path=None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Merge an optional config file and CLI overrides over the field defaults."""
    values = {}
    if config_path is not None:
        for name, text in read_config_file(config_path).items():
            values[name] = SCHEMA[name].parse(text)
    for name, text in (overrides or {}).items():
        if name not in SCHEMA:
            raise InputError(f"unknown configuration key {name!r}")
        if text is not None:
            values[name] = SCHEMA[name].parse(text) if isinstance(text, str) else text

    if values.get("cases", ExperimentConfig.cases) < 1:
        raise InputError("cases must be at least 1")
    distribution = _fill(ValuationDistribution, values, prefix="dist_")
    net = _fill(NetConfig, values)
    world = _fill(WorldConfig, values, distribution=distribution)
    return _fill(ExperimentConfig, values, net=net, world=world)
