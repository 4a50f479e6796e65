"""Flat key=value experiment configuration.

A config file holds one ``key = value`` pair per line ('#' comments and
blank lines allowed).  CLI flags override file values, which override
the defaults.  :data:`SCHEMA` is :data:`RUN_SCHEMA`, the keys every
subcommand takes, followed by :data:`WORLD_SCHEMA`, the keys only
``simulate`` adds; that order is the ``--help`` order.

:data:`SCHEMA` only explains the keys.  Each key fills the dataclass
field of its name (``NetConfig``, ``WorldConfig``, ``ExperimentConfig``;
``dist_lower``/``dist_upper`` fill the fields of ``ValuationDistribution``,
the one place the default support is written), which holds its default,
and its text parses as that field's declared type: an ``int`` field takes
an integer, a ``float`` field a number, and any other field the text as
written.  A negative value may follow its flag (``--uav-y -1e3``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

from .auction import ValuationDistribution, _at_least, _bound_size, _read_fields
from .errors import InputError
from .network import NetConfig
from .sim import WorldConfig

RUN_SCHEMA: dict[str, str] = {
    # market
    "n_bidders": "number of bidders / devices",
    "dist_lower": "valuation support lower bound",
    "dist_upper": "valuation support upper bound",
    # network and training
    "groups": "max-min groups per bidder",
    "linear_units": "affine pieces per group",
    "kappa": "softmax temperature",
    "learning_rate": "gradient-descent step size",
    "batch_size": "training batch size",
    "iterations": "training iterations",
    "convergence_tol": "early-stop loss range over 20 iterations (0 disables)",
    "seed": "master RNG seed",
    # experiments
    "cases": "number of revenue-gap cases",
    "out": "primary output path",
}
WORLD_SCHEMA: dict[str, str] = {
    "n_devices": "devices in the simulated world",
    "area_width": "world width in meters",
    "area_height": "world height in meters",
    "image_rows": "image height in pixels",
    "image_cols": "image width in pixels",
    "pile_size": "images per pile",
    "battery": "battery budget in meters of flight",
    "uav_x": "collector start x",
    "uav_y": "collector start y",
    "max_rounds": "episode round cap",
    "similarity_aggregate": "pile similarity aggregation: mean or min",
    "valuation_rule": "raw valuation rule: product or proximity",
}
SCHEMA: dict[str, str] = {**RUN_SCHEMA, **WORLD_SCHEMA}


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed bundle the CLI commands run from; the market is ``world.distribution``."""

    net: NetConfig
    world: WorldConfig
    cases: int = 300
    out: str | None = None

    def __post_init__(self):
        _read_fields(self)
        _at_least(1, cases=self.cases)
        _bound_size(self.cases * self.net.n_bidders, "cases * n_bidders",
                    "the revenue-gap profiles")


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


# The declared type of the field each key fills; dist_lower fills the support's lower.
_TYPES = {prefix + name: kind
          for cls, prefix in ((ValuationDistribution, "dist_"), (NetConfig, ""),
                              (WorldConfig, ""), (ExperimentConfig, ""))
          for name, kind in get_type_hints(cls).items()}
_NOUNS = {int: "an integer", float: "a number"}


def _parse(name: str, text: str):
    """Parse one key's text as its field's type, naming the key on failure."""
    kind = _TYPES[name]
    if kind not in _NOUNS:
        return text
    try:
        return kind(text)
    except ValueError:
        raise InputError(f"{name}: expected {_NOUNS[kind]}, got {text!r}") from None


def build_config(config_path=None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Merge an optional config file and CLI override texts over the defaults; skip a ``None``."""
    values = {}
    if config_path is not None:
        for name, text in read_config_file(config_path).items():
            values[name] = _parse(name, text)
    for name, text in (overrides or {}).items():
        if name not in SCHEMA:
            raise InputError(f"unknown configuration key {name!r}")
        if text is not None:
            values[name] = _parse(name, text)

    _at_least(1, cases=values.get("cases", ExperimentConfig.cases))  # checked first
    distribution = _fill(ValuationDistribution, values, prefix="dist_")
    net = _fill(NetConfig, values)
    world = _fill(WorldConfig, values, distribution=distribution)
    return _fill(ExperimentConfig, values, net=net, world=world)
