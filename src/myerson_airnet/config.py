"""Flat key=value experiment configuration.

A config file holds one ``key = value`` pair per line ('#' comments and
blank lines allowed).  CLI flags override file values, which override
the defaults.  A negative value may follow its flag (``--uav-y -1e3``).

Each key is declared once, by ``auction._key``, as the field of its name
in ``NetConfig``, ``WorldConfig`` or ``ExperimentConfig`` (``dist_lower``
and ``dist_upper`` are ``ValuationDistribution``'s), with its type,
default, ``--help`` text and single-key rules.  :data:`SCHEMA` maps each
key to its field: :data:`RUN_SCHEMA`, the keys every subcommand takes,
then those only ``simulate`` adds, in ``--help`` order.  A key's text
parses as its field's type: an integer, a number, or else the text.
"""

from __future__ import annotations

from dataclasses import Field, dataclass, fields
from pathlib import Path

from .auction import ValuationDistribution, _at_least, _bound_size, _key, _read_fields
from .errors import InputError
from .network import NetConfig
from .sim import WorldConfig


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed bundle the CLI commands run from; the market is ``world.distribution``."""

    net: NetConfig
    world: WorldConfig
    cases: int = _key(300, "number of revenue-gap cases", low=1)
    out: str | None = _key(None, "primary output path")

    def __post_init__(self):
        _read_fields(self)
        _bound_size(self.cases * self.net.n_bidders, "cases * n_bidders",
                    "the revenue-gap profiles")


def _keys(cls, prefix: str = "") -> dict[str, Field]:
    """The keys ``cls`` declares, ``prefix`` + field name, each mapped to its field."""
    return {prefix + f.name: f for f in fields(cls) if "help" in f.metadata}


_NET = _keys(NetConfig)
# The market first, then the rest of the net, then the experiment's own keys.
RUN_SCHEMA: dict[str, Field] = {"n_bidders": _NET["n_bidders"],
                                **_keys(ValuationDistribution, "dist_"), **_NET,
                                **_keys(ExperimentConfig)}
# The world's seed repeats the net's declaration and keeps its place.
SCHEMA: dict[str, Field] = {**RUN_SCHEMA, **_keys(WorldConfig)}


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


def _parse(name: str, text: str):
    """Parse one key's text as its field's type, naming the key on failure."""
    kind = SCHEMA[name].type
    if kind not in ("int", "float"):
        return text
    try:
        return int(text) if kind == "int" else float(text)
    except ValueError:
        noun = "an integer" if kind == "int" else "a number"
        raise InputError(f"{name}: expected {noun}, got {text!r}") from None


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
