"""Versioned text checkpoints for monotone-net parameters.

Layout (UTF-8, line oriented, also described in the README):

    myerson-airnet checkpoint v1
    n_bidders <int>
    groups <int>
    linear_units <int>
    kappa <float>
    theta
    <n_bidders lines, each groups*linear_units floats, row-major over (group, unit)>
    beta
    <n_bidders lines, same layout>

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, so save/load is bitwise faithful.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import CheckpointError, CheckpointVersionError, InputError, writing
from .network import MonotoneNetParams

FORMAT_MAGIC = "myerson-airnet checkpoint"
FORMAT_VERSION = 1
# The header's dimension lines, in file order; each names a params property.
_DIMENSIONS = ("n_bidders", "groups", "linear_units")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_params(params: MonotoneNetParams, path) -> None:
    lines = [f"{FORMAT_MAGIC} v{FORMAT_VERSION}"]
    lines += [f"{name} {getattr(params, name)}" for name in _DIMENSIONS]
    lines.append(f"kappa {_fmt(params.kappa)}")
    for name, array in (("theta", params.theta), ("beta", params.beta)):
        lines.append(name)
        for bidder in range(params.n_bidders):
            lines.append(" ".join(_fmt(x) for x in array[bidder].ravel()))
    with writing(path) as handle:
        handle.write("\n".join(lines) + "\n")


def _line(lines, what: str) -> str:
    """The next line; a checkpoint that ends before it is truncated."""
    line = next(lines, None)
    if line is None:
        raise CheckpointError(f"truncated checkpoint: missing {what}")
    return line


def _field(lines, name: str) -> str:
    """The value text of the next line, which must read ``name value``."""
    line = _line(lines, name)
    key, _, value = line.partition(" ")
    if key != name:
        raise CheckpointError(f"expected {name!r} line, found {line!r}")
    return value


def _parsed(parse, text: str, name: str):
    try:
        return parse(text)
    except ValueError:
        raise CheckpointError(f"bad {name} value {text!r}") from None


def load_params(path) -> MonotoneNetParams:
    """Parse a checkpoint."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"{path} is not a text checkpoint") from None
    except OSError as exc:
        raise InputError(f"cannot read checkpoint {path}: {exc.strerror}") from None
    lines = iter(text.splitlines())

    header = _line(lines, "header")
    if not header.startswith(FORMAT_MAGIC + " "):
        raise CheckpointError(f"{path} is not a {FORMAT_MAGIC} file")
    version_token = header[len(FORMAT_MAGIC) + 1:].strip()
    if not version_token.startswith("v"):
        raise CheckpointError(f"malformed version token {version_token!r}")
    version = _parsed(int, version_token[1:], "version")
    if version != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint version {version} unsupported (expected {FORMAT_VERSION})")

    dims = []
    for name in _DIMENSIONS:
        dims.append(_parsed(int, _field(lines, name).strip(), name))
        if dims[-1] < 1:
            raise CheckpointError(f"{name} must be positive, got {dims[-1]}")
    kappa = _parsed(float, _field(lines, "kappa"), "kappa")

    n, k, j = dims
    arrays = {}
    for name in ("theta", "beta"):
        marker = _line(lines, f"{name} marker")
        if marker.strip() != name:
            raise CheckpointError(f"expected {name!r} marker, found {marker!r}")
        rows = []
        for bidder in range(n):
            line = _line(lines, f"{name} row {bidder}")
            try:
                row = np.array([float(tok) for tok in line.split()], dtype=float)
            except ValueError:
                raise CheckpointError(f"non-numeric {name} row {bidder}") from None
            if row.size != k * j:
                raise CheckpointError(
                    f"{name} row {bidder} has {row.size} values, expected {k * j}")
            rows.append(row.reshape(k, j))
        arrays[name] = np.stack(rows)

    if any(line.strip() for line in lines):
        raise CheckpointError("trailing content after beta rows")

    return MonotoneNetParams(arrays["theta"], arrays["beta"], kappa)
