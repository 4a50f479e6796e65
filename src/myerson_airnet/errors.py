"""Exception types shared across the package, and the one way it opens an output.

``InputError`` and its subclasses mark bad arguments, files, or
configuration (CLI exit code 2); the ``RuntimeError`` subclasses mark
failures of an otherwise well-formed run (CLI exit code 3), as does an
``OSError``, which names the file it failed on (see :func:`writing`).
"""

import os
from contextlib import contextmanager


@contextmanager
def writing(path, newline=None):
    """``open(path, "w")`` as UTF-8 text.  An ``OSError`` raised with no filename, as a
    failed ``write`` or ``close`` is, gets ``path`` as its filename, so it names the file."""
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as handle:
            yield handle
    except OSError as exc:
        if exc.filename is None:
            exc.filename = os.fspath(path)
        raise


class InputError(ValueError):
    """Invalid argument or configuration value."""


class DomainError(InputError):
    """Value lies outside the mathematical domain of an operation."""


class DegenerateProfileError(InputError):
    """Raw valuation vector has zero spread and cannot be normalized."""


class CheckpointError(InputError):
    """Checkpoint file is malformed."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint was written by an unsupported format version."""


class CheckpointShapeError(CheckpointError):
    """Checkpoint covers a different number of bidders than the market to clear."""


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss or non-finite parameters."""


class EpisodeExhaustedError(RuntimeError):
    """Simulation was stepped with an empty battery."""
