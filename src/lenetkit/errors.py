"""Exception types shared across the engine, and the one path that reads files.

Shape and label errors are raised loudly instead of relying on implicit
broadcasting or silent clipping: the architecture is small and fixed, so
any mismatch is a caller bug.

Each type carries the CLI's exit code for it: 1 by default, 2 for a
``DataError`` (bad input data or a failed artifact write), 3 for divergence.
Every file the engine reads goes through ``read_input`` or ``read_json``,
which raise the caller's error type for any read fault.
"""

import json
from pathlib import Path


class EngineError(Exception):
    """Base class for every error raised by this package."""
    exit_code = 1


class DataError(EngineError):
    """Input data or an artifact on disk is missing, unreadable or malformed."""
    exit_code = 2


class InvalidShape(EngineError):
    """Tensor shapes do not satisfy an operation's contract."""


class InvalidLabel(EngineError):
    """A class label is outside [0, num_classes)."""


class InvalidConfig(EngineError):
    """A configuration value violates its documented range."""


class InvalidState(EngineError):
    """A backward was called with a missing trace or another model's trace."""


class InvalidPartition(EngineError):
    """A positive-class set for binarization is empty or covers all classes."""


class EmptyDataset(DataError):
    """A training or evaluation set contains no samples."""


class DivergenceDetected(EngineError):
    """Training produced a non-finite loss.

    Carries the epoch records completed so far so callers can persist the
    last good state.
    """
    exit_code = 3

    def __init__(self, message, records=None):
        super().__init__(message)
        self.records = records if records is not None else []


class DatasetNotFound(DataError):
    """The dataset root or split directory does not exist or cannot be listed."""


class ImageDecodeError(DataError):
    """An image file could not be decoded."""


class IoError(DataError):
    """A filesystem write failed."""


class CorruptCheckpoint(DataError):
    """Checkpoint bytes fail magic, CRC, or structural validation."""


class UnsupportedVersion(DataError):
    """Checkpoint format version is not supported by this build."""


class CurvesFormatError(DataError):
    """A training-curve CSV does not match the expected layout."""


def read_input(path: str | Path, error: type[EngineError]) -> bytes:
    """The bytes of ``path``, as read; an ``OSError`` raises ``error``."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def _reject_constant(name: str):
    """Python's parser accepts ``NaN`` and ``Infinity``; RFC 8259 JSON does not."""
    raise ValueError(f"{name} is not a JSON number")


def read_json(path: str | Path, error: type[EngineError]) -> dict:
    """The JSON object in the UTF-8 file ``path``; any other content raises ``error``."""
    try:  # ValueError covers bad UTF-8, bad JSON, NaN and an int too long to parse
        value = json.loads(read_input(path, error).decode("utf-8"),
                           parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:
        raise error(f"{path} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise error(f"{path} does not hold a JSON object")
    return value
