"""Exception types shared across the library, and the config-field checks that raise them."""

import numbers
import sys
from dataclasses import fields, is_dataclass

import numpy as np


class CapsrouteError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(CapsrouteError, ValueError):
    """Array shapes or axes are incompatible with the requested operation."""


class ContractError(CapsrouteError, ValueError):
    """An API precondition was violated (non-scalar loss, malformed targets, ...)."""


class ConfigurationError(CapsrouteError, ValueError):
    """A configuration value is invalid or produces an impossible architecture."""


class UndefinedMetricError(CapsrouteError, ValueError):
    """The requested metric has no defined value on this input."""


class DataFormatError(CapsrouteError, ValueError):
    """A serialized dataset is malformed. Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class StratificationError(CapsrouteError, ValueError):
    """A stratified split would leave a non-empty subset without positives."""


class TrainingAborted(CapsrouteError, RuntimeError):
    """Optimization hit a non-recoverable state, e.g. a non-finite gradient."""


def _entries(value) -> tuple:
    return value if isinstance(value, tuple) else (value,)


def check_integer(key: str, value, minimum: int) -> None:
    """Reject ``value``, naming ``key``, unless it (or each entry of a tuple) is an
    integer >= ``minimum``. numpy integers pass; a bool does not, nor a float, even 2.0."""
    if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in _entries(value)):
        what = "integers" if isinstance(value, tuple) else "an integer"
        raise ConfigurationError(f"{key} must be {what}, got {value!r}")
    if any(v < minimum for v in _entries(value)):
        raise ConfigurationError(f"{key} must be >= {minimum}, got {value}")


def check_finite(key: str, value) -> None:
    """Reject ``value``, naming ``key``, unless it (or each entry of a tuple) is a finite
    real number. numpy numbers pass; a bool or a string does not."""
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in _entries(value)):
        what = "real numbers" if isinstance(value, tuple) else "a real number"
        raise ConfigurationError(f"{key} must be {what}, got {value!r}")
    if not all(abs(v) <= sys.float_info.max for v in _entries(value)):  # NaN compares False
        raise ConfigurationError(f"{key} must be finite, got {value!r}")


def key_of(config, name: str) -> str:
    """What errors call a config dataclass's field: its ``key`` metadata, or else its name."""
    return config.__dataclass_fields__[name].metadata.get("key") or name


def check_fields(config) -> None:
    """Check each field of a config dataclass by its default, naming it by ``key_of``: the
    default's tuple length or one value; entries that are bools, integers >= the ``min``
    metadata (1 unless stated) or finite reals, as the default's are; a string among the
    ``choices`` metadata; an instance of the class of a config-dataclass default factory."""
    for f in fields(config):
        key, value, default = key_of(config, f.name), getattr(config, f.name), f.default
        arity = [len(v) if isinstance(v, tuple) else None for v in (value, default)]
        kind = type(_entries(default)[0])  # dataclasses.MISSING's type for a default factory
        if is_dataclass(f.default_factory) and not isinstance(value, f.default_factory):
            raise ConfigurationError(f"{key} must be a {f.default_factory.__name__}, got {value!r}")
        if arity[0] != arity[1]:
            count = f"{arity[1]} values" if arity[1] else "a single value"
            raise ConfigurationError(f"{key} expects {count}, got {value!r}")
        if kind is bool and not isinstance(value, (bool, np.bool_)):
            raise ConfigurationError(f"{key} must be a bool, got {value!r}")
        if kind is str and not (isinstance(value, str) and value in f.metadata["choices"]):
            raise ConfigurationError(f"unknown {key}: {value!r}")
        if kind is int:
            check_integer(key, value, f.metadata.get("min", 1))
        if kind is float:
            check_finite(key, value)
