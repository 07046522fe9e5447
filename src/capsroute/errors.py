"""Exception types shared across the library, and the config-field checks that raise them."""

import numbers

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


def check_integer(key: str, value, minimum: int) -> None:
    """Reject ``value``, naming ``key``, unless it (or each entry of a tuple) is an
    integer >= ``minimum``. numpy integers pass; a float does not, even 2.0."""
    if not all(isinstance(v, numbers.Integral) for v in np.ravel(value)):
        what = "integers" if isinstance(value, tuple) else "an integer"
        raise ConfigurationError(f"{key} must be {what}, got {value!r}")
    if np.min(value) < minimum:
        raise ConfigurationError(f"{key} must be >= {minimum}, got {value}")


def check_finite(key: str, value) -> None:
    """Reject a NaN or infinite ``value`` (or tuple entry), naming ``key``."""
    if not np.isfinite(value).all():
        raise ConfigurationError(f"{key} must be finite, got {value!r}")
