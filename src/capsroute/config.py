"""Plain-text key=value configuration, derived from the dataclasses it feeds.

A config file contains one ``key=value`` pair per line; blank lines and
``#`` comments are ignored. Each field of the config dataclasses is a key
whose default and parser come from the field's default and type (a tuple
value must keep the default's length); the few exceptions are stated below.
The README's configuration tables are the one description of each key.
Unknown keys and malformed or non-finite values raise ``ConfigurationError``.
Command-line ``--set key=value`` pairs override file values, which override
the defaults.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Callable

from .capsules import RoutingSpec
from .data import SynthConfig
from .errors import ConfigurationError
from .losses import MarginLossParams, WeightedLossParams
from .metrics import format_value
from .models import ModelConfig
from .training import TrainConfig

__all__ = ["SCHEMA", "parse_config_file", "resolve", "build"]

# Keys not named after their field: the generator seed must not collide with the
# training seed, and each routing key names the routing it sets.
_RENAMED = {
    (SynthConfig, "seed"): "data_seed",
    (RoutingSpec, "method"): "routing_method",
    (RoutingSpec, "iterations"): "routing_iterations",
    (RoutingSpec, "softmax_axis"): "attention_softmax_axis",
    (RoutingSpec, "scale_by_sqrt_d"): "attention_scale_by_sqrt_d",
}
_NOT_KEYS = {(WeightedLossParams, "class_proportions")}  # set from the train split


def _keys(cls: type) -> dict[str, tuple[type, str, Any]]:
    """key -> (owning dataclass, field name, default) for each key field of ``cls``, in
    order; a field holding a config dataclass (``ModelConfig.routing``) adds its keys."""
    keys = {}
    for f in fields(cls):
        if is_dataclass(f.default_factory):
            keys.update(_keys(f.default_factory))
        elif (cls, f.name) not in _NOT_KEYS:
            keys[_RENAMED.get((cls, f.name), f.name)] = (cls, f.name, f.default)
    return keys


# Every key in the README's order; the split keys belong to no dataclass.
_FIELDS = {
    **_keys(SynthConfig),
    "rotation_shift_test": (None, None, False),
    "split_fractions": (None, None, (0.8, 0.1, 0.1)),
    "split_seed": (None, None, 10),
    **_keys(ModelConfig),
    **_keys(WeightedLossParams),
    **_keys(MarginLossParams),
    **_keys(TrainConfig),
}

_BOOLEANS = {"true": True, "1": True, "yes": True, "on": True,
             "false": False, "0": False, "no": False, "off": False}


def _parser(key: str, default: Any) -> Callable[[str], Any]:
    """Parse a raw string to the type of ``default``; a tuple needs its length."""
    arity = len(default) if isinstance(default, tuple) else None
    kind = type(default[0] if arity else default)
    expected = f"{arity} comma-separated {kind.__name__} values" if arity else kind.__name__

    def scalar(part: str):
        return _BOOLEANS[part.strip().lower()] if kind is bool else kind(part)

    def parse(raw: str):
        parts = raw.split(",") if arity else [raw]
        if len(parts) == (arity or 1):
            try:
                values = tuple(scalar(part) for part in parts)
            except (KeyError, ValueError):
                pass
            else:
                if kind is float and not all(math.isfinite(v) for v in values):
                    raise ConfigurationError(f"{key} expects finite numbers, got {raw!r}")
                return values if arity else values[0]
        raise ConfigurationError(f"{key} expects {expected}, got {raw!r}")

    return parse


# key -> (default value, parser)
SCHEMA: dict[str, tuple[Any, Callable[[str], Any]]] = {
    key: (default, _parser(key, default)) for key, (_, _, default) in _FIELDS.items()
}


def parse_config_file(path) -> dict[str, str]:
    """Read raw key=value pairs from UTF-8 text; values stay as strings until resolve()."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as err:
        raise ConfigurationError(f"{path} is not UTF-8 text (byte offset {err.start})") from None
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {line.rstrip()!r}")
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def resolve(file_values: dict[str, str] | None = None, overrides: dict[str, str] | None = None) -> dict[str, Any]:
    """Merge defaults, file values, and overrides into a fully typed config."""
    merged: dict[str, Any] = {k: default for k, (default, _) in SCHEMA.items()}
    for source in (file_values or {}, overrides or {}):
        for key, raw in source.items():
            if key not in SCHEMA:
                raise ConfigurationError(f"unknown configuration key: {key!r}")
            _, parser = SCHEMA[key]
            merged[key] = parser(raw) if isinstance(raw, str) else raw
    return merged


def config_snapshot(cfg: dict[str, Any]) -> dict[str, str]:
    """Stringify a resolved config for embedding in an experiment record."""
    return {k: format_value(cfg[k]) for k in sorted(cfg)}


def build(cls: type, cfg: dict[str, Any]):
    """Instantiate the config dataclass ``cls`` from the keys of ``cfg`` it owns.

    A field whose default is itself a config dataclass, as ``ModelConfig.routing``
    is, is built from ``cfg`` the same way. Each dataclass checks its own values,
    so a value out of range raises ``ConfigurationError`` naming its key.
    """
    owned = {name: cfg[key] for key, (owner, name, _) in _FIELDS.items() if owner is cls}
    nested = {f.name: build(f.default_factory, cfg) for f in fields(cls) if is_dataclass(f.default_factory)}
    return cls(**owned, **nested)

