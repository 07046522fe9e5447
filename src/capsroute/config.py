"""Plain-text key=value configuration, derived from the dataclasses it feeds.

A config file contains one ``key=value`` pair per line; blank lines and
``#`` comments are ignored. ``_KEYS`` maps each key to the dataclass field it
feeds, whose default and type give the key's default and parser (a tuple
value must keep the default's length); only the three split keys, which no
dataclass owns, state their defaults here. The generator seed is exposed as
``data_seed`` so it cannot collide with the training seed. Unknown keys and
malformed or non-finite values raise ``ConfigurationError``. Command-line
``--set key=value`` pairs override file values, which override the defaults.
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

__all__ = [
    "SCHEMA",
    "parse_config_file",
    "resolve",
    "build",
    "default_config_text",
]

# key -> (owning dataclass, field name, help text). The split keys belong to no
# dataclass: their owner is None and the middle entry is the default itself.
_KEYS: dict[str, tuple[type | None, Any, str]] = {
    # data generation
    "n_samples": (SynthConfig, "n_samples", "number of synthetic samples to render"),
    "image_size": (SynthConfig, "image_size", "channels,height,width"),
    "positive_ratio": (SynthConfig, "positive_ratio", "fraction of label-1 samples (exact count)"),
    "rotation_range_train": (SynthConfig, "rotation_range_train", "degrees, lo,hi"),
    "rotation_range_test": (SynthConfig, "rotation_range_test", "degrees, lo,hi"),
    "translation_range": (SynthConfig, "translation_range", "max |chamber jitter| in pixels"),
    "width_normal": (SynthConfig, "width_normal", "label-0 chamber width interval, px"),
    "width_dilated": (SynthConfig, "width_dilated", "label-1 chamber width interval, px"),
    "noise_sigma": (SynthConfig, "noise_sigma", "additive Gaussian noise level inside the cone"),
    "data_seed": (SynthConfig, "seed", "generator seed (distinct from the training seed)"),
    "allow_width_overlap": (SynthConfig, "allow_width_overlap", "permit overlapping width intervals"),
    "rotation_shift_test": (None, False, "render the test split from rotation_range_test"),
    "split_fractions": (None, (0.8, 0.1, 0.1), "train,val,test fractions"),
    "split_seed": (None, 10, "seed for the stratified split shuffle"),
    # model
    "architecture": (ModelConfig, "architecture", "cardiocaps | cnn1 | cnn2"),
    "hidden_dim": (ModelConfig, "hidden_dim", "stem width / primary conv channels"),
    "conv_kernel": (ModelConfig, "conv_kernel", "stem and primary conv kernel size"),
    "d_primary": (ModelConfig, "d_primary", "primary capsule dimensionality"),
    "d_digit": (ModelConfig, "d_digit", "digit capsule dimensionality"),
    "affine_kind": (ModelConfig, "affine_kind", "vote transform: shared | conv | constant"),
    "routing_method": (RoutingSpec, "method", "dynamic | attention"),
    "routing_iterations": (RoutingSpec, "iterations", "rounds of dynamic routing"),
    "attention_softmax_axis": (RoutingSpec, "softmax_axis", "input_caps | output_caps"),
    "attention_scale_by_sqrt_d": (RoutingSpec, "scale_by_sqrt_d", "scale attention logits by 1/sqrt(d_digit)"),
    "decoder_hidden": (ModelConfig, "decoder_hidden", "decoder layer widths"),
    # loss
    "weight_mode": (WeightedLossParams, "weight_mode", "literal | inverse | uniform class weighting"),
    "lambda_reg": (WeightedLossParams, "lambda_reg", "regression (auxiliary) loss multiplier"),
    "lambda_recon": (WeightedLossParams, "lambda_recon", "reconstruction loss multiplier"),
    "m_plus": (MarginLossParams, "m_plus", "presence margin"),
    "m_minus": (MarginLossParams, "m_minus", "absence margin"),
    "negative_weight": (MarginLossParams, "negative_weight", "down-weight of absent-class margin terms"),
    # training
    "lr": (TrainConfig, "lr", "Adam learning rate"),
    "batch_size": (TrainConfig, "batch_size", "minibatch size"),
    "max_epochs": (TrainConfig, "max_epochs", "upper bound on training epochs"),
    "patience": (TrainConfig, "patience", "epochs without val improvement before stopping"),
    "seed": (TrainConfig, "seed", "experiment seed: init, shuffling, and records"),
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


def _entry(key: str, owner: type | None, name: Any, help_text: str):
    default = name if owner is None else {f.name: f.default for f in fields(owner)}[name]
    return default, _parser(key, default), help_text


# key -> (default value, parser, help text)
SCHEMA: dict[str, tuple[Any, Callable[[str], Any], str]] = {
    key: _entry(key, *spec) for key, spec in _KEYS.items()
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
    merged: dict[str, Any] = {k: default for k, (default, _, _) in SCHEMA.items()}
    for source in (file_values or {}, overrides or {}):
        for key, raw in source.items():
            if key not in SCHEMA:
                raise ConfigurationError(f"unknown configuration key: {key!r}")
            _, parser, _ = SCHEMA[key]
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
    owned = {name: cfg[key] for key, (owner, name, _) in _KEYS.items() if owner is cls}
    nested = {f.name: build(f.default_factory, cfg) for f in fields(cls) if is_dataclass(f.default_factory)}
    return cls(**owned, **nested)


def default_config_text() -> str:
    """A fully commented config file holding every key at its default."""
    lines = ["# capsroute configuration: key=value, '#' starts a comment"]
    snapshot = config_snapshot({k: default for k, (default, _, _) in SCHEMA.items()})
    for key, (_, _, help_text) in SCHEMA.items():
        lines.append(f"{key}={snapshot[key]}  # {help_text}")
    return "\n".join(lines) + "\n"
