"""Properties of the ops, of routing and of configs.

A finite input gives an op a finite value and a finite gradient. Routing's
coefficients sum to 1 over their axis, and its outputs are shorter than 1.
Every config key's value round-trips through a run's ``config.txt``, and a
value of the wrong kind, from the command line or from Python, is an error
naming its key. Examples are drawn by the derandomized profile of
``conftest.py``.
"""

import math
import numbers
import re
from dataclasses import MISSING, fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from capsroute import (ConfigurationError, MarginLossParams, ModelConfig, RoutingSpec, SynthConfig, TrainConfig,
                       WeightedLossParams, config)
from capsroute import tensor as T
from capsroute.capsules import attention_routing, dynamic_routing, squash
from capsroute.config import SCHEMA, build, config_snapshot, parse_config_file, resolve
from capsroute.errors import key_of
from capsroute.tensor import Tensor
from capsroute.training import ExperimentRecord


def _arrays(bound: float | None = None):
    """Float64 arrays of rank 1-3, entries anywhere in the finite range or within ±bound."""
    if bound is None:
        elements = st.floats(allow_nan=False, allow_infinity=False)
    else:
        elements = st.floats(-bound, bound)
    return arrays(np.float64, array_shapes(min_dims=1, max_dims=3, max_side=6), elements=elements)


def _assert_finite_value_and_gradient(op, values):
    x = Tensor(values, requires_grad=True)
    out = op(x)
    weights = np.linspace(-1.0, 1.0, out.data.size).reshape(out.shape)
    (out * weights).sum().backward()
    assert np.isfinite(out.data).all()
    assert np.isfinite(x.grad).all()


@given(_arrays())
def test_squash_of_any_finite_input_is_finite_with_a_finite_gradient(values):
    _assert_finite_value_and_gradient(squash, values)


@given(_arrays(1e300))
def test_vector_norm_of_a_finite_input_is_finite_with_a_finite_gradient(values):
    _assert_finite_value_and_gradient(T.vector_norm, values)


@given(_arrays(1e300), st.integers(0, 2))
def test_softmax_of_a_finite_input_is_finite_with_a_finite_gradient(values, axis):
    _assert_finite_value_and_gradient(lambda x: T.softmax(x, axis % values.ndim), values)


@given(_arrays(1e300), st.integers(0, 2))
def test_log_softmax_of_a_finite_input_is_finite_with_a_finite_gradient(values, axis):
    _assert_finite_value_and_gradient(lambda x: T.log_softmax(x, axis % values.ndim), values)


# ---------------------------------------------------------------------- routing
_ROUTINGS = [("dynamic", r) for r in (1, 2, 3, 4)] + [("attention", axis) for axis in ("input_caps", "output_caps")]


@given(arrays(np.float64, st.tuples(*[st.integers(1, 5)] * 4), elements=st.floats(-1e6, 1e6)),
       st.sampled_from(_ROUTINGS), st.floats(-10.0, 10.0), st.booleans())
def test_routing_coefficients_sum_to_one_and_every_output_is_shorter_than_one(votes, routing, w, scale):
    # Votes within ±1e6 keep a squash input's norm below ~1e7. Past ~1e8 its
    # exact length n²/(1 + n²) rounds to 1 in float64.
    method, arg = routing
    if method == "dynamic":
        bank, state = dynamic_routing(Tensor(votes), arg)
        axis = 2  # over the output capsules of [B, N_in, N_out]
    else:
        weight = Tensor(np.linspace(-w, w, votes.shape[3]).reshape(-1, 1))
        bank, state = attention_routing(Tensor(votes), weight, softmax_axis=arg, scale_by_sqrt_d=scale)
        axis = 1 if arg == "input_caps" else 2
    for c in state.coefficients:
        assert np.isfinite(c).all()
        np.testing.assert_allclose(c.sum(axis=axis), 1.0, rtol=0, atol=1e-12)
    for v in [*state.outputs, bank.activations.data]:
        assert (np.linalg.norm(v, axis=-1) < 1.0).all()


# ----------------------------------------------------------------------- config
_CONFIG_CLASSES = (SynthConfig, ModelConfig, RoutingSpec, WeightedLossParams, MarginLossParams, TrainConfig)


def _tuple(value) -> tuple:
    return value if isinstance(value, tuple) else (value,)


def _field(key: str):
    """The dataclass field behind ``key``; None for a split key, which no dataclass owns."""
    owner, name, _ = config._FIELDS[key]
    return owner.__dataclass_fields__[name] if owner else None


def _values(key: str):
    """Values of ``key``'s kind, within its field's ``min`` and ``choices``."""
    default, f = SCHEMA[key][0], _field(key)
    meta = f.metadata if f else {}
    entry = {bool: st.booleans(), str: st.sampled_from(meta.get("choices", ())),
             int: st.integers(min_value=meta.get("min", 1)),
             float: st.floats(allow_nan=False, allow_infinity=False)}[type(_tuple(default)[0])]
    return st.tuples(*[entry] * len(default)) if isinstance(default, tuple) else entry


def _malformed(key: str):
    """Text ``key`` cannot take: a valid value with a stray letter, junk, one entry too
    many, a non-finite float, or a fraction where an integer goes."""
    default = SCHEMA[key][0]
    text = _values(key).map(lambda v: config_snapshot({key: v})[key])
    bad = [text.map(lambda t: t + "x"), st.sampled_from(["", "x", ",", "1e", "0x1"])]
    if isinstance(default, tuple):
        bad.append(text.map(lambda t: t + ",1"))
    if type(_tuple(default)[0]) is float:
        bad.append(st.sampled_from(["nan", "inf", "-inf"]))
    if type(_tuple(default)[0]) is int:
        bad.append(st.floats(allow_nan=False, allow_infinity=False).map(repr))
    return st.one_of(bad)


def _names(key: str) -> str:
    return rf"(?<!\w){re.escape(key)}(?!\w)"


@given(st.data())
def test_every_key_round_trips_through_a_run_config_file(tmp_path_factory, data):
    key = data.draw(st.sampled_from(list(SCHEMA)))
    cfg = {**resolve(), key: data.draw(_values(key))}
    path = tmp_path_factory.getbasetemp() / "config.txt"
    path.write_text(ExperimentRecord(seed=0, config=config_snapshot(cfg)).config_text(), encoding="utf-8")
    assert resolve(parse_config_file(path)) == cfg


@given(st.data())
def test_a_malformed_value_is_rejected_naming_its_key(data):
    # A string key's parser takes any text; its field's choices reject it when built.
    key = data.draw(st.sampled_from(list(SCHEMA)))
    raw = data.draw(_malformed(key))
    owner = config._FIELDS[key][0]
    with pytest.raises(ConfigurationError, match=_names(key)):
        cfg = resolve(overrides={key: raw})
        if owner is not None:
            build(owner, cfg)


_OTHER_KINDS = {
    "str": st.text(max_size=4),
    "None": st.none(),
    "list": st.lists(st.integers(0, 3), max_size=3),
    "bool": st.booleans(),
    "non-finite": st.sampled_from([math.nan, math.inf, -math.inf]),
    "float": st.floats(-1e3, 1e3),
    "int": st.integers(-3, 3),
}
_OWN_KINDS = {bool: ("bool",), int: ("int",), float: ("float", "int"), str: ("str",)}  # ints are reals


def _of_its_kind(f, value) -> bool:
    """Whether ``value`` is of the kind of field ``f``'s default."""
    if f.default is MISSING:
        return isinstance(value, f.default_factory)
    entries, want = _tuple(value), _tuple(f.default)
    if isinstance(value, tuple) != isinstance(f.default, tuple) or len(entries) != len(want):
        return False
    kind = type(want[0])
    if kind is str:
        return isinstance(value, str) and value in f.metadata["choices"]
    if kind is bool:
        return isinstance(value, (bool, np.bool_))
    number = numbers.Integral if kind is int else numbers.Real
    return all(isinstance(v, number) and not isinstance(v, bool) and math.isfinite(v) for v in entries)


def _replacements(f):
    """Values for field ``f``: one of another kind than its default's entries (for a
    string, an unknown choice), a tuple of another length or with one such entry, and
    the default as numpy scalars, which are of its kind."""
    if f.default is MISSING:  # a nested config dataclass
        return st.one_of(*_OTHER_KINDS.values(), st.tuples(st.integers()))
    default = _tuple(f.default)
    own = _OWN_KINDS[type(default[0])]
    other = st.one_of([s for name, s in _OTHER_KINDS.items() if name not in own])
    if own == ("str",):
        other |= st.text(max_size=12).filter(lambda s: s not in f.metadata["choices"])
    lengths = [n for n in range(5) if not isinstance(f.default, tuple) or n != len(default)]
    reshaped = st.sampled_from(lengths).map(lambda n: default[:1] * n)
    as_numpy = tuple(np.asarray(v)[()] for v in default)
    if not isinstance(f.default, tuple):
        return st.one_of(other, reshaped, st.just(as_numpy[0]))
    one_bad = st.tuples(st.integers(0, len(default) - 1), other).map(
        lambda iv: default[: iv[0]] + (iv[1],) + default[iv[0] + 1 :])
    return st.one_of(other, reshaped, one_bad, st.just(as_numpy))


@given(st.data())
def test_a_config_field_of_another_kind_is_rejected_naming_its_key(data):
    # Each config dataclass with one field replaced. A build either succeeds
    # with every field of its kind, or raises ConfigurationError naming the
    # replaced field's key, and nothing else escapes.
    cls = data.draw(st.sampled_from(_CONFIG_CLASSES))
    f = data.draw(st.sampled_from(fields(cls)))
    value = data.draw(_replacements(f))
    try:
        built = cls(**{f.name: value})
    except ConfigurationError as err:
        assert re.search(_names(key_of(cls, f.name)), str(err)), str(err)
    else:
        assert all(_of_its_kind(g, getattr(built, g.name)) for g in fields(built))
