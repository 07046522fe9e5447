"""Properties of the ops: a finite input gives a finite value and a finite gradient.

Examples are drawn by the derandomized profile of ``conftest.py``.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from capsroute import tensor as T
from capsroute.capsules import squash
from capsroute.tensor import Tensor


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
