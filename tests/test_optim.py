"""Adam: fixed points, a hand-scripted step oracle, and failure diagnostics."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from capsroute.errors import ConfigurationError, ContractError, TrainingAborted
from capsroute import optim
from capsroute.optim import Adam
from capsroute.tensor import Tensor, no_grad


def param(values) -> Tensor:
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


def test_zero_gradient_leaves_parameters_unchanged():
    p = param([1.0, -2.0, 3.0])
    opt = Adam([("p", p)], lr=0.1)
    for _ in range(3):
        p.grad[...] = 0.0
        opt.step()
    assert_array_equal(p.data, [1.0, -2.0, 3.0])


def test_constant_gradient_step_approaches_lr_sign():
    # With a constant gradient the bias-corrected moments converge to (g, g²),
    # so the step tends to lr * g / |g| = lr * sign(g).
    p = param([0.0, 0.0])
    g = np.array([0.5, -2.0])
    opt = Adam([("p", p)], lr=1e-3)
    prev = p.data.copy()
    for t in range(200):
        p.grad[...] = g
        opt.step()
        step = p.data - prev
        prev = p.data.copy()
    assert_allclose(step, -1e-3 * np.sign(g), rtol=1e-4)


def test_five_steps_match_scripted_oracle():
    # Quadratic bowl f(x) = 0.5 * sum(x²), gradient x; scripted Adam with
    # bias correction written out longhand.
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    x = np.array([1.0, -3.0, 0.5])
    m = np.zeros(3)
    v = np.zeros(3)
    expected = x.copy()
    for t in range(1, 6):
        g = expected.copy()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        expected = expected - lr * m_hat / (np.sqrt(v_hat) + eps)

    p = param([1.0, -3.0, 0.5])
    opt = Adam([("p", p)], lr=lr)
    for _ in range(5):
        p.grad[...] = p.data
        opt.step()
    assert_allclose(p.data, expected, rtol=0, atol=1e-12)


def test_adam_descends_a_quadratic():
    p = param([4.0, -4.0])
    opt = Adam([("p", p)], lr=0.05)
    for _ in range(500):
        p.grad[...] = p.data
        opt.step()
    assert np.abs(p.data).max() < 0.05


def test_non_finite_gradient_aborts_naming_parameter():
    p = param([1.0])
    q = param([1.0])
    opt = Adam([("stem.weight", p), ("head.bias", q)], lr=0.1)
    p.grad[...] = 0.0
    q.grad[...] = np.nan
    with pytest.raises(TrainingAborted) as err:
        opt.step()
    assert "head.bias" in str(err.value)


def longhand_adam(values, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The unchunked per-parameter update, one whole-array expression per line."""
    x, m, v = values.copy(), np.zeros_like(values), np.zeros_like(values)
    for t, g in enumerate(grads, start=1):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        x -= lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
    return x


def test_steps_across_chunk_boundaries_match_the_unchunked_update_exactly(monkeypatch):
    monkeypatch.setattr(optim, "_CHUNK", 3)
    rng = np.random.default_rng(4)
    sizes = (1, 3, 7)  # within one chunk, exactly one, and across three
    start = [rng.normal(size=n) for n in sizes]
    grads = [[rng.normal(size=n) for _ in range(5)] for n in sizes]
    params = [param(x) for x in start]
    opt = Adam([(f"p{n}", p) for n, p in zip(sizes, params)], lr=0.01)
    for step in range(5):
        for p, g in zip(params, grads):
            p.grad[...] = g[step]
        opt.step()
    for p, x, g in zip(params, start, grads):
        assert_allclose(p.data, longhand_adam(x, g, lr=0.01), rtol=0, atol=0)


def test_non_finite_gradient_in_a_later_chunk_names_its_parameter(monkeypatch):
    monkeypatch.setattr(optim, "_CHUNK", 3)
    params = [param(np.ones(n)) for n in (1, 3, 7)]
    opt = Adam([("a", params[0]), ("b", params[1]), ("c", params[2])], lr=0.1)
    for p in params:
        p.grad.fill(0.5)
    params[2].grad[7 - 1] = np.inf  # the third chunk of "c"
    with pytest.raises(TrainingAborted, match="'c' at step 1"):
        opt.step()
    assert_array_equal(params[2].data[6:], [1.0])  # the chunk holding it is not updated


def test_rejects_a_parameter_that_is_not_c_contiguous():
    p = Tensor(np.asfortranarray(np.ones((2, 3))), requires_grad=True)
    assert not p.data.flags.c_contiguous
    with pytest.raises(ConfigurationError, match="'w' is not C-contiguous"):
        Adam([("w", p)])


def test_step_leaves_the_array_a_parameter_was_built_from_alone():
    values = np.array([1.0, -2.0])
    p = Tensor(values, requires_grad=True)
    opt = Adam([("p", p)], lr=0.1)
    (p * p).sum().backward()
    opt.step()
    assert_array_equal(values, [1.0, -2.0])
    assert not np.array_equal(p.data, values)


def test_an_adopted_leaf_is_the_array_it_was_built_from():
    values = np.array([1.0, -2.0])
    p = Tensor._adopt(values)
    assert p.data is values and p.requires_grad and p._grad is None
    opt = Adam([("p", p)], lr=0.1)
    (p * p).sum().backward()
    opt.step()
    assert p.data is values and not np.array_equal(values, [1.0, -2.0])
    with no_grad():
        assert not Tensor._adopt(np.zeros(2)).requires_grad


@pytest.mark.parametrize("array", [np.zeros(3, np.float32), np.zeros((3, 2)).T, np.zeros(6)[::2]],
                         ids=["float32", "fortran-order", "strided"])
def test_adopt_rejects_an_array_a_copying_leaf_would_convert(array):
    with pytest.raises(ContractError, match="C-ordered float64"):
        Tensor._adopt(array)


def test_a_gradient_is_allocated_on_first_read_and_kept_through_backward_zero_grad_and_step():
    p = param([[1.0, -2.0, 3.0]])
    opt = Adam([("p", p)], lr=0.1)
    assert p._grad is None  # neither building the leaf nor the optimizer allocates it
    grad = p.grad
    assert grad.shape == (1, 3) and grad.dtype == np.float64
    assert_array_equal(grad, np.zeros((1, 3)))
    (p * p).sum().backward()
    assert p.grad is grad
    assert_array_equal(grad, 2.0 * p.data)
    opt.step()
    assert p.grad is grad
    opt.zero_grad()
    assert p.grad is grad
    assert_array_equal(grad, np.zeros((1, 3)))


def test_zero_grad_clears_accumulated_gradients():
    p = param([2.0])
    opt = Adam([("p", p)], lr=0.1)
    (p * p).sum().backward()
    grad = p.grad
    assert grad[0] != 0.0
    opt.zero_grad()
    assert p.grad is grad
    assert_array_equal(grad, [0.0])


@pytest.mark.parametrize("value", [float("nan"), -0.1, float("inf")])
def test_adam_rejects_out_of_range_arguments(value):
    with pytest.raises(ConfigurationError, match="lr"):
        Adam([("p", param([1.0]))], lr=value)


def test_rejects_a_parameter_without_a_gradient_array():
    with no_grad():
        frozen = param([1.0, 2.0])
    assert frozen.grad is None
    with pytest.raises(ConfigurationError, match="'frozen'"):
        Adam([("live", param([0.0])), ("frozen", frozen)])
    with pytest.raises(ConfigurationError, match="'doubled'"):
        Adam([("doubled", param([1.0]) * 2.0)])
