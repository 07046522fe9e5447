"""Tensor core: forward values, broadcasting, and backward contracts."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from capsroute import tensor as T
from capsroute.errors import ContractError, DimensionError
from capsroute.gradcheck import fd_gradient, relative_error
from capsroute.tensor import Tensor, no_grad


def leaf(values) -> Tensor:
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


# --------------------------------------------------------------------- values


def test_add_values():
    assert_array_equal(T.add(leaf([1.0, 2.0]), leaf([3.0, 4.0])).data, [4.0, 6.0])


def test_relu_sign_cases():
    assert_array_equal(T.relu(leaf([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])


def test_square_derivative_closed_form():
    x = leaf(3.0)
    T.square(x).backward()
    assert float(x.grad) == 6.0


def test_matmul_identity():
    v = np.arange(3.0).reshape(3, 1)
    out = T.matmul(leaf(np.eye(3)), leaf(v))
    assert_array_equal(out.data, v)


def test_matmul_hand_case():
    out = T.matmul(leaf([[1.0, 2.0], [3.0, 4.0]]), leaf([[1.0], [1.0]]))
    assert_array_equal(out.data, [[3.0], [7.0]])


def test_softmax_closed_form():
    out = T.softmax(leaf([0.0, np.log(3.0)]), axis=0)
    assert_allclose(out.data, [0.25, 0.75], rtol=0, atol=1e-15)


def test_softmax_constant_is_uniform():
    out = T.softmax(leaf(np.full((4, 6), 2.5)), axis=1)
    assert_allclose(out.data, np.full((4, 6), 1.0 / 6.0), rtol=0, atol=1e-15)


def test_log_softmax_matches_log_of_softmax_and_survives_large_gaps():
    x = np.random.default_rng(0).normal(size=(3, 5))
    assert_allclose(T.log_softmax(leaf(x), axis=1).data, np.log(T.softmax(leaf(x), axis=1).data),
                    rtol=0, atol=1e-14)
    out = T.log_softmax(leaf([0.0, 800.0]), axis=0)
    assert_array_equal(out.data, [-800.0, 0.0])


def test_vector_norm_pythagorean():
    out = T.vector_norm(leaf([[3.0, 4.0]]))
    assert_allclose(out.data, [5.0], rtol=1e-12)


def test_vector_norm_zero_vector_guarded():
    x = leaf(np.zeros((1, 4)))
    out = T.vector_norm(x, eps=1e-12)
    assert_allclose(out.data, [np.sqrt(1e-12)], rtol=1e-12)
    out.sum().backward()
    assert np.all(np.isfinite(x.grad))


def test_sigmoid_matches_closed_form():
    x = np.linspace(-30, 30, 13)
    assert_allclose(T.sigmoid(leaf(x)).data, 1.0 / (1.0 + np.exp(-x)), rtol=1e-15)


def test_weighted_sum_gradient_is_the_data():
    rng = np.random.default_rng(0)
    x = rng.normal(size=7)
    w = leaf(rng.normal(size=7))
    (w * x).sum().backward()
    assert_array_equal(w.grad, x)


def test_reuse_accumulates():
    x = leaf(5.0)
    (x + x).backward()
    assert float(x.grad) == 2.0


# --------------------------------------------------- broadcasting and errors


def test_add_broadcasts_rows():
    out = T.add(leaf(np.ones((2, 3))), leaf([10.0, 20.0, 30.0]))
    assert_array_equal(out.data, [[11.0, 21.0, 31.0]] * 2)


def test_broadcast_gradient_sums_stretched_axes():
    b = leaf([1.0, 2.0, 3.0])
    a = leaf(np.ones((4, 3)))
    (a + b).sum().backward()
    assert_array_equal(b.grad, [4.0, 4.0, 4.0])
    assert_array_equal(a.grad, np.ones((4, 3)))


def test_scalar_shape_survives_backward_and_repr():
    # Regression guard: 0-d gradients must stay 0-d (a (1,) grad broadcasts
    # the parameter itself to (1,) on the next optimizer step).
    bias = leaf(np.zeros(()))
    (leaf(np.ones((2, 3))) + bias).sum().backward()
    assert bias.grad.shape == ()
    assert float(bias.grad) == 6.0


def test_incompatible_shapes_raise():
    with pytest.raises(DimensionError):
        T.add(leaf(np.ones((2, 3))), leaf(np.ones((4,))))
    with pytest.raises(DimensionError):
        T.matmul(leaf(np.ones((2, 3))), leaf(np.ones((4, 2))))
    with pytest.raises(DimensionError):
        T.matmul(leaf(np.ones(3)), leaf(np.ones(3)))


def test_backward_requires_scalar():
    with pytest.raises(ContractError):
        leaf(np.ones(3)).backward()


@pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
def test_item_reads_any_single_element_tensor(shape):
    # backward() takes these shapes as scalar losses, so item() must read them too.
    t = leaf(np.full(shape, 2.5))
    assert t.item() == 2.5 and type(t.item()) is float
    with pytest.raises(ContractError):
        leaf(np.ones(2)).item()


def test_non_positive_eps_rejected():
    with pytest.raises(ContractError):
        T.vector_norm(leaf(np.ones((1, 2))), eps=0.0)


# ------------------------------------------------------------------ backward


def scalar_graph(x: Tensor) -> Tensor:
    h = T.sigmoid(T.matmul(x, x.transpose((1, 0))))
    return (T.log(h + 1.5) * T.exp(h * 0.1)).sum()


def test_backward_twice_is_bit_identical():
    rng = np.random.default_rng(3)
    x = leaf(rng.normal(size=(4, 5)))
    loss = scalar_graph(x)
    loss.backward()
    first = x.grad.copy()
    loss.backward()
    assert_array_equal(x.grad, first)


def test_unused_leaf_reads_zero_gradient():
    used = leaf(np.ones(3))
    unused = leaf(np.ones(3))
    (used * 2.0).sum().backward()
    assert_array_equal(unused.grad, np.zeros(3))


def test_backward_sets_gradients_on_leaves_only():
    rng = np.random.default_rng(8)
    x, w = leaf(rng.normal(size=(3, 4))), leaf(rng.normal(size=(4, 2)))
    const = Tensor(rng.normal(size=(3, 2)))
    h = T.matmul(x, w)
    y = T.relu(h) * const
    loss = y.sum()
    loss.backward()
    assert h.grad is None and y.grad is None and loss.grad is None
    assert const.grad is None
    dy = (h.data > 0) * const.data
    assert_allclose(x.grad, dy @ w.data.T, rtol=1e-12)
    assert_allclose(w.grad, x.data.T @ dy, rtol=1e-12)


@pytest.mark.parametrize("reshaped", [False, True], ids=["same-shape", "reshaped"])
def test_leaves_never_share_a_gradient_array(reshaped):
    a = leaf(np.ones((3, 2) if reshaped else (2, 3)))
    b = leaf(np.ones((2, 3)))
    w = Tensor(np.arange(6.0).reshape(2, 3))
    (((a.reshape((2, 3)) if reshaped else a) + b) * w).sum().backward()
    assert not np.shares_memory(a.grad, b.grad)
    a.grad *= 2.0  # scaling one gradient in place leaves the other alone
    assert_array_equal(b.grad, w.data)
    assert_array_equal(a.grad, 2.0 * w.data.reshape(a.shape))


def test_no_grad_blocks_recording():
    with no_grad():
        x = Tensor(np.ones(3), requires_grad=True)
        y = (x * 2.0).sum()
    assert not x.requires_grad
    assert not y.requires_grad
    assert y._parents == ()


def test_matmul_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    a = leaf(rng.normal(size=(4, 5)))
    b = leaf(rng.normal(size=(5, 3)))
    weights = rng.normal(size=(4, 3))

    def run():
        return (T.matmul(a, b) * weights).sum()

    run().backward()
    for p in (a, b):
        err = relative_error(p.grad, fd_gradient(run, p))
        assert err < 1e-6


def test_softmax_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    x = leaf(rng.normal(size=7))
    weights = rng.normal(size=7)

    def run():
        return (T.softmax(x, axis=0) * weights).sum()

    run().backward()
    assert relative_error(x.grad, fd_gradient(run, x)) < 1e-6


def test_vector_norm_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    x = leaf(rng.normal(size=(2, 16)))

    def run():
        return T.vector_norm(x).sum()

    run().backward()
    assert relative_error(x.grad, fd_gradient(run, x)) < 1e-6


def test_elementwise_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    ops = {
        "relu": T.relu,
        "square": T.square,
        "exp": T.exp,
        "sigmoid": T.sigmoid,
        "sqrt": lambda t: T.sqrt(t * t + 1.0),
        "log": lambda t: T.log(t * t + 1.0),
    }
    for name, op in ops.items():
        x = leaf(rng.normal(size=9))
        weights = rng.normal(size=9)

        def run():
            return (op(x) * weights).sum()

        run().backward()
        err = relative_error(x.grad, fd_gradient(run, x))
        assert err < 1e-6, f"{name}: rel err {err}"


def test_reduction_and_reshape_gradients():
    rng = np.random.default_rng(19)
    x = leaf(rng.normal(size=(3, 4, 5)))
    weights = rng.normal(size=(5, 4))

    def run():
        y = x.sum(axis=0).transpose((1, 0)).reshape((5, 4))
        return (y * weights).mean()

    run().backward()
    assert relative_error(x.grad, fd_gradient(run, x)) < 1e-6


def test_division_gradients_both_sides():
    rng = np.random.default_rng(23)
    a = leaf(rng.normal(size=(3, 4)) + 3.0)
    b = leaf(rng.normal(size=(4,)) + 3.0)

    def run():
        return (a / b).sum()

    run().backward()
    for p in (a, b):
        assert relative_error(p.grad, fd_gradient(run, p)) < 1e-6


def test_randomized_mixed_graphs_match_finite_differences():
    rng = np.random.default_rng(29)
    for _ in range(10):
        x = leaf(rng.normal(size=(3, 4)))

        def run():
            return scalar_graph(x)

        run().backward()
        assert relative_error(x.grad, fd_gradient(run, x)) < 1e-6
