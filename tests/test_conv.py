"""Convolution and pooling: loop oracles, hand values, finite differences."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from capsroute import tensor as T
from capsroute.errors import ContractError, DimensionError
from capsroute.gradcheck import fd_gradient, relative_error
from capsroute.tensor import Tensor


def leaf(values) -> Tensor:
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


def conv2d_loop_oracle(x, w, b, stride=1, padding=0):
    """Direct quadruple-loop cross-correlation, written from the definition."""
    x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    bsz, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    ho = (h - k) // stride + 1
    wo = (wd - k) // stride + 1
    out = np.zeros((bsz, cout, ho, wo))
    for n in range(bsz):
        for o in range(cout):
            for i in range(ho):
                for j in range(wo):
                    patch = x[n, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    out[n, o, i, j] = np.sum(patch * w[o]) + b[o]
    return out


def maxpool_loop_oracle(x, k):
    bsz, c, h, w = x.shape
    out = np.zeros((bsz, c, h // k, w // k))
    for n in range(bsz):
        for ch in range(c):
            for i in range(h // k):
                for j in range(w // k):
                    out[n, ch, i, j] = x[n, ch, i * k : (i + 1) * k, j * k : (j + 1) * k].max()
    return out


def biased_conv(x, w, b, stride=1, padding=0):
    return T.conv2d(x, w, b, stride=stride, padding=padding)


def test_one_by_one_unit_kernel_is_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 1, 5, 5))
    out = T.conv2d(leaf(x), leaf(np.ones((1, 1, 1, 1))), stride=1, padding=0)
    assert_allclose(out.data, x, rtol=0, atol=1e-15)


def test_all_ones_3x3_over_ones_5x5():
    out = T.conv2d(leaf(np.ones((1, 1, 5, 5))), leaf(np.ones((1, 1, 3, 3))), stride=1, padding=0)
    assert out.shape == (1, 1, 3, 3)
    assert_array_equal(out.data, np.full((1, 1, 3, 3), 9.0))


def test_conv_matches_loop_oracle_across_shapes():
    rng = np.random.default_rng(1)
    cases = [
        dict(bsz=2, cin=3, cout=4, h=8, k=3, stride=1, padding=0),
        dict(bsz=1, cin=2, cout=3, h=9, k=3, stride=2, padding=1),
        dict(bsz=2, cin=1, cout=2, h=11, k=5, stride=3, padding=2),
        dict(bsz=3, cin=4, cout=1, h=6, k=1, stride=1, padding=0),
    ]
    for case in cases:
        x = rng.normal(size=(case["bsz"], case["cin"], case["h"], case["h"]))
        w = rng.normal(size=(case["cout"], case["cin"], case["k"], case["k"]))
        b = rng.normal(size=case["cout"])
        got = biased_conv(leaf(x), leaf(w), leaf(b), case["stride"], case["padding"])
        want = conv2d_loop_oracle(x, w, b, case["stride"], case["padding"])
        assert_allclose(got.data, want, rtol=1e-12, atol=1e-12), case


def test_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    x = leaf(rng.normal(size=(2, 3, 8, 8)))
    w = leaf(rng.normal(size=(4, 3, 3, 3)) * 0.5)
    b = leaf(rng.normal(size=4))
    weights = rng.normal(size=(2, 4, 6, 6))

    def run():
        return (biased_conv(x, w, b, stride=1, padding=0) * weights).sum()

    run().backward()
    for p in (x, w, b):
        assert relative_error(p.grad, fd_gradient(run, p)) < 1e-6


def test_strided_padded_conv_gradients():
    rng = np.random.default_rng(3)
    x = leaf(rng.normal(size=(2, 2, 7, 7)))
    w = leaf(rng.normal(size=(3, 2, 3, 3)))
    b = leaf(rng.normal(size=3))
    weights = rng.normal(size=(2, 3, 4, 4))

    def run():
        return (biased_conv(x, w, b, stride=2, padding=1) * weights).sum()

    run().backward()
    for p in (x, w, b):
        assert relative_error(p.grad, fd_gradient(run, p)) < 1e-6


def patch_windows(x, k, stride, padding):
    """[B, C_in, ho, wo, k, k] views of the padded input's patches."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    return xp, windows[:, :, ::stride, ::stride]


def channels_first_conv(x, w, stride, padding):
    """The forward as a batched matmul over [C_in, k, k] patch columns."""
    _, windows = patch_windows(x, w.shape[2], stride, padding)
    bsz, cin, ho, wo, k, _ = windows.shape
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(bsz, ho * wo, cin * k * k)
    flat = w.reshape(w.shape[0], cin * k * k)
    return np.matmul(cols, flat.T).transpose(0, 2, 1).reshape(bsz, w.shape[0], ho, wo)


def composed_conv_oracle(x, w, g, stride, padding):
    """The gather / matmul / strided-scatter composition, in plain numpy.

    The forward reads channels-last patches in [k, k, C_in] column order. The
    gradients use [C_in, k, k] columns: each of their sums runs over output
    positions or channels, not over columns, so the column order cannot
    change them. Returns the output, the input gradient and the kernel
    gradient for the upstream gradient ``g``; the fused op must reproduce all
    three bit for bit.
    """
    xp, windows = patch_windows(x, w.shape[2], stride, padding)
    bsz, cin, ho, wo, k, _ = windows.shape
    cout = w.shape[0]
    n_cols = k * k * cin
    cols_last = np.ascontiguousarray(windows.transpose(0, 2, 3, 4, 5, 1)).reshape(bsz, -1, n_cols)
    flat_last = w.transpose(0, 2, 3, 1).reshape(cout, n_cols)
    # BLAS may sum a short product in another order than a long one, so the
    # forward multiplies the op's blocks of images, one flat product each.
    per_block = min(bsz, max(1, T._PATCH_BYTES // (ho * wo * n_cols * 8)))
    out = np.concatenate([np.matmul(cols_last[b : b + per_block].reshape(-1, n_cols), flat_last.T)
                          for b in range(0, bsz, per_block)])
    out = out.reshape(bsz, ho * wo, cout).transpose(0, 2, 1).reshape(bsz, cout, ho, wo)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(bsz, ho * wo, cin * k * k)
    cols = np.ascontiguousarray(cols)
    flat = w.reshape(cout, cin * k * k)
    g_rows = g.reshape(bsz, cout, ho * wo).transpose(0, 2, 1)
    g_cols = np.matmul(g_rows, flat).reshape(bsz, ho, wo, cin, k, k)
    gxp = np.zeros_like(xp)
    for i in range(k):
        for j in range(k):
            gxp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride] += g_cols[
                :, :, :, :, i, j
            ].transpose(0, 3, 1, 2)
    gx = gxp[:, :, padding : padding + x.shape[2], padding : padding + x.shape[3]]
    gw = np.matmul(np.swapaxes(cols, -1, -2), g_rows).sum(axis=0).T.reshape(w.shape)
    return out, gx, gw


def assert_conv_matches_composed_oracle(x, w, stride, padding, rng):
    ho = (x.shape[2] + 2 * padding - w.shape[2]) // stride + 1
    wo = (x.shape[3] + 2 * padding - w.shape[3]) // stride + 1
    g = rng.normal(size=(x.shape[0], w.shape[0], ho, wo))
    want_out, want_gx, want_gw = composed_conv_oracle(x, w, g, stride, padding)

    xt, wt = leaf(x), leaf(w)
    out = T.conv2d(xt, wt, stride=stride, padding=padding)
    (out * g).sum().backward()
    assert_array_equal(out.data, want_out)
    assert_array_equal(xt.grad, want_gx)
    assert_array_equal(wt.grad, want_gw)

    # A constant input receives no gradient and leaves the kernel gradient as is.
    x_const, w_only = Tensor(x), leaf(w)
    (T.conv2d(x_const, w_only, stride=stride, padding=padding) * g).sum().backward()
    assert x_const.grad is None
    assert_array_equal(w_only.grad, want_gw)


@pytest.mark.parametrize("cin", [1, 3, 32])
@pytest.mark.parametrize("k", [1, 3, 9])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("bsz", [1, 8])
def test_conv_is_bit_identical_to_composed_oracle(cin, k, stride, padding, bsz):
    rng = np.random.default_rng(cin * 1000 + k * 100 + stride * 10 + padding + bsz)
    x = rng.normal(size=(bsz, cin, 12, 12))
    w = rng.normal(size=(6, cin, k, k))
    assert_conv_matches_composed_oracle(x, w, stride, padding, rng)


@pytest.mark.parametrize("bsz,size,k,stride", [(8, 12, 12, 1), (1, 12, 12, 1), (8, 6, 5, 2)])
def test_conv_with_one_output_position_is_bit_identical(bsz, size, k, stride):
    # One output position per image makes the per-offset GEMMs a single row.
    rng = np.random.default_rng(size + k)
    x = rng.normal(size=(bsz, 4, size, size))
    w = rng.normal(size=(6, 4, k, k))
    assert_conv_matches_composed_oracle(x, w, stride, 0, rng)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1])
def test_conv_spanning_several_patch_blocks_is_bit_identical(stride, padding):
    # Sized so that one patch block holds 2 to 4 of the 5 images, the last block
    # partly: the kernel gradient must not depend on where the blocks split.
    bsz, cin, size, k = 5, 32, 18 if stride == 2 else 13, 9
    ho = (size + 2 * padding - k) // stride + 1
    per_block = T._PATCH_BYTES // (ho * ho * cin * k * k * 8)
    assert 1 < per_block < bsz and bsz % per_block
    rng = np.random.default_rng(40 + 10 * stride + padding)
    x = rng.normal(size=(bsz, cin, size, size))
    w = rng.normal(size=(8, cin, k, k))
    assert_conv_matches_composed_oracle(x, w, stride, padding, rng)


@pytest.mark.parametrize(
    "bsz,cin,size,k,stride,padding",
    [(8, 1, 32, 9, 1, 0), (8, 32, 24, 9, 2, 0), (5, 3, 13, 5, 1, 2), (2, 16, 8, 3, 1, 1)],
)
def test_channels_last_forward_is_close_to_channels_first_composition(
    bsz, cin, size, k, stride, padding
):
    # Only the order of the forward's sum over patch columns changed.
    rng = np.random.default_rng(cin + k)
    x = rng.normal(size=(bsz, cin, size, size))
    w = rng.normal(size=(4, cin, k, k))
    got = T.conv2d(x, w, stride=stride, padding=padding).data
    want = channels_first_conv(x, w, stride, padding)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "bsz,cin,size,k,stride,padding",
    [(1, 3, 8, 3, 1, 0), (2, 4, 9, 3, 2, 1), (8, 4, 6, 5, 2, 0), (5, 32, 13, 9, 1, 0)],
)
def test_fused_bias_is_bit_identical_to_adding_it_after(bsz, cin, size, k, stride, padding):
    rng = np.random.default_rng(bsz + cin + k)
    x = rng.normal(size=(bsz, cin, size, size))
    w = rng.normal(size=(6, cin, k, k))
    b = rng.normal(size=6)
    ho = (size + 2 * padding - k) // stride + 1
    g = rng.normal(size=(bsz, 6, ho, ho))

    def fused(xt, wt, bt):
        return T.conv2d(xt, wt, bt, stride=stride, padding=padding)

    def composed(xt, wt, bt):
        return T.conv2d(xt, wt, stride=stride, padding=padding) + bt.reshape((1, -1, 1, 1))

    runs = []
    for conv in (fused, composed):
        xt, wt, bt = leaf(x), leaf(w), leaf(b)
        out = conv(xt, wt, bt)
        (out * g).sum().backward()
        with T.no_grad():
            constant = conv(xt, wt, bt)
        assert constant.grad is None and not constant.requires_grad
        runs.append((out.data, constant.data, xt.grad, wt.grad, bt.grad))
    for got, want in zip(*runs):
        assert_array_equal(got, want)


@pytest.mark.parametrize(
    "bsz,cin,size,k,stride,padding",
    [(5, 32, 13, 9, 1, 0), (5, 32, 18, 9, 2, 1), (8, 1, 12, 3, 1, 1), (4, 3, 12, 5, 2, 1)],
)
def test_fused_relu_is_bit_identical_to_relu_after(bsz, cin, size, k, stride, padding):
    rng = np.random.default_rng(bsz + cin + k + stride)
    x = rng.normal(size=(bsz, cin, size, size))
    x[0, 0, size // 2, size // 2] = np.nan
    w = rng.normal(size=(6, cin, k, k))
    w[0] = 0.0  # channel 0 of the pre-activation is exactly zero away from the NaN
    b = rng.normal(size=6)
    b[0] = 0.0
    ho = (size + 2 * padding - k) // stride + 1
    g = rng.normal(size=(bsz, 6, ho, ho))
    pre = T.conv2d(x, w, b, stride=stride, padding=padding).data
    assert (pre == 0).any() and (pre < 0).any() and (pre > 0).any() and np.isnan(pre).any()

    def fused(xt, wt, bt):
        return T.conv2d(xt, wt, bt, stride=stride, padding=padding, relu=True)

    def composed(xt, wt, bt):
        return T.relu(T.conv2d(xt, wt, bt, stride=stride, padding=padding))

    runs = []
    for conv in (fused, composed):
        xt, wt, bt = leaf(x), leaf(w), leaf(b)
        out = conv(xt, wt, bt)
        # Two consumers, so the gradient reaching the ReLU is a sum.
        ((out * g).sum() + (T.square(out) * g).sum()).backward()
        with T.no_grad():
            constant = conv(xt, wt, bt)
        assert constant.grad is None and not constant.requires_grad
        # By bytes: -0.0 and 0.0 compare equal, and NaN never does.
        runs.append([a.tobytes() for a in (out.data, constant.data, xt.grad, wt.grad, bt.grad)])
    assert runs[0] == runs[1]
    assert np.signbit(np.frombuffer(runs[0][0])[pre.reshape(-1) < 0]).all()


def test_fused_relu_writes_no_second_output(peak_mib):
    rng = np.random.default_rng(7)
    x, w, b = rng.normal(size=(64, 3, 32, 32)), rng.normal(size=(32, 3, 9, 9)), rng.normal(size=32)
    output = 64 * 32 * 24 * 24 * 8 / 2**20
    with T.no_grad():
        fused = peak_mib(lambda: T.conv2d(x, w, b, relu=True))
        composed = peak_mib(lambda: T.relu(T.conv2d(x, w, b)))
    assert fused <= composed - output / 2


def test_fused_relu_is_a_relu_node_over_the_conv_sharing_its_output():
    x, w, b = leaf(np.ones((2, 1, 5, 5))), leaf(np.ones((3, 1, 3, 3))), leaf(np.zeros(3))
    out = T.conv2d(x, w, b, relu=True)
    (conv,) = out._parents
    assert conv._parents == (x, w, b)
    assert np.shares_memory(out.data, conv.data)


def test_conv_and_maxpool_reject_a_fractional_stride_padding_or_kernel():
    x, w = np.ones((1, 1, 6, 6)), np.ones((1, 1, 2, 2))
    for name, value in (("stride", 1.5), ("padding", 0.7), ("stride", 2.0)):
        with pytest.raises(ContractError, match=f"conv2d: {name} must be an integer"):
            T.conv2d(x, w, **{name: value})
    with pytest.raises(ContractError, match="maxpool2d: kernel must be an integer"):
        T.maxpool2d(x, 2.9)
    assert T.conv2d(x, w, stride=np.int64(2), padding=np.int32(1)).shape == (1, 1, 4, 4)
    assert T.maxpool2d(x, np.int64(3)).shape == (1, 1, 2, 2)


def test_conv_rejects_a_bias_of_the_wrong_shape():
    x, w = np.ones((1, 2, 5, 5)), np.ones((3, 2, 3, 3))
    with pytest.raises(DimensionError, match="bias"):
        T.conv2d(x, w, np.ones(4))
    with pytest.raises(DimensionError, match="bias"):
        T.conv2d(x, w, np.ones((1, 3, 1, 1)))


def test_conv_patch_memory_is_bounded_by_the_block_buffer(peak_mib):
    rng = np.random.default_rng(6)
    x, w = rng.normal(size=(64, 3, 32, 32)), rng.normal(size=(32, 3, 9, 9))
    full_patches = 64 * 24 * 24 * 3 * 9 * 9 * 8 / 2**20  # the whole batch's patch matrix, 68 MiB
    with T.no_grad():
        assert peak_mib(T.conv2d, x, w) < full_patches / 4


def test_maxpool_matches_loop_oracle():
    rng = np.random.default_rng(4)
    for k in (2, 3):
        x = rng.normal(size=(2, 3, 6, 6))
        got = T.maxpool2d(leaf(x), k)
        assert_array_equal(got.data, maxpool_loop_oracle(x, k))


def test_maxpool_gradient_routes_to_first_max():
    x = leaf([[2.0, 5.0], [5.0, 1.0]])
    out = T.maxpool2d(x.reshape((1, 1, 2, 2)), 2)
    assert out.data.item() == 5.0
    out.sum().backward()
    # Ties route to the first flattened position within the window.
    assert_array_equal(x.grad, [[0.0, 1.0], [0.0, 0.0]])


def test_maxpool_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    x = leaf(rng.normal(size=(2, 2, 6, 6)))
    weights = rng.normal(size=(2, 2, 3, 3))

    def run():
        return (T.maxpool2d(x, 2) * weights).sum()

    run().backward()
    assert relative_error(x.grad, fd_gradient(run, x)) < 1e-6


def test_conv_shape_errors():
    x = leaf(np.ones((1, 3, 8, 8)))
    with pytest.raises(DimensionError):
        T.conv2d(x, leaf(np.ones((4, 2, 3, 3))))  # channel mismatch
    with pytest.raises(DimensionError):
        T.conv2d(x, leaf(np.ones((4, 3, 9, 9))))  # kernel too large
    with pytest.raises(DimensionError):
        T.maxpool2d(x, 3)  # 8 not divisible by 3
