"""Capsule layers: squash invariants, grid layout, and vote transforms."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from capsroute.capsules import (
    CapsuleBank,
    ConstantAffine,
    ConvAffine,
    Decoder,
    PrimaryCapsules,
    RegressionHead,
    RoutingSpec,
    SharedAffine,
    classify,
    squash,
)
from capsroute.errors import ConfigurationError, DimensionError
from capsroute.gradcheck import fd_gradient, relative_error
from capsroute.models import ModelConfig
from capsroute.tensor import Tensor


def leaf(values) -> Tensor:
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


# --------------------------------------------------------------------- squash


def test_squash_zero_maps_to_zero():
    out = squash(leaf(np.zeros((3, 4))))
    assert_array_equal(out.data, np.zeros((3, 4)))


def test_squash_unit_vector_halves():
    v = np.zeros(5)
    v[2] = 1.0
    out = squash(leaf(v.reshape(1, 5)))
    assert_allclose(np.linalg.norm(out.data), 0.5, atol=1e-9)
    assert_allclose(out.data[0], v / 2.0, atol=1e-9)


def test_squash_norm_three_gives_nine_tenths():
    v = np.array([[0.0, 3.0, 0.0]])
    out = squash(leaf(v))
    assert_allclose(np.linalg.norm(out.data), 0.9, atol=1e-9)


def test_squash_invariants_on_1000_random_vectors():
    rng = np.random.default_rng(42)
    vecs = rng.normal(0.0, 2.0, size=(1000, 8))
    out = squash(leaf(vecs)).data
    norms_in = np.linalg.norm(vecs, axis=1)
    norms_out = np.linalg.norm(out, axis=1)
    assert np.max(np.abs(norms_out - norms_in**2 / (1.0 + norms_in**2))) < 1e-9
    directions_in = vecs / norms_in[:, None]
    directions_out = out / norms_out[:, None]
    assert np.max(np.abs(directions_out - directions_in)) < 1e-9
    assert norms_out.max() < 1.0


def test_squash_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    x = leaf(rng.normal(size=(4, 6)))
    weights = rng.normal(size=(4, 6))

    def run():
        return (squash(x) * weights).sum()

    run().backward()
    assert relative_error(x.grad, fd_gradient(run, x)) < 1e-5


@pytest.mark.parametrize("s", [[1e160, 0.0], [3e299, -4e299], [-2e20, 1e19]])
def test_squash_is_the_unit_direction_with_its_gradient_past_square_overflow(s):
    # n^2 overflows past ~1e154; the length n^2 / (1 + n^2) rounds to 1, and the
    # Jacobian is (I - u u^T) / n for the unit direction u, to relative order 1/n^2.
    x = leaf(s)
    out = squash(x)
    n = np.hypot(*s)
    u = np.asarray(s) / n
    assert_allclose(out.data, u, rtol=1e-15, atol=1e-15)
    w = np.array([1.0, 2.0])
    (out * w).sum().backward()
    want = (w - u * (u @ w)) / n
    assert_allclose(x.grad, want, rtol=1e-12, atol=1e-12 / n)


# ----------------------------------------------------------- primary capsules


def test_primary_capsule_count_and_dimension():
    rng = np.random.default_rng(0)
    layer = PrimaryCapsules(in_channels=4, out_channels=16, d=8, kernel=9, stride=2, rng=rng)
    bank = layer(leaf(rng.normal(size=(1, 4, 15, 15))))
    # (15 - 9) // 2 + 1 = 4 per side; 4*4 cells * 2 capsules per cell = 32
    assert layer.caps_per_cell == 2
    assert bank.activations.shape == (1, 4 * 4 * 2, 8)


def test_primary_capsule_norms_below_one():
    rng = np.random.default_rng(1)
    layer = PrimaryCapsules(in_channels=2, out_channels=16, d=8, kernel=3, stride=1, rng=rng)
    bank = layer(leaf(rng.normal(size=(2, 2, 6, 6)) * 3.0))
    norms = np.linalg.norm(bank.activations.data, axis=-1)
    assert norms.max() < 1.0


def test_primary_capsules_shift_with_input_by_one_grid_cell():
    # Translating the input by exactly `stride` pixels moves every capsule one
    # grid cell: the representation shifts instead of forgetting the offset.
    rng = np.random.default_rng(2)
    layer = PrimaryCapsules(in_channels=2, out_channels=16, d=8, kernel=5, stride=2, rng=rng)
    full = rng.normal(size=(1, 2, 15, 13))
    upper = layer(leaf(full[:, :, :13, :]))
    lower = layer(leaf(full[:, :, 2:, :]))
    hg = wg = (13 - 5) // 2 + 1
    cpl = layer.caps_per_cell
    a = upper.activations.data.reshape(1, hg, wg, cpl, 8)
    b = lower.activations.data.reshape(1, hg, wg, cpl, 8)
    assert_allclose(a[:, 1:], b[:, :-1], rtol=0, atol=1e-12)


def test_primary_capsules_reject_indivisible_channels():
    with pytest.raises(ConfigurationError):
        PrimaryCapsules(in_channels=1, out_channels=12, d=8, kernel=9, stride=2,
                        rng=np.random.default_rng(0))


def test_primary_capsules_gradcheck():
    rng = np.random.default_rng(3)
    layer = PrimaryCapsules(in_channels=1, out_channels=8, d=4, kernel=3, stride=1, rng=rng)
    x = leaf(rng.normal(size=(1, 1, 5, 5)))
    weights = rng.normal(size=(1, 18, 4))

    def run():
        return (layer(x).activations * weights).sum()

    run().backward()
    for p in [x] + [t for _, t in layer.parameters()]:
        assert relative_error(p.grad, fd_gradient(run, p)) < 1e-5


# ------------------------------------------------------------ vote transforms


def grid_bank(rng, hg=2, wg=3, cpl=2, d=4) -> CapsuleBank:
    return CapsuleBank(leaf(rng.normal(size=(2, hg * wg * cpl, d))))


def test_constant_affine_sums_components():
    bank = CapsuleBank(leaf([[[1.0, 2.0, 3.0]]]))
    votes = ConstantAffine(n_out=4, d_out=5)(bank)
    assert votes.shape == (1, 1, 4, 5)
    assert_array_equal(votes.data, np.full((1, 1, 4, 5), 6.0))


def test_constant_affine_has_no_parameters():
    assert ConstantAffine(2, 16).parameters() == []


def test_shared_affine_identity_blocks_copy_input():
    rng = np.random.default_rng(7)
    n_in, d, n_out = 5, 4, 3
    layer = SharedAffine(n_in, d, n_out, d, rng=rng)
    layer.weight.data = np.tile(np.eye(d), (n_in, 1, n_out)).reshape(n_in, d, n_out * d)
    # tile lays eye side by side: weight[:, :, j*d:(j+1)*d] = eye for every j
    u = rng.normal(size=(2, n_in, d))
    votes = layer(CapsuleBank(leaf(u)))
    for j in range(n_out):
        assert_allclose(votes.data[:, :, j, :], u, atol=1e-15)


def test_shared_affine_matches_triple_loop_oracle():
    rng = np.random.default_rng(8)
    n_in, d_in, n_out, d_out = 6, 4, 2, 5
    layer = SharedAffine(n_in, d_in, n_out, d_out, rng=rng)
    u = rng.normal(size=(3, n_in, d_in))
    votes = layer(CapsuleBank(leaf(u))).data
    w = layer.weight.data.reshape(n_in, d_in, n_out, d_out)
    for b in range(3):
        for i in range(n_in):
            for j in range(n_out):
                want = np.zeros(d_out)
                for k in range(d_in):
                    want += u[b, i, k] * w[i, k, j]
                assert_allclose(votes[b, i, j], want, atol=1e-12)


def test_shared_affine_rejects_wrong_bank_shape():
    layer = SharedAffine(4, 3, 2, 5, rng=np.random.default_rng(0))
    with pytest.raises(DimensionError):
        layer(CapsuleBank(leaf(np.zeros((1, 5, 3)))))


def test_conv_affine_shapes_and_locality():
    rng = np.random.default_rng(9)
    bank = grid_bank(rng, hg=3, wg=3, cpl=2, d=4)
    layer = ConvAffine(grid=(3, 3), caps_per_cell=2, d_in=4, n_out=2, d_out=5, rng=rng)
    votes = layer(bank)
    assert votes.shape == (2, 18, 2, 5)

    # 3x3 kernel, padding 1: votes of the top-left cell cannot see the
    # bottom-right cell. Perturb the far corner and check the near corner.
    moved = bank.activations.data.copy()
    moved[:, -2:, :] += 10.0
    votes2 = layer(CapsuleBank(leaf(moved)))
    assert_allclose(votes2.data[:, :2], votes.data[:, :2], atol=1e-12)
    assert not np.allclose(votes2.data[:, -2:], votes.data[:, -2:])


@pytest.mark.parametrize("shape", [(1, 10, 4), (1, 14, 4), (1, 12, 3), (1, 12, 5)])
def test_conv_affine_rejects_a_bank_off_its_grid(shape):
    # Built for a 2x3 grid of two 4-d capsules per cell: 12 capsules of size 4.
    layer = ConvAffine(grid=(2, 3), caps_per_cell=2, d_in=4, n_out=2, d_out=5,
                       rng=np.random.default_rng(0))
    assert layer(CapsuleBank(leaf(np.zeros((1, 12, 4))))).shape == (1, 12, 2, 5)
    with pytest.raises(DimensionError, match="2x3 grid"):
        layer(CapsuleBank(leaf(np.zeros(shape))))


def test_conv_affine_gradcheck():
    rng = np.random.default_rng(10)
    bank = grid_bank(rng, hg=2, wg=2, cpl=2, d=3)
    layer = ConvAffine(grid=(2, 2), caps_per_cell=2, d_in=3, n_out=2, d_out=4, rng=rng)
    weights = rng.normal(size=(2, 8, 2, 4))

    def run():
        return (layer(bank) * weights).sum()

    run().backward()
    for p in [bank.activations] + [t for _, t in layer.parameters()]:
        assert relative_error(p.grad, fd_gradient(run, p)) < 1e-5


# ------------------------------------------------------------- heads and misc


def test_decoder_range_and_length():
    rng = np.random.default_rng(11)
    dec = Decoder(in_dim=8, out_dim=3 * 4 * 5, hidden=(128, 256), rng=rng)
    out = dec(leaf(rng.normal(size=(2, 8))))
    assert out.shape == (2, 60)
    assert np.all(out.data > 0.0) and np.all(out.data < 1.0)


def test_regression_head_zero_weights_outputs_bias():
    head = RegressionHead(in_dim=6, rng=np.random.default_rng(0))
    head.linear.weight.data[:] = 0.0
    head.linear.bias.data[:] = 0.7
    out = head(leaf(np.random.default_rng(12).normal(size=(4, 6))))
    assert out.shape == (4,)
    assert_allclose(out.data, np.full(4, 0.7), atol=1e-15)


def test_classify_hand_case_and_tie_rule():
    bank = np.zeros((2, 2, 3))
    bank[0, 0, 0] = 0.2  # class-0 capsule norm 0.2
    bank[0, 1, 0] = 0.8  # class-1 capsule norm 0.8
    bank[1, 0, 1] = 0.5  # tie: both norms 0.5
    bank[1, 1, 2] = 0.5
    preds, scores = classify(leaf(bank))
    assert preds.tolist() == [1, 0]  # ties go to the lower index
    assert_allclose(scores, [0.8, 0.5], atol=1e-12)


def test_classify_matches_scalar_loop():
    rng = np.random.default_rng(13)
    caps = rng.normal(size=(5, 4, 6))
    preds, scores = classify(leaf(caps))
    for b in range(5):
        norms = [np.linalg.norm(caps[b, j]) for j in range(4)]
        best = 0
        for j in range(1, 4):
            if norms[j] > norms[best]:
                best = j
        assert preds[b] == best
        assert_allclose(scores[b], norms[1], atol=1e-12)


def test_routing_spec_validation():
    with pytest.raises(ConfigurationError):
        RoutingSpec(method="nonsense")
    with pytest.raises(ConfigurationError):
        RoutingSpec(softmax_axis="diagonal")


@pytest.mark.parametrize("method", ["dynamic", "attention"])
def test_routing_spec_rejects_fewer_than_one_iteration(method):
    with pytest.raises(ConfigurationError, match="routing_iterations must be >= 1, got 0"):
        RoutingSpec(method, 0)


def test_routing_spec_is_frozen_and_hashable_like_the_other_config_dataclasses():
    # A Routing layer reads its spec on every call; changing it after the layer
    # is built would leave the layer's parameters out of step with its method.
    spec = RoutingSpec("attention")
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.method = "dynamic"
    assert hash(ModelConfig()) == hash(ModelConfig(routing=RoutingSpec()))


def test_routing_spec_rejects_a_fractional_iteration_count():
    with pytest.raises(ConfigurationError, match="routing_iterations must be an integer, got 2.5"):
        RoutingSpec("dynamic", 2.5)
    with pytest.raises(ConfigurationError, match="routing_iterations must be an integer"):
        RoutingSpec("dynamic", 2.0)
    assert RoutingSpec("dynamic", np.int64(2)).iterations == 2
