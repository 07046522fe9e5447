"""Loss functions: hand-computed values, reductions, and gradients."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from capsroute.errors import ConfigurationError, ContractError
from capsroute.gradcheck import fd_gradient, relative_error
from capsroute.losses import (
    MarginLossParams,
    WeightedLossParams,
    margin_loss,
    margin_terms,
    one_hot,
    weighted_capsule_loss,
    weighted_cross_entropy,
)
from capsroute.tensor import Tensor


def leaf(values) -> Tensor:
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


DEFAULTS = MarginLossParams()


def exact_heads(bsz):
    """Regression and reconstruction outputs equal to their targets: both residuals are 0."""
    reg, pixels = np.full(bsz, 0.3), np.full((bsz, 4), 0.5)
    return leaf(reg), reg, leaf(pixels), pixels


def margin_loss_oracle(norms, targets, m_plus=0.9, m_minus=0.1, lam=0.5):
    """Scalar-loop margin loss written from the definition."""
    bsz, n_classes = norms.shape
    total = 0.0
    for b in range(bsz):
        for k in range(n_classes):
            present = max(0.0, m_plus - norms[b, k]) ** 2
            absent = max(0.0, norms[b, k] - m_minus) ** 2
            total += targets[b, k] * present + lam * (1.0 - targets[b, k]) * absent
    return total / bsz


# ----------------------------------------------------------------- margin loss


def test_margin_at_upper_margin_contributes_zero():
    norms = leaf([[0.9, 0.0]])
    terms = margin_terms(norms, np.array([[1.0, 0.0]]), DEFAULTS)
    assert_allclose(terms.data, [[0.0, 0.0]], atol=1e-15)


def test_margin_present_class_below_margin():
    norms = leaf([[0.4, 0.0]])
    terms = margin_terms(norms, np.array([[1.0, 0.0]]), DEFAULTS)
    assert_allclose(terms.data[0, 0], 0.25, atol=1e-12)  # (0.9 - 0.4)^2


def test_margin_absent_class_above_margin():
    norms = leaf([[0.0, 0.6]])
    terms = margin_terms(norms, np.array([[1.0, 0.0]]), DEFAULTS)
    assert_allclose(terms.data[0, 1], 0.125, atol=1e-12)  # 0.5 * (0.6 - 0.1)^2


def test_margin_loss_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        bsz = int(rng.integers(1, 8))
        n = int(rng.integers(2, 5))
        norms = rng.uniform(0.0, 1.0, size=(bsz, n))
        labels = rng.integers(0, n, size=bsz)
        targets = one_hot(labels, n)
        got = margin_loss(leaf(norms), targets).item()
        want = margin_loss_oracle(norms, targets)
        assert_allclose(got, want, rtol=1e-12)


def test_margin_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    norms = leaf(rng.uniform(0.05, 0.95, size=(4, 3)))
    targets = one_hot(np.array([0, 2, 1, 0]), 3)

    def run():
        return margin_loss(norms, targets)

    run().backward()
    assert relative_error(norms.grad, fd_gradient(run, norms)) < 1e-6


@pytest.mark.parametrize("labels, first_bad", [([0, 1, -1], "-1 at index 2"), ([0.7, 1], "0.7 at index 0"),
                                               ([1, 2, 3], "2 at index 1"), ([0, np.nan], "nan at index 1")])
def test_one_hot_rejects_labels_outside_the_classes_naming_the_first(labels, first_bad):
    # Unchecked, -1 indexes class 1, 0.7 truncates to class 0 and 2 raises a raw IndexError.
    with pytest.raises(ContractError, match=rf"in \[0, 2\), got {first_bad}"):
        one_hot(np.array(labels), 2)


def test_one_hot_accepts_integral_labels_of_any_dtype():
    want = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    for labels in (np.array([0, 1, 1], np.uint8), np.array([0, 1, 1]), np.array([0.0, 1.0, 1.0])):
        assert np.array_equal(one_hot(labels, 2), want)


def test_margin_rejects_non_one_hot_targets():
    with pytest.raises(ContractError):
        margin_loss(leaf([[0.5, 0.5]]), np.array([[0.5, 0.5]]))
    with pytest.raises(ContractError):
        margin_loss(leaf([[0.5, 0.5]]), np.array([[1.0, 1.0]]))


# ------------------------------------------------------------- weighted total


def test_literal_mode_hand_case():
    # Per-class margin terms (0.1 for class 0, 0.4 for class 1) weighted by
    # literal proportions (0.8, 0.2): 0.8*0.1 + 0.2*0.4 = 0.16.
    params = WeightedLossParams(class_proportions=(0.8, 0.2), weight_mode="literal",
                                lambda_reg=0.0, lambda_recon=0.0)
    # Choose norms that yield exactly those margin terms for target class 1:
    # class 0 absent with norm 0.1 + sqrt(0.2): 0.5*(sqrt(0.2))^2 = 0.1
    # class 1 present with norm 0.9 - sqrt(0.4): (sqrt(0.4))^2 = 0.4
    norms = leaf([[0.1 + np.sqrt(0.2), 0.9 - np.sqrt(0.4)]])
    targets = np.array([[0.0, 1.0]])
    total, parts = weighted_capsule_loss(norms, targets, *exact_heads(1), DEFAULTS, params)
    assert_allclose(total.item(), 0.16, rtol=1e-12)
    assert_allclose(parts["classification"], 0.16, rtol=1e-12)
    assert parts["regression"] == 0.0
    assert parts["reconstruction"] == 0.0


def test_uniform_weights_and_zero_multipliers_reduce_to_margin_loss():
    rng = np.random.default_rng(2)
    norms_data = rng.uniform(0.0, 1.0, size=(6, 2))
    targets = one_hot(rng.integers(0, 2, size=6), 2)
    params = WeightedLossParams(weight_mode="uniform", lambda_reg=0.0, lambda_recon=0.0)
    total, _ = weighted_capsule_loss(leaf(norms_data), targets, *exact_heads(6), DEFAULTS, params)
    assert_allclose(total.item(), margin_loss(leaf(norms_data), targets).item(), rtol=1e-14)


def test_inverse_mode_flips_proportions():
    params = WeightedLossParams(class_proportions=(0.8, 0.2), weight_mode="inverse")
    assert_allclose(params.class_weights(), [0.2, 0.8], atol=1e-15)


def test_perfect_regression_contributes_zero():
    params = WeightedLossParams(lambda_reg=0.5, lambda_recon=0.0)
    reg, pixels = np.array([0.3, 0.7]), np.full((2, 4), 0.5)
    total, parts = weighted_capsule_loss(
        leaf([[0.9, 0.1], [0.9, 0.1]]), one_hot(np.array([0, 0]), 2),
        leaf(reg), reg, leaf(pixels), pixels, DEFAULTS, params,
    )
    assert parts["regression"] == 0.0


def test_component_breakdown_sums_to_total():
    rng = np.random.default_rng(3)
    params = WeightedLossParams(class_proportions=(0.75, 0.25), lambda_reg=0.05,
                                lambda_recon=0.0005)
    norms = leaf(rng.uniform(0, 1, size=(4, 2)))
    reg_pred = leaf(rng.normal(size=4))
    reg_true = rng.normal(size=4)
    recon = leaf(rng.uniform(0, 1, size=(4, 25)))
    images = rng.uniform(0, 1, size=(4, 25))
    targets = one_hot(rng.integers(0, 2, size=4), 2)
    total, parts = weighted_capsule_loss(norms, targets, reg_pred, reg_true, recon,
                                         images, DEFAULTS, params)
    assert_allclose(parts["classification"] + parts["regression"] + parts["reconstruction"],
                    total.item(), rtol=1e-12)
    scaled_reg = 0.05 * np.mean((reg_pred.data - reg_true) ** 2)
    assert_allclose(parts["regression"], scaled_reg, rtol=1e-12)


def test_weighted_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    params = WeightedLossParams(class_proportions=(0.7, 0.3), lambda_reg=0.05,
                                lambda_recon=0.0005)
    norms = leaf(rng.uniform(0.05, 0.95, size=(3, 2)))
    reg_pred = leaf(rng.normal(size=3))
    reg_true = rng.normal(size=3)
    recon = leaf(rng.uniform(0.1, 0.9, size=(3, 16)))
    images = rng.uniform(0, 1, size=(3, 16))
    targets = one_hot(np.array([1, 0, 1]), 2)

    def run():
        total, _ = weighted_capsule_loss(norms, targets, reg_pred, reg_true, recon,
                                         images, DEFAULTS, params)
        return total

    run().backward()
    for p in (norms, reg_pred, recon):
        assert relative_error(p.grad, fd_gradient(run, p)) < 1e-6


def test_weighted_params_validation():
    with pytest.raises(ConfigurationError):
        WeightedLossParams(weight_mode="exotic")
    with pytest.raises(ConfigurationError):
        WeightedLossParams(class_proportions=(0.5, 0.4))
    with pytest.raises(ConfigurationError):
        WeightedLossParams(lambda_reg=-0.1)
    with pytest.raises(ConfigurationError):
        MarginLossParams(m_plus=0.1, m_minus=0.9)


def test_mismatched_class_count_rejected():
    params = WeightedLossParams(class_proportions=(0.5, 0.3, 0.2))
    with pytest.raises(ConfigurationError):
        weighted_capsule_loss(leaf(np.zeros((1, 2))), np.array([[1.0, 0.0]]),
                              *exact_heads(1), DEFAULTS, params)


# -------------------------------------------------------------- cross entropy


def test_weighted_cross_entropy_uniform_logits():
    # Uniform logits give probability 1/2 to each class; with unit weights the
    # loss is ln 2 regardless of targets.
    logits = leaf(np.zeros((4, 2)))
    targets = one_hot(np.array([0, 1, 1, 0]), 2)
    loss = weighted_cross_entropy(logits, targets, np.ones(2))
    assert_allclose(loss.item(), np.log(2.0), rtol=1e-12)


def test_weighted_cross_entropy_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    logits_data = rng.normal(size=(5, 3))
    labels = rng.integers(0, 3, size=5)
    targets = one_hot(labels, 3)
    weights = np.array([0.2, 0.5, 0.3])
    got = weighted_cross_entropy(leaf(logits_data), targets, weights).item()
    want = 0.0
    for b in range(5):
        z = logits_data[b]
        log_probs = z - np.log(np.sum(np.exp(z)))
        want += -weights[labels[b]] * log_probs[labels[b]]
    want /= 5
    assert_allclose(got, want, rtol=1e-12)


def test_weighted_cross_entropy_gradient():
    rng = np.random.default_rng(6)
    logits = leaf(rng.normal(size=(4, 2)))
    targets = one_hot(rng.integers(0, 2, size=4), 2)

    def run():
        return weighted_cross_entropy(logits, targets, np.array([0.3, 0.7]))

    run().backward()
    assert relative_error(logits.grad, fd_gradient(run, logits)) < 1e-6


def test_weighted_cross_entropy_is_finite_for_large_logit_gaps():
    # log(softmax(.)) underflows to log(0) = -inf once the gap passes ~745;
    # the fused log-softmax keeps a confident correct prediction at zero loss.
    logits = leaf([[0.0, 800.0], [800.0, 0.0]])
    targets = one_hot(np.array([1, 1]), 2)
    loss = weighted_cross_entropy(logits, targets, np.ones(2))
    loss.backward()
    assert_allclose(loss.item(), 400.0, rtol=1e-12)
    assert_allclose(logits.grad, [[0.0, 0.0], [0.5, -0.5]], rtol=0, atol=1e-12)
