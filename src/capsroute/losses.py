"""Training objectives: margin loss, its class-weighted variant, and weighted CE."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError
from .tensor import Tensor, log_softmax, relu, scale, square

__all__ = [
    "MarginLossParams",
    "WeightedLossParams",
    "margin_terms",
    "margin_loss",
    "weighted_capsule_loss",
    "weighted_cross_entropy",
    "one_hot",
]


@dataclass(frozen=True)
class MarginLossParams:
    """Margin thresholds: present capsules pushed above ``m_plus``, absent below ``m_minus``."""

    m_plus: float = 0.9
    m_minus: float = 0.1
    negative_weight: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.m_minus < self.m_plus <= 1.0):
            raise ConfigurationError(
                f"margins must satisfy 0 <= m_minus < m_plus <= 1, got "
                f"({self.m_minus}, {self.m_plus})"
            )
        if self.negative_weight < 0:
            raise ConfigurationError(f"negative_weight must be >= 0, got {self.negative_weight}")


@dataclass(frozen=True)
class WeightedLossParams:
    """Class weighting plus the two auxiliary terms of the capsule objective.

    ``weight_mode`` chooses how training-set class proportions p_k become
    per-class weights: ``literal`` uses p_k itself, ``inverse`` uses 1 - p_k
    (minority classes weigh more), and ``uniform`` fixes every weight to 1,
    which reduces the classification term to the plain margin loss.
    """

    class_proportions: tuple[float, ...] = (0.5, 0.5)
    weight_mode: str = "inverse"  # "literal" | "inverse" | "uniform"
    lambda_reg: float = 0.05
    lambda_recon: float = 0.0005

    def __post_init__(self):
        if self.weight_mode not in ("literal", "inverse", "uniform"):
            raise ConfigurationError(f"unknown weight_mode: {self.weight_mode!r}")
        if self.lambda_reg < 0 or self.lambda_recon < 0:
            raise ConfigurationError(
                f"loss multipliers must be >= 0, got lambda_reg={self.lambda_reg}, "
                f"lambda_recon={self.lambda_recon}"
            )
        p = np.asarray(self.class_proportions, dtype=np.float64)
        if p.ndim != 1 or p.size < 2 or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
            raise ConfigurationError(
                f"class_proportions must be non-negative and sum to 1, got {self.class_proportions}"
            )

    def class_weights(self) -> np.ndarray:
        p = np.asarray(self.class_proportions, dtype=np.float64)
        if self.weight_mode == "literal":
            return p
        if self.weight_mode == "inverse":
            return 1.0 - p
        return np.ones_like(p)


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels.astype(np.int64)] = 1.0
    return out


def _validate_targets(targets: np.ndarray, shape: tuple) -> np.ndarray:
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != shape:
        raise ContractError(f"targets shape {t.shape} does not match capsule norms {shape}")
    onehot = np.all((t == 0.0) | (t == 1.0)) and np.all(t.sum(axis=1) == 1.0)
    if not onehot:
        raise ContractError("targets must be one-hot rows (exactly one 1 per sample)")
    return t


def margin_terms(norms: Tensor, targets: np.ndarray, params: MarginLossParams) -> Tensor:
    """Per-sample, per-class margin penalties, shape [B, C].

    Present classes pay (m_plus - |v|)_+^2, absent ones pay the down-weighted
    (|v| - m_minus)_+^2.
    """
    t = Tensor(_validate_targets(targets, norms.shape))
    present = square(relu(params.m_plus - norms))
    absent = square(relu(norms - params.m_minus))
    return t * present + scale((1.0 - t) * absent, params.negative_weight)


def margin_loss(norms: Tensor, targets: np.ndarray, params: MarginLossParams | None = None) -> Tensor:
    """Mean over the batch of summed per-class margin penalties."""
    params = params or MarginLossParams()
    return margin_terms(norms, targets, params).sum(axis=1).mean()


def weighted_capsule_loss(
    norms: Tensor,
    targets: np.ndarray,
    reg_pred: Tensor,
    reg_true: np.ndarray,
    recon: Tensor,
    images_flat: np.ndarray,
    margin: MarginLossParams,
    weighted: WeightedLossParams,
) -> tuple[Tensor, dict[str, float]]:
    """Class-weighted margin loss plus scaled regression and reconstruction MSE.

    Returns the scalar total (a graph node) and a component breakdown of
    already-scaled contributions for logging. With uniform weights and both
    multipliers zero the total equals ``margin_loss``.
    """
    weights = weighted.class_weights()
    if weights.shape[0] != norms.shape[1]:
        raise ConfigurationError(
            f"{weights.shape[0]} class proportions for {norms.shape[1]} capsule classes"
        )
    terms = margin_terms(norms, targets, margin)
    classification = (terms * Tensor(weights[None, :])).sum(axis=1).mean()
    residual = square(reg_pred - Tensor(np.asarray(reg_true, dtype=np.float64))).mean()
    regression = scale(residual, weighted.lambda_reg)
    residual = square(recon - Tensor(np.asarray(images_flat, dtype=np.float64))).mean()
    reconstruction = scale(residual, weighted.lambda_recon)
    total = classification + regression + reconstruction
    parts = {"classification": classification, "regression": regression,
             "reconstruction": reconstruction, "total": total}
    return total, {name: part.item() for name, part in parts.items()}


def weighted_cross_entropy(
    logits: Tensor, targets: np.ndarray, class_weights: np.ndarray
) -> Tensor:
    """Mean over the batch of w_y * (-log softmax(logits)_y), finite for any finite logits."""
    t = _validate_targets(targets, logits.shape)
    picked = Tensor(t * np.asarray(class_weights, dtype=np.float64)[None, :])
    logp = log_softmax(logits, axis=1)
    return scale((picked * logp).sum(axis=1).mean(), -1.0)
