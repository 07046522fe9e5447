"""capsroute: capsule-network classification with swappable routing.

A small float64 research library built on numpy: a reverse-mode autodiff
tensor core, primary/digit capsule layers with dynamic or attention routing,
a class-weighted capsule loss with regression and reconstruction terms, a
synthetic echocardiogram-style dataset, and training/evaluation drivers with
deterministic seeding throughout.
"""

from __future__ import annotations

from .capsules import (
    CapsuleBank,
    ConstantAffine,
    ConvAffine,
    Decoder,
    PrimaryCapsules,
    RegressionHead,
    RoutingSpec,
    RoutingState,
    SharedAffine,
    attention_routing,
    classify,
    dynamic_routing,
    squash,
)
from .data import EchoDataset, SynthConfig, class_proportions, generate, load, save, split
from .errors import (
    CapsrouteError,
    ConfigurationError,
    ContractError,
    DataFormatError,
    DimensionError,
    StratificationError,
    TrainingAborted,
    UndefinedMetricError,
)
from .gradcheck import check_gradient, fd_gradient, relative_error, spot_check, standard_suite
from .losses import MarginLossParams, WeightedLossParams, margin_loss, one_hot, weighted_capsule_loss
from .metrics import MetricsReport, accuracy_score, f1_score, pr_auc, roc_auc
from .models import (
    CapsuleClassifier,
    CnnClassifier,
    ModelConfig,
    build_model,
    load_params,
    parameter_count,
    save_params,
)
from .optim import Adam
from .tensor import Tensor, no_grad
from .training import (
    EpochStats,
    ExperimentRecord,
    TrainConfig,
    evaluate,
    train,
    validation_loss,
)

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "CapsuleBank",
    "CapsuleClassifier",
    "CapsrouteError",
    "CnnClassifier",
    "ConfigurationError",
    "ConstantAffine",
    "ContractError",
    "ConvAffine",
    "DataFormatError",
    "Decoder",
    "DimensionError",
    "EchoDataset",
    "EpochStats",
    "ExperimentRecord",
    "MarginLossParams",
    "MetricsReport",
    "ModelConfig",
    "PrimaryCapsules",
    "RegressionHead",
    "RoutingSpec",
    "RoutingState",
    "SharedAffine",
    "StratificationError",
    "SynthConfig",
    "Tensor",
    "TrainConfig",
    "TrainingAborted",
    "UndefinedMetricError",
    "WeightedLossParams",
    "accuracy_score",
    "attention_routing",
    "build_model",
    "check_gradient",
    "class_proportions",
    "classify",
    "dynamic_routing",
    "evaluate",
    "f1_score",
    "fd_gradient",
    "generate",
    "load",
    "load_params",
    "margin_loss",
    "no_grad",
    "one_hot",
    "parameter_count",
    "pr_auc",
    "relative_error",
    "roc_auc",
    "save",
    "save_params",
    "split",
    "spot_check",
    "squash",
    "standard_suite",
    "train",
    "validation_loss",
    "weighted_capsule_loss",
    "__version__",
]
