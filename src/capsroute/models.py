"""Model assembly: the capsule classifier and two plain-CNN baselines.

All models share one small protocol the trainer relies on:

* ``parameters()``  ordered list of (name, Tensor)
* ``training_loss(images, labels, reg_targets)``  scalar graph node + components
* ``predict(images)``  (predicted classes, positive-class scores)

``build_model`` wires an architecture from a ``ModelConfig`` and validates the
spatial arithmetic, reporting the computed shape chain when it breaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .capsules import (
    Decoder,
    PrimaryCapsules,
    RegressionHead,
    RoutingSpec,
    _Linear,
    classify,
    conv_params,
    make_affine,
    make_routing,
)
from .errors import ConfigurationError
from .losses import (
    MarginLossParams,
    WeightedLossParams,
    one_hot,
    weighted_capsule_loss,
    weighted_cross_entropy,
)
from .tensor import Tensor, conv2d, maxpool2d, relu, softmax, vector_norm

__all__ = ["ModelConfig", "CapsuleClassifier", "CnnClassifier", "build_model",
           "parameter_count", "save_params", "load_params"]

ARCHITECTURES = ("cardiocaps", "cnn1", "cnn2")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; the defaults are the full-size capsule model.

    Labels are binary, so every model has two output classes (one digit
    capsule or logit each) and scores class 1, the positive class.
    """

    n_classes: ClassVar[int] = 2

    architecture: str = "cardiocaps"
    hidden_dim: int = 32
    conv_kernel: int = 9
    d_primary: int = 8
    d_digit: int = 16
    affine_kind: str = "shared"  # "shared" | "conv" | "constant"
    routing: RoutingSpec = field(default_factory=RoutingSpec)
    decoder_hidden: tuple[int, int] = (128, 256)

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ConfigurationError(f"unknown architecture: {self.architecture!r}")
        if self.affine_kind not in ("shared", "conv", "constant"):
            raise ConfigurationError(f"unknown affine_kind: {self.affine_kind!r}")
        for name in ("hidden_dim", "conv_kernel", "d_primary", "d_digit"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")
        if min(self.decoder_hidden) < 1:
            raise ConfigurationError(f"decoder_hidden widths must be >= 1, got {self.decoder_hidden}")


class CapsuleClassifier:
    """Conv stem, primary capsules, vote transform, routing, and three read-outs.

    Class presence is the digit-capsule length; a linear head regresses the
    chamber width and a decoder reconstructs the image, both read from the
    full digit-capsule block. The two heads only shape training, so ``predict``
    reads the capsule lengths alone.
    """

    def __init__(
        self,
        cfg: ModelConfig,
        image_size: tuple[int, int, int],
        margin: MarginLossParams,
        weighted: WeightedLossParams,
        rng: np.random.Generator,
    ):
        self.cfg = cfg
        self.margin = margin
        self.weighted = weighted
        c_img, h, w = image_size
        k = cfg.conv_kernel

        h1, w1 = h - k + 1, w - k + 1
        hg, wg = (h1 - k) // 2 + 1, (w1 - k) // 2 + 1
        if h1 < k or w1 < k or hg < 1 or wg < 1:
            raise ConfigurationError(
                f"image {h}x{w} with kernel {k} leaves no primary grid: "
                f"conv stem {h1}x{w1} -> capsule grid {hg}x{wg}"
            )
        self.conv_weight, self.conv_bias = conv_params(cfg.hidden_dim, c_img, k, rng)
        self.primary = PrimaryCapsules(
            cfg.hidden_dim, cfg.hidden_dim, d=cfg.d_primary, kernel=k, stride=2, rng=rng
        )
        n_in = hg * wg * self.primary.caps_per_cell
        self.grid = (hg, wg)
        self.affine = make_affine(
            cfg.affine_kind,
            n_in=n_in,
            d_in=cfg.d_primary,
            n_out=cfg.n_classes,
            d_out=cfg.d_digit,
            caps_per_cell=self.primary.caps_per_cell,
            rng=rng,
        )
        self.routing = make_routing(cfg.routing, cfg.d_digit)
        self.decoder = Decoder(cfg.n_classes * cfg.d_digit, c_img * h * w, cfg.decoder_hidden, rng)
        self.reg_head = RegressionHead(cfg.n_classes * cfg.d_digit, rng)

    def digit_caps(self, images: Tensor) -> Tensor:
        """Digit capsules [B, n_classes, d_digit]: stem, primary capsules, votes, routing."""
        x = relu(conv2d(images, self.conv_weight) + self.conv_bias.reshape((1, -1, 1, 1)))
        return self.routing(self.affine(self.primary(x)))[0].activations

    def training_loss(self, images: Tensor, labels: np.ndarray, reg_targets: np.ndarray):
        v = self.digit_caps(images)
        targets = one_hot(labels, self.cfg.n_classes)
        flat = images.data.reshape(images.shape[0], -1)
        return weighted_capsule_loss(
            vector_norm(v), targets, self.reg_head(v), reg_targets, self.decoder(v), flat,
            self.margin, self.weighted,
        )

    def predict(self, images: Tensor) -> tuple[np.ndarray, np.ndarray]:
        return classify(self.digit_caps(images))

    def parameters(self) -> list[tuple[str, Tensor]]:
        params = [("conv.weight", self.conv_weight), ("conv.bias", self.conv_bias)]
        params += [(f"primary.{n}", t) for n, t in self.primary.parameters()]
        params += [(f"votes.{n}", t) for n, t in self.affine.parameters()]
        params += [(f"routing.{n}", t) for n, t in self.routing.parameters()]
        params += [(f"decoder.{n}", t) for n, t in self.decoder.parameters()]
        params += [(f"regression.{n}", t) for n, t in self.reg_head.parameters()]
        return params


class CnnClassifier:
    """Two-conv baseline. Variant 1 pools after every conv; variant 2 only after the last."""

    def __init__(
        self,
        cfg: ModelConfig,
        image_size: tuple[int, int, int],
        weighted: WeightedLossParams,
        rng: np.random.Generator,
    ):
        self.cfg = cfg
        self.weighted = weighted
        self.pool_each = cfg.architecture == "cnn1"
        c_img, h, w = image_size
        k1, k2 = cfg.conv_kernel, 5
        hd = cfg.hidden_dim

        trace = [f"input {h}x{w}"]
        h1, w1 = h - k1 + 1, w - k1 + 1
        trace.append(f"conv{k1} -> {h1}x{w1}")
        if self.pool_each:
            if h1 % 2 or w1 % 2:
                raise ConfigurationError("pooling needs even extents: " + ", ".join(trace))
            h1, w1 = h1 // 2, w1 // 2
            trace.append(f"pool2 -> {h1}x{w1}")
        h2, w2 = h1 - k2 + 1, w1 - k2 + 1
        trace.append(f"conv{k2} -> {h2}x{w2}")
        if h2 < 2 or w2 < 2 or h2 % 2 or w2 % 2:
            raise ConfigurationError("spatial arithmetic failed: " + ", ".join(trace))
        h2, w2 = h2 // 2, w2 // 2
        trace.append(f"pool2 -> {h2}x{w2}")

        self.w1, self.b1 = conv_params(hd, c_img, k1, rng)
        self.w2, self.b2 = conv_params(hd, hd, k2, rng)
        self.fc = _Linear(hd * h2 * w2, cfg.n_classes, rng, gain="linear")

    def forward(self, images: Tensor) -> Tensor:
        x = relu(conv2d(images, self.w1) + self.b1.reshape((1, -1, 1, 1)))
        if self.pool_each:
            x = maxpool2d(x, 2)
        x = relu(conv2d(x, self.w2) + self.b2.reshape((1, -1, 1, 1)))
        x = maxpool2d(x, 2)
        x = x.reshape((x.shape[0], -1))
        return self.fc(x)

    def training_loss(self, images: Tensor, labels: np.ndarray, reg_targets: np.ndarray):
        logits = self.forward(images)
        targets = one_hot(labels, self.cfg.n_classes)
        loss = weighted_cross_entropy(logits, targets, self.weighted.class_weights())
        value = loss.item()
        return loss, {"classification": value, "regression": 0.0, "reconstruction": 0.0, "total": value}

    def predict(self, images: Tensor) -> tuple[np.ndarray, np.ndarray]:
        logits = self.forward(images)
        probs = softmax(logits, axis=1).data
        preds = logits.data.argmax(axis=1).astype(np.int64)
        return preds, probs[:, 1].copy()

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [
            ("conv1.weight", self.w1),
            ("conv1.bias", self.b1),
            ("conv2.weight", self.w2),
            ("conv2.bias", self.b2),
        ] + [(f"fc.{n}", t) for n, t in self.fc.parameters()]


def build_model(
    cfg: ModelConfig,
    image_size: tuple[int, int, int],
    margin: MarginLossParams,
    weighted: WeightedLossParams,
    seed: int,
):
    """Construct the configured architecture with its own deterministic init stream."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    if cfg.architecture == "cardiocaps":
        return CapsuleClassifier(cfg, image_size, margin, weighted, rng)
    return CnnClassifier(cfg, image_size, weighted, rng)


def parameter_count(model) -> int:
    return sum(p.data.size for _, p in model.parameters())


def save_params(model, path) -> None:
    np.savez(path, **{name: p.data for name, p in model.parameters()})


def load_params(model, path) -> None:
    """Copy a checkpoint into the model, which is left untouched if any check fails."""
    with np.load(path) as archive:
        stored = dict(archive)
    params = model.parameters()
    for name, p in params:
        if name not in stored:
            raise ConfigurationError(f"checkpoint is missing parameter {name!r}")
        if stored[name].shape != p.data.shape:
            raise ConfigurationError(
                f"checkpoint parameter {name!r} has shape {stored[name].shape}, "
                f"model expects {p.data.shape}"
            )
        if not np.isfinite(stored[name]).all():
            raise ConfigurationError(f"checkpoint parameter {name!r} holds NaN or inf")
    extra = set(stored) - {name for name, _ in params}
    if extra:
        raise ConfigurationError(f"checkpoint has unknown parameters: {sorted(extra)}")
    for name, p in params:
        p.data = stored[name].astype(np.float64)
