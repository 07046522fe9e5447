"""Model assembly: the capsule classifier and two plain-CNN baselines.

All models share one small protocol the trainer relies on:

* ``parameters()``  ordered list of (name, Tensor)
* ``training_loss(images, labels, reg_targets)``  scalar graph node + components
* ``predict(images)``  (predicted classes, positive-class scores)

``build_model`` wires an architecture from a ``ModelConfig`` and validates the
spatial arithmetic, reporting the computed shape chain when it breaks.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .capsules import (
    ConstantAffine,
    ConvAffine,
    Decoder,
    PrimaryCapsules,
    RegressionHead,
    Routing,
    RoutingSpec,
    SharedAffine,
    _Linear,
    classify,
    conv_params,
)
from .errors import ConfigurationError, check_integer
from .losses import (
    MarginLossParams,
    WeightedLossParams,
    one_hot,
    weighted_capsule_loss,
    weighted_cross_entropy,
)
from .tensor import Tensor, conv2d, maxpool2d, softmax, vector_norm

__all__ = ["ModelConfig", "CapsuleClassifier", "CnnClassifier", "build_model",
           "parameter_count", "save_params", "load_params"]

ARCHITECTURES = ("cardiocaps", "cnn1", "cnn2")
_PRIMARY_STRIDE = 2  # of the primary-capsule conv; sets the capsule grid the votes are built for
_MAX_WEIGHT = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize  # values numpy can index


def _check_weight_sizes(*weights: tuple[str, tuple[int, ...]]) -> None:
    """Reject, before any weight is allocated, a (keys, shape) weight numpy cannot hold."""
    for keys, shape in weights:
        if math.prod(int(n) for n in shape) > _MAX_WEIGHT:
            raise ConfigurationError(f"a weight of shape {shape}, set by {keys}, is past the "
                                     f"{_MAX_WEIGHT} float64 values one array can hold")


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
            check_integer(name, getattr(self, name), 1)
        if len(self.decoder_hidden) != 2:
            raise ConfigurationError(f"decoder_hidden must be two widths, got {self.decoder_hidden}")
        check_integer("decoder_hidden", self.decoder_hidden, 1)


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
        hg, wg = (h1 - k) // _PRIMARY_STRIDE + 1, (w1 - k) // _PRIMARY_STRIDE + 1
        if h1 < k or w1 < k or hg < 1 or wg < 1:
            raise ConfigurationError(
                f"image {h}x{w} with conv_kernel={k} leaves no primary grid: "
                f"conv stem {h1}x{w1} -> capsule grid {hg}x{wg}"
            )
        if cfg.hidden_dim % cfg.d_primary:
            raise ConfigurationError(
                f"hidden_dim={cfg.hidden_dim} channels do not split into capsules of "
                f"d_primary={cfg.d_primary}"
            )
        hd, cpc, d_caps = cfg.hidden_dim, cfg.hidden_dim // cfg.d_primary, cfg.n_classes * cfg.d_digit
        votes = {"shared": (hg * wg * cpc, cfg.d_primary, d_caps),
                 "conv": (cpc * d_caps, cpc * cfg.d_primary, 3, 3)}.get(cfg.affine_kind, ())
        _check_weight_sizes(("hidden_dim", (hd, c_img, k, k)), ("hidden_dim", (hd, hd, k, k)),
                            ("hidden_dim, d_digit", votes),
                            ("d_digit, decoder_hidden", (d_caps, cfg.decoder_hidden[0])),
                            ("decoder_hidden", cfg.decoder_hidden),
                            ("decoder_hidden", (cfg.decoder_hidden[1], c_img * h * w)))
        self.conv_weight, self.conv_bias = conv_params(hd, c_img, k, rng)
        self.primary = PrimaryCapsules(hd, hd, d=cfg.d_primary, kernel=k, stride=_PRIMARY_STRIDE, rng=rng)
        if cfg.affine_kind == "shared":
            self.affine = SharedAffine(hg * wg * cpc, cfg.d_primary, cfg.n_classes, cfg.d_digit, rng)
        elif cfg.affine_kind == "conv":
            self.affine = ConvAffine((hg, wg), cpc, cfg.d_primary, cfg.n_classes, cfg.d_digit, rng)
        else:
            self.affine = ConstantAffine(cfg.n_classes, cfg.d_digit)
        self.routing = Routing(cfg.routing, cfg.d_digit)
        self.decoder = Decoder(cfg.n_classes * cfg.d_digit, c_img * h * w, cfg.decoder_hidden, rng)
        self.reg_head = RegressionHead(cfg.n_classes * cfg.d_digit, rng)

    def digit_caps(self, images: Tensor) -> Tensor:
        """Digit capsules [B, n_classes, d_digit]: stem, primary capsules, votes, routing.

        Neither the stem's output nor the primary capsules are bound to a name,
        so without a graph each is freed once the next stage has read it.
        """
        votes = self.affine(self.primary(conv2d(images, self.conv_weight, self.conv_bias, relu=True)))
        return self.routing(votes)[0].activations

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
        trace.append(f"conv_kernel={k1} -> {h1}x{w1}")
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

        _check_weight_sizes(("hidden_dim", (hd, c_img, k1, k1)), ("hidden_dim", (hd, hd, k2, k2)),
                            ("hidden_dim", (hd * h2 * w2, cfg.n_classes)))
        self.w1, self.b1 = conv_params(hd, c_img, k1, rng)
        self.w2, self.b2 = conv_params(hd, hd, k2, rng)
        self.fc = _Linear(hd * h2 * w2, cfg.n_classes, rng, gain="linear")

    def forward(self, images: Tensor) -> Tensor:
        x = conv2d(images, self.w1, self.b1, relu=True)
        if self.pool_each:
            x = maxpool2d(x, 2)
        x = conv2d(x, self.w2, self.b2, relu=True)
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
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    if cfg.architecture == "cardiocaps":
        return CapsuleClassifier(cfg, image_size, margin, weighted, rng)
    return CnnClassifier(cfg, image_size, weighted, rng)


def parameter_count(model) -> int:
    return sum(p.data.size for _, p in model.parameters())


def save_params(model, path) -> None:
    """Write the parameters to ``path`` as ``np.savez`` would, member for member.

    Each member is the parameter's ``.npy`` header followed by the
    parameter's own buffer, so no copy of any array is staged. Unlike
    ``np.savez``, the path is used as given, with no ``.npz`` appended.
    """
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED, allowZip64=True) as archive:
        for name, p in model.parameters():
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, np.lib.format.header_data_from_array_1_0(p.data))
                member.write(p.data)


def load_params(model, path) -> None:
    """Copy a checkpoint into the model, which is left untouched if any check fails.

    Each archive member is read to its end, which is where zip checks its
    CRC-32: a damaged ``.npy`` header that shortens the array would otherwise
    load the wrong bytes unchecked. Every member is staged in full before the
    first is copied in; that staging is what keeps the model untouched when
    a later member is damaged.
    """
    stored = {}
    with open(path, "rb") as fh:  # a missing file raises its own OSError, as any open does
        try:
            with zipfile.ZipFile(fh) as archive:
                for member_name in archive.namelist():
                    with archive.open(member_name) as member:
                        array = np.lib.format.read_array(member, allow_pickle=False)
                        if member.read(1):
                            raise ValueError(f"{member_name} holds bytes past its array")
                    stored[member_name.removesuffix(".npy")] = array
        except Exception as err:  # on damage zipfile, numpy and tokenize raise eight types and more
            raise ConfigurationError(
                f"{path} is not a readable checkpoint: {type(err).__name__}: {err}"
            ) from None
    params = model.parameters()
    for name, p in params:
        if name not in stored:
            raise ConfigurationError(f"checkpoint is missing parameter {name!r}")
        if stored[name].shape != p.data.shape:
            raise ConfigurationError(
                f"checkpoint parameter {name!r} has shape {stored[name].shape}, "
                f"model expects {p.data.shape}"
            )
        if not np.can_cast(stored[name].dtype, np.float64, "same_kind"):
            raise ConfigurationError(
                f"checkpoint parameter {name!r} has non-real dtype {stored[name].dtype}"
            )
        if not np.isfinite(stored[name]).all():
            raise ConfigurationError(f"checkpoint parameter {name!r} holds NaN or inf")
    extra = set(stored) - {name for name, _ in params}
    if extra:
        raise ConfigurationError(f"checkpoint has unknown parameters: {sorted(extra)}")
    for name, p in params:
        np.copyto(p.data, stored[name])
