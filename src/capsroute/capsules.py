"""Capsule layers: squashing, primary capsules, vote transforms, and routing.

A capsule is a vector whose direction encodes instantiation parameters and
whose length (always < 1 after squashing) encodes presence. Votes are rank-4
tensors [B, N_in, N_out, D_out]: one predicted output vector per
(input capsule, output capsule) pair. Routing turns votes into output
capsules, either iteratively (dynamic agreement) or in a single attention
pass; the ``Routing`` layer runs the one its ``RoutingSpec`` names.

Both routing algorithms work on the transposed view [B, N_out, N_in, D_out]
of the votes, with the input-capsule axis next to the vector axis, so every
sum over input capsules or vector components is one batched matrix product.
``SharedAffine`` computes its votes in the matching layout, [N_in, B, ...],
and returns them as a [B, N_in, N_out, D_out] view, so no layout is copied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError, check_fields, check_integer
from .tensor import (
    Tensor,
    conv2d,
    matmul,
    relu,
    sigmoid,
    softmax,
    square,
    vector_norm,
)

__all__ = [
    "squash",
    "conv_params",
    "CapsuleBank",
    "PrimaryCapsules",
    "SharedAffine",
    "ConvAffine",
    "ConstantAffine",
    "RoutingSpec",
    "RoutingState",
    "dynamic_routing",
    "attention_routing",
    "Routing",
    "make_routing",
    "Decoder",
    "RegressionHead",
    "classify",
]


# Past this norm n^2 / (1 + n^2) rounds to 1, well before (1 + n^2)^2 overflows at ~1e77.
_SQUASH_RESCALE = 2.0**64


def squash(s: Tensor) -> Tensor:
    """Shrink vectors along the last axis to length n^2 / (1 + n^2).

    Direction is preserved and the output norm is strictly below 1; the zero
    vector maps to itself. Computed as s * n / (1 + n^2) with the guarded
    ``vector_norm``. A vector with n past ``_SQUASH_RESCALE``, or past float
    max, where n is ``inf``, is first scaled by an exact power of two that
    brings its largest component to ~2^32: its squash, the unit direction, is
    the same in floating point, and n^2 no longer overflows in the gain or
    its gradient.
    """
    with np.errstate(over="ignore"):  # a norm past float max reads inf until rescaled
        n = vector_norm(s)
    small = n.data <= _SQUASH_RESCALE  # False for an inf norm
    if not small.all():
        top = np.abs(s.data).max(axis=-1)
        s = s * np.ldexp(1.0, np.where(small, 0, 32 - np.frexp(top)[1]))[..., None]
        n = vector_norm(s)
    gain = n / (1.0 + square(n))
    return s * gain.reshape(gain.shape + (1,))


def _normal(rng: np.random.Generator, shape: tuple[int, ...], fan: int) -> Tensor:
    """Trainable N(0, 2 / fan) weights: He-normal for fan-in, Glorot for fan-in + fan-out."""
    return Tensor._adopt(rng.normal(0.0, np.sqrt(2.0 / fan), size=shape))


def conv_params(c_out: int, c_in: int, k: int, rng: np.random.Generator) -> tuple[Tensor, Tensor]:
    """He-normal kernels [c_out, c_in, k, k] and a zero bias, drawn from ``rng``."""
    return _normal(rng, (c_out, c_in, k, k), c_in * k * k), Tensor._adopt(np.zeros(c_out))


@dataclass
class CapsuleBank:
    """A set of capsule vectors; a layer that needs their grid is built with it."""

    activations: Tensor  # [B, n_caps, d]


class PrimaryCapsules:
    """Strided convolution whose output channels regroup into squashed capsules.

    Channel c of grid cell (gy, gx) contributes component c % d of capsule
    (gy * W + gx) * caps_per_cell + c // d, i.e. capsules enumerate the grid
    row-major with ``caps_per_cell`` vectors per cell.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        d: int,
        kernel: int,
        stride: int,
        rng: np.random.Generator,
    ):
        if out_channels % d:
            raise ConfigurationError(
                f"primary capsules need out_channels divisible by capsule size: "
                f"{out_channels} % {d} != 0"
            )
        self.caps_per_cell = out_channels // d
        self.d = d
        self.stride = stride
        self.weight, self.bias = conv_params(out_channels, in_channels, kernel, rng)

    def __call__(self, features: Tensor) -> CapsuleBank:
        z = conv2d(features, self.weight, self.bias, stride=self.stride)
        bsz, ch, hg, wg = z.shape
        caps = z.reshape((bsz, self.caps_per_cell, self.d, hg, wg))
        caps = caps.transpose((0, 3, 4, 1, 2))
        caps = caps.reshape((bsz, hg * wg * self.caps_per_cell, self.d))
        return CapsuleBank(squash(caps))

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("weight", self.weight), ("bias", self.bias)]


# ---------------------------------------------------------------- vote transforms
class SharedAffine:
    """One learned D_in x (N_out * D_out) matrix per input capsule."""

    def __init__(
        self,
        n_in: int,
        d_in: int,
        n_out: int,
        d_out: int,
        rng: np.random.Generator,
    ):
        self.n_out, self.d_out = n_out, d_out
        std = 1.0 / np.sqrt(d_in)
        self.weight = Tensor._adopt(rng.normal(0.0, std, size=(n_in, d_in, n_out * d_out)))

    def __call__(self, bank: CapsuleBank) -> Tensor:
        u = bank.activations
        bsz, n, d = u.shape
        if (n, d) != self.weight.shape[:2]:
            raise DimensionError(
                f"shared affine built for {self.weight.shape[:2]} capsules, got {(n, d)}"
            )
        votes = matmul(u.transpose((1, 0, 2)), self.weight)  # [N, B, J*D]
        return votes.reshape((n, bsz, self.n_out, self.d_out)).transpose((1, 0, 2, 3))

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("weight", self.weight)]


class ConvAffine:
    """Votes from a small convolution over the primary-capsule grid.

    The capsule bank is laid back out as a feature map and convolved with a
    3x3 kernel at padding 1 emitting caps_per_cell * N_out * D_out channels, so
    every input capsule still produces one vote per output capsule.
    """

    def __init__(
        self,
        grid: tuple[int, int],
        caps_per_cell: int,
        d_in: int,
        n_out: int,
        d_out: int,
        rng: np.random.Generator,
    ):
        self.grid, self.caps_per_cell, self.d_in = grid, caps_per_cell, d_in
        self.n_out, self.d_out = n_out, d_out
        self.weight, self.bias = conv_params(
            caps_per_cell * n_out * d_out, caps_per_cell * d_in, 3, rng
        )

    def __call__(self, bank: CapsuleBank) -> Tensor:
        u = bank.activations
        bsz, n, d = u.shape
        (hg, wg), cpl = self.grid, self.caps_per_cell
        if (n, d) != (hg * wg * cpl, self.d_in):
            raise DimensionError(f"conv affine built for a {hg}x{wg} grid of {cpl} capsules of size "
                                 f"{self.d_in} per cell, got {n} capsules of size {d}")
        fmap = u.reshape((bsz, hg, wg, cpl, self.d_in))
        fmap = fmap.transpose((0, 3, 4, 1, 2)).reshape((bsz, cpl * self.d_in, hg, wg))
        z = conv2d(fmap, self.weight, self.bias, padding=1)
        votes = z.reshape((bsz, cpl, self.n_out, self.d_out, hg, wg))
        votes = votes.transpose((0, 4, 5, 1, 2, 3))
        return votes.reshape((bsz, n, self.n_out, self.d_out))

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("weight", self.weight), ("bias", self.bias)]


class ConstantAffine:
    """Fixed all-ones transform: every vote component is the sum of the input capsule.

    Has no learnable parameters; useful as an ablation of what the vote
    transform contributes.
    """

    def __init__(self, n_out: int, d_out: int):
        self.template = Tensor(np.ones((n_out, d_out)))

    def __call__(self, bank: CapsuleBank) -> Tensor:
        u = bank.activations
        bsz, n, _ = u.shape
        totals = u.sum(axis=-1).reshape((bsz, n, 1, 1))
        return totals * self.template

    def parameters(self) -> list[tuple[str, Tensor]]:
        return []


# ---------------------------------------------------------------------- routing
_SOFTMAX_AXES = {"input_caps": 2, "output_caps": 1}  # softmax axis of the [B, N_out, N_in] logits


@dataclass(frozen=True)
class RoutingSpec:
    """How votes become output capsules.

    ``iterations`` only matters for the dynamic method; the attention fields
    only matter for the attention method.
    """

    method: str = field(default="attention", metadata={"key": "routing_method",
                                                         "choices": ("dynamic", "attention")})
    iterations: int = field(default=3, metadata={"key": "routing_iterations"})
    softmax_axis: str = field(default="input_caps", metadata={"key": "attention_softmax_axis",
                                                              "choices": tuple(_SOFTMAX_AXES)})
    scale_by_sqrt_d: bool = field(default=False, metadata={"key": "attention_scale_by_sqrt_d"})

    __post_init__ = check_fields  # each rule here is one field's own


@dataclass
class RoutingState:
    """Per-round coupling coefficients and squashed outputs, one entry per round.

    The arrays are views of the routing graph's own ``.data``, not copies: the
    coefficients are the [B, N_in, N_out] transpose of the graph's
    [B, N_out, N_in] arrays. No op writes to them in place, and neither may a
    reader: the state is read-only.
    """

    coefficients: list[np.ndarray] = field(default_factory=list)  # [B, N_in, N_out]
    outputs: list[np.ndarray] = field(default_factory=list)  # [B, N_out, D_out]


def _check_votes(votes: Tensor) -> tuple[int, int, int, int]:
    if votes.ndim != 4 or 0 in votes.shape:
        raise DimensionError(f"routing expects non-empty votes [B, N_in, N_out, D_out], got {votes.shape}")
    return votes.shape


def dynamic_routing(votes: Tensor, iterations: int) -> tuple[CapsuleBank, RoutingState]:
    """Iterative routing-by-agreement.

    Starting from zero logits, each round softmaxes the logits over output
    capsules, forms weighted vote sums, squashes them, and reinforces logits
    by the dot product between votes and outputs. The last round's agreement
    would feed nothing, so r rounds make r - 1 updates. Gradients flow through
    every iteration; nothing is detached.

    The softmax of zero logits is 1 / N_out exactly, so round 1 couples every
    vote by that constant and computes no softmax, and the first agreement
    becomes the logits rather than being added to zeros. The bits are those of
    starting from a zero tensor.

    The votes are read as the view u = [B, N_out, N_in, D_out] and the logits
    kept as [B, N_out, N_in], so the softmax runs over axis 1, the weighted
    vote sum is ``c @ u`` with c as [B, N_out, 1, N_in], and the agreement is
    ``u @ v`` with v as [B, N_out, D_out, 1].
    """
    check_integer("iterations", iterations, 1)
    bsz, n_in, n_out, d_out = _check_votes(votes)
    u = votes.transpose((0, 2, 1, 3))
    coupling, logits = Tensor(np.full((bsz, n_out, n_in), 1.0 / n_out)), None
    state = RoutingState()
    for it in range(iterations):
        if logits is not None:
            coupling = softmax(logits, axis=1)
        v = squash(matmul(coupling.reshape((bsz, n_out, 1, n_in)), u).reshape((bsz, n_out, d_out)))
        state.coefficients.append(coupling.data.transpose((0, 2, 1)))
        state.outputs.append(v.data)
        if it + 1 < iterations:
            agreement = matmul(u, v.reshape((bsz, n_out, d_out, 1))).reshape((bsz, n_out, n_in))
            logits = agreement if logits is None else logits + agreement
    return CapsuleBank(v), state


def attention_routing(
    votes: Tensor,
    weight: Tensor,
    *,
    softmax_axis: str = "input_caps",
    scale_by_sqrt_d: bool = False,
) -> tuple[CapsuleBank, RoutingState]:
    """Single-pass routing: votes score themselves through a shared projection.

    Each vote is projected to a scalar logit by one weight vector of length
    D_out, the same for every capsule pair (a shared bias would cancel in
    either softmax), optionally scaled by 1/sqrt(D_out), then normalized by
    softmax over the chosen axis (input capsules by default). Outputs are
    squashed attention-weighted vote sums. No iteration takes place.

    As in ``dynamic_routing``, the votes are read as the view
    u = [B, N_out, N_in, D_out]: the logits are ``u @ weight`` as
    [B, N_out, N_in], softmaxed over axis 2 for input capsules or axis 1 for
    output capsules, and the vote sum is ``attn @ u`` with attn as
    [B, N_out, 1, N_in].
    """
    bsz, n_in, n_out, d_out = _check_votes(votes)
    if weight.shape != (d_out, 1):
        raise DimensionError(f"attention projection expects weight [{d_out}, 1], got {weight.shape}")
    if softmax_axis not in _SOFTMAX_AXES:
        raise ConfigurationError(f"unknown attention softmax_axis: {softmax_axis!r}")
    u = votes.transpose((0, 2, 1, 3))
    logits = matmul(u, weight).reshape((bsz, n_out, n_in))
    if scale_by_sqrt_d:
        logits = logits * (1.0 / np.sqrt(d_out))
    attn = softmax(logits, axis=_SOFTMAX_AXES[softmax_axis])
    v = squash(matmul(attn.reshape((bsz, n_out, 1, n_in)), u).reshape((bsz, n_out, d_out)))
    return CapsuleBank(v), RoutingState([attn.data.transpose((0, 2, 1))], [v.data])


class Routing:
    """The routing layer of a model: ``spec.method`` picks the algorithm.

    Only attention routing has a parameter, the projection ``weight`` [d_out, 1].
    It starts at zero, so attention starts uniform, and gets gradients once votes differ.
    """

    def __init__(self, spec: RoutingSpec, d_out: int):
        self.spec = spec
        if spec.method == "attention":
            self.weight = Tensor._adopt(np.zeros((d_out, 1)))

    def __call__(self, votes: Tensor) -> tuple[CapsuleBank, RoutingState]:
        spec = self.spec
        if spec.method == "dynamic":
            return dynamic_routing(votes, spec.iterations)
        return attention_routing(votes, self.weight, softmax_axis=spec.softmax_axis,
                                 scale_by_sqrt_d=spec.scale_by_sqrt_d)

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("weight", self.weight)] if self.spec.method == "attention" else []


make_routing = Routing  # the name capsbench/tracing.py imports


# ------------------------------------------------------------------- read-outs
class _Linear:
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, gain: str = "relu"):
        self.weight = _normal(rng, (n_in, n_out), n_in if gain == "relu" else n_in + n_out)
        self.bias = Tensor._adopt(np.zeros(n_out))

    def __call__(self, x: Tensor) -> Tensor:
        return matmul(x, self.weight) + self.bias

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [("weight", self.weight), ("bias", self.bias)]


class Decoder:
    """Reconstruct the flattened input image from all digit capsules.

    Two ReLU layers feed a sigmoid readout sized to the image, so outputs live
    in (0, 1) like the pixels they imitate.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        hidden: tuple[int, int],
        rng: np.random.Generator,
    ):
        self.layers = [
            _Linear(in_dim, hidden[0], rng),
            _Linear(hidden[0], hidden[1], rng),
            _Linear(hidden[1], out_dim, rng, gain="linear"),
        ]

    def __call__(self, digit_caps: Tensor) -> Tensor:
        bsz = digit_caps.shape[0]
        x = digit_caps.reshape((bsz, -1))
        x = relu(self.layers[0](x))
        x = relu(self.layers[1](x))
        return sigmoid(self.layers[2](x))

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, layer in enumerate(self.layers):
            out += [(f"fc{i + 1}.{n}", t) for n, t in layer.parameters()]
        return out


class RegressionHead:
    """Linear readout of all digit capsules to one scalar per sample."""

    def __init__(self, in_dim: int, rng: np.random.Generator):
        self.linear = _Linear(in_dim, 1, rng, gain="linear")

    def __call__(self, digit_caps: Tensor) -> Tensor:
        bsz = digit_caps.shape[0]
        return self.linear(digit_caps.reshape((bsz, -1))).reshape((bsz,))

    def parameters(self) -> list[tuple[str, Tensor]]:
        return self.linear.parameters()


def classify(digit_caps: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """Predicted class indices and positive-class scores from capsule norms.

    The prediction is the argmax of the capsule lengths; exact ties resolve to
    the lower index. Scores are the raw length of the class-1 (positive)
    capsule, suitable for ranking metrics.
    """
    norms = vector_norm(digit_caps).data
    preds = norms.argmax(axis=1).astype(np.int64)
    return preds, norms[:, 1].copy()
