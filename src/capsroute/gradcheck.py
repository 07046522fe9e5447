"""Central finite-difference verification of tape gradients.

The step for an entry with value x is ``h = DEFAULT_STEP_SCALE * max(1, |x|)``
and both sides are evaluated in float64. Errors are reported as
``|analytic - numeric| / max(1, |analytic|, |numeric|)``, i.e. absolute near
zero and relative away from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError
from .tensor import Tensor

__all__ = ["relative_error", "fd_gradient", "check_gradient", "spot_check", "standard_suite",
           "GradCheckResult"]

DEFAULT_STEP_SCALE = 1e-6


@dataclass
class GradCheckResult:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_rel_err < self.tolerance

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] {self.name}: rel_err={self.max_rel_err:.3e} (tol {self.tolerance:.0e})"


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    a = np.asarray(analytic, dtype=np.float64)
    b = np.asarray(numeric, dtype=np.float64)
    if a.size == 0:
        return 0.0
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def fd_gradient(
    f: Callable[[], Tensor],
    param: Tensor,
    indices: Sequence[int] | None = None,
) -> np.ndarray:
    """Central differences of the scalar ``f()`` w.r.t. flat entries of ``param``.

    ``f`` must rebuild its graph on every call; ``param.data`` is perturbed in
    place and restored exactly. With ``indices=None`` the result is shaped like
    ``param``; with explicit indices it is flat, one entry per index.
    """
    flat = param.data.reshape(-1)
    if param.data.size and not np.shares_memory(flat, param.data):
        raise ContractError("fd_gradient needs a contiguous parameter to perturb in place")
    full = indices is None
    if full:
        indices = range(flat.size)
    grads = np.zeros(len(indices))
    for n, i in enumerate(indices):
        x0 = flat[i]
        h = DEFAULT_STEP_SCALE * max(1.0, abs(x0))
        flat[i] = x0 + h
        up = f().item()
        flat[i] = x0 - h
        down = f().item()
        flat[i] = x0
        grads[n] = (up - down) / (2.0 * h)
    return grads.reshape(param.data.shape) if full else grads


def check_gradient(
    name: str,
    f: Callable[[], Tensor],
    param: Tensor,
    tolerance: float = 1e-6,
) -> GradCheckResult:
    """Compare the full analytic gradient of ``param`` against finite differences."""
    loss = f()
    loss.backward()
    analytic = param.grad.copy()
    numeric = fd_gradient(f, param)
    return GradCheckResult(name, relative_error(analytic, numeric), tolerance)


def spot_check(
    name: str,
    f: Callable[[], Tensor],
    params: Sequence[tuple[str, Tensor]],
    n_entries: int,
    rng: np.random.Generator,
    tolerance: float = 1e-4,
) -> GradCheckResult:
    """Verify ``n_entries`` randomly chosen parameter entries of a composite model.

    Entries are sampled uniformly over the concatenation of all parameter
    elements, so large tensors are proportionally more likely to be probed.
    """
    sizes = np.array([p.data.size for _, p in params])
    total = int(sizes.sum())
    picks = rng.choice(total, size=min(n_entries, total), replace=False)
    bounds = np.cumsum(sizes)

    loss = f()
    loss.backward()
    analytic = np.concatenate([p.grad.reshape(-1) for _, p in params])

    worst = 0.0
    for flat_idx in picks:
        owner = int(np.searchsorted(bounds, flat_idx, side="right"))
        local = int(flat_idx - (bounds[owner - 1] if owner else 0))
        numeric = fd_gradient(f, params[owner][1], indices=[local])
        worst = max(worst, relative_error(analytic[flat_idx], numeric[0]))
    return GradCheckResult(name, worst, tolerance)


def standard_suite(seed: int = 7) -> list[GradCheckResult]:
    """The library-wide gradient verification battery.

    Covers each differentiable primitive at 1e-6, each capsule layer at 1e-5,
    both losses at 1e-6, and 10 random parameter entries of the small capsule
    classifier at 1e-4.
    """
    from . import capsules, losses, models, tensor as T

    rng = np.random.default_rng(seed)
    results: list[GradCheckResult] = []

    def leaf(*shape) -> Tensor:
        return Tensor(rng.normal(0.0, 1.0, size=shape), requires_grad=True)

    def positive(*shape) -> Tensor:
        return Tensor(rng.uniform(0.5, 2.0, size=shape), requires_grad=True)

    def op(name, param, fn, tol=1e-6):
        results.append(check_gradient(name, fn, param, tolerance=tol))

    a, b = leaf(3, 4), leaf(3, 4)
    brow = leaf(4)
    op("op.add", a, lambda: (a + b).sum())
    op("op.add_broadcast", brow, lambda: (a + brow).sum())
    op("op.sub", b, lambda: (a - b).sum())
    op("op.mul", a, lambda: (a * b).sum())
    op("op.div", b, lambda: (a / (b * b + 1.0)).sum())
    op("op.scale", a, lambda: T.scale(a, -2.5).sum())
    op("op.relu", a, lambda: T.relu(a).sum())
    op("op.square", a, lambda: T.square(a).sum())
    sq = positive(3, 4)
    op("op.sqrt", sq, lambda: T.sqrt(sq).sum())
    op("op.exp", a, lambda: T.exp(T.scale(a, 0.3)).sum())
    op("op.log", sq, lambda: T.log(sq).sum())
    op("op.sigmoid", a, lambda: T.sigmoid(a).sum())

    m1, m2 = leaf(2, 3, 4), leaf(4, 5)
    weights = leaf(2, 3, 5)
    op("op.matmul", m1, lambda: ((m1 @ m2) * weights).sum())
    op("op.matmul_rhs", m2, lambda: ((m1 @ m2) * weights).sum())
    sm = leaf(3, 5)
    smw = leaf(3, 5)
    op("op.softmax", sm, lambda: (T.softmax(sm, axis=1) * smw).sum())
    op("op.log_softmax", sm, lambda: (T.log_softmax(sm, axis=1) * smw).sum())
    vn = leaf(4, 6)
    op("op.vector_norm", vn, lambda: T.vector_norm(vn).sum())
    op("op.sum_axis", a, lambda: T.square(a.sum(axis=0)).sum())
    op("op.mean", a, lambda: T.square(a.mean(axis=1)).sum())
    op("op.reshape_transpose", m1, lambda: T.square(m1.reshape((4, 6)).transpose((1, 0))).sum())

    cx, cw = leaf(2, 3, 8, 8), leaf(4, 3, 3, 3)
    cmask = leaf(2, 4, 4, 4)
    op("op.conv2d", cx, lambda: (T.conv2d(cx, cw, stride=2, padding=1) * cmask).sum())
    op("op.conv2d_kernel", cw, lambda: (T.conv2d(cx, cw, stride=2, padding=1) * cmask).sum())
    # Drawn without the rng, so that every later check sees the inputs it always did.
    cb = Tensor(np.linspace(-0.5, 0.5, 4), requires_grad=True)
    op("op.conv2d_bias", cb, lambda: (T.conv2d(cx, cw, cb, stride=2, padding=1) * cmask).sum())
    # Also built without the rng: quarter-integer inputs and kernels with a bias of odd
    # 32nds keep every pre-activation at least 1/32 from the ReLU's kink, far beyond the step.
    rx = Tensor((np.arange(2 * 3 * 8 * 8) * 5 % 9 - 4.0).reshape(2, 3, 8, 8) / 4, requires_grad=True)
    rw = Tensor((np.arange(4 * 3 * 3 * 3) * 7 % 5 - 2.0).reshape(4, 3, 3, 3) / 4, requires_grad=True)
    rb = Tensor((np.arange(4) - 1.5) / 16, requires_grad=True)

    def conv_relu():
        return (T.conv2d(rx, rw, rb, stride=2, padding=1, relu=True) * cmask).sum()

    for name, param in (("", rx), ("_kernel", rw), ("_bias", rb)):
        op(f"op.conv2d_relu{name}", param, conv_relu)
    px = leaf(2, 3, 6, 6)
    op("op.maxpool2d", px, lambda: T.square(T.maxpool2d(px, 2)).sum())

    sqv = leaf(5, 8)
    op("layer.squash", sqv, lambda: T.square(capsules.squash(sqv)).sum(), tol=1e-5)

    prim = capsules.PrimaryCapsules(3, 8, d=4, kernel=3, stride=2, rng=rng)
    pimg = Tensor(rng.normal(0.0, 1.0, size=(2, 3, 9, 9)))
    op("layer.primary_capsules", prim.weight,
       lambda: T.square(prim(pimg).activations).sum(), tol=1e-5)

    bank = capsules.CapsuleBank(leaf(2, 12, 4))
    shared = capsules.SharedAffine(12, 4, 3, 5, rng)
    # A fixed weight in the votes' [B, N_in, N_out, D_out] contract: votes in
    # any other layout fail to broadcast.
    vmask = np.linspace(-1.0, 1.0, 2 * 12 * 3 * 5).reshape(2, 12, 3, 5)
    op("layer.shared_affine", shared.weight, lambda: (T.square(shared(bank)) * vmask).sum(), tol=1e-5)
    op("layer.shared_affine_input", bank.activations,
       lambda: (T.square(shared(bank)) * vmask).sum(), tol=1e-5)
    convaff = capsules.ConvAffine((2, 3), 2, 4, 3, 5, rng)
    op("layer.conv_affine", convaff.weight, lambda: T.square(convaff(bank)).sum(), tol=1e-5)

    # B, N_in, N_out and D_out all differ, so routing over a swapped axis fails on shape.
    votes = leaf(2, 6, 3, 4)
    for r, suffix in ((3, ""), (1, "_r1"), (2, "_r2")):
        op(f"layer.dynamic_routing{suffix}", votes,
           lambda r=r: T.square(capsules.dynamic_routing(votes, r)[0].activations).sum(), tol=1e-5)
    att = capsules.Routing(capsules.RoutingSpec(), 4)
    att.weight.data[...] = rng.normal(0.0, 0.5, size=(4, 1))
    op("layer.attention_routing", votes,
       lambda: T.square(att(votes)[0].activations).sum(), tol=1e-5)
    op("layer.attention_projection", att.weight,
       lambda: T.square(att(votes)[0].activations).sum(), tol=1e-5)
    att_out = capsules.Routing(capsules.RoutingSpec(softmax_axis="output_caps", scale_by_sqrt_d=True), 4)
    att_out.weight.data[...] = att.weight.data
    op("layer.attention_routing_output_caps_scaled", votes,
       lambda: T.square(att_out(votes)[0].activations).sum(), tol=1e-5)

    dec = capsules.Decoder(8, 12, hidden=(6, 7), rng=rng)
    dvec = leaf(3, 2, 4)
    op("layer.fc_decoder", dec.layers[0].weight, lambda: T.square(dec(dvec)).sum(), tol=1e-5)
    head = capsules.RegressionHead(8, rng)
    op("layer.regression_head", head.linear.weight, lambda: T.square(head(dvec)).sum(), tol=1e-5)

    margin = losses.MarginLossParams()
    targets = losses.one_hot(np.array([0, 1, 1, 0]), 2)
    raw = Tensor(rng.uniform(-1.5, 1.5, size=(4, 2, 6)), requires_grad=True)
    op("loss.margin", raw,
       lambda: losses.margin_loss(T.vector_norm(capsules.squash(raw)), targets, margin))
    weighted = losses.WeightedLossParams(class_proportions=(0.75, 0.25))
    reg_true = rng.uniform(0.1, 0.5, size=4)
    pixels = rng.uniform(0.0, 1.0, size=(4, 9))
    reg_in = leaf(4)
    recon_in = leaf(4, 9)
    op("loss.weighted_capsule", raw,
       lambda: losses.weighted_capsule_loss(
           T.vector_norm(capsules.squash(raw)), targets, reg_in, reg_true,
           T.sigmoid(recon_in), pixels, margin, weighted)[0])
    op("loss.weighted_capsule_reg", reg_in,
       lambda: losses.weighted_capsule_loss(
           T.vector_norm(capsules.squash(raw)), targets, reg_in, reg_true,
           T.sigmoid(recon_in), pixels, margin, weighted)[0])
    ce_logits = leaf(4, 2)
    op("loss.weighted_cross_entropy", ce_logits,
       lambda: losses.weighted_cross_entropy(ce_logits, targets, np.array([0.25, 0.75])))

    model = models.build_model(
        models.ModelConfig(hidden_dim=16),
        (1, 32, 32),
        margin,
        losses.WeightedLossParams(class_proportions=(0.8, 0.2)),
        seed=seed,
    )
    imgs = Tensor(rng.uniform(0.0, 1.0, size=(2, 1, 32, 32)))
    lbls = np.array([0, 1])
    regs = rng.uniform(0.2, 0.4, size=2)
    results.append(
        spot_check(
            "end_to_end.capsule_classifier",
            lambda: model.training_loss(imgs, lbls, regs)[0],
            model.parameters(),
            n_entries=10,
            rng=rng,
            tolerance=1e-4,
        )
    )
    return results
