"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is built eagerly: each operation stores its parent tensors and a
backward closure on its output. ``Tensor.backward`` walks the recorded
operations once in reverse topological order and *writes* each reachable
leaf's gradient into that leaf's own ``.grad`` (a leaf is a tensor created with
``requires_grad=True``), so repeated calls are idempotent (bit-identical
results) rather than accumulating. Nothing rebinds a leaf's ``.data`` or
``.grad`` after construction, and a leaf copies the array it is built from,
so in-place updates never reach the caller's array. Intermediate gradients
are dropped as soon as they have been passed on, and op outputs keep
``.grad`` at None. Leaves start with zero gradients, so parameters that never
join a loss read back as zero.

A backward rule maps the output's gradient to one entry per parent and
returns ``None`` for a parent that needs no gradient, so a constant operand
(class weights, targets, pixels) costs no gradient work. The elementwise
binary ops share one broadcasting rule, ``_broadcast_op``.

All arithmetic is performed in float64. Nothing in this module owns global
random state; callers pass ``numpy.random.Generator`` objects where needed.
Graph construction is not thread-safe per tensor, but independent graphs on
separate threads do not interact.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DimensionError

__all__ = [
    "Tensor",
    "no_grad",
    "add",
    "sub",
    "mul",
    "div",
    "scale",
    "relu",
    "square",
    "sqrt",
    "exp",
    "log",
    "sigmoid",
    "matmul",
    "softmax",
    "log_softmax",
    "vector_norm",
    "NORM_EPS",
    "tensor_sum",
    "tensor_mean",
    "reshape",
    "transpose",
    "conv2d",
    "maxpool2d",
]

# Global switch consulted at op-recording time; see no_grad().
_GRAD_ENABLED = True

# vector_norm's guard, sqrt(sum(x^2) + NORM_EPS): a finite gradient at the zero vector.
NORM_EPS = 1e-12

# conv2d's patch-buffer budget, about one core's L2 cache: a block's gather is still
# in cache when its GEMM reads it.
_PATCH_BYTES = 2 << 20


@contextmanager
def no_grad():
    """Suspend graph recording; ops executed inside produce constant tensors."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A dense float64 array plus the bookkeeping for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_rule")

    def __init__(self, data, requires_grad: bool = False):
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        # A leaf is updated in place, so it copies rather than write into the caller's array.
        self.data = (np.array if self.requires_grad else np.asarray)(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._backward_rule = None

    # ------------------------------------------------------------------ info
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.item())

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------- operators
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)

    # -------------------------------------------------------------- backward
    def backward(self) -> None:
        """Write d(self)/d(leaf) into ``grad`` on every leaf ancestor that requires it.

        ``self`` must hold a single element. Each reached leaf's ``grad`` array
        is overwritten in place, not accumulated into, so running backward
        twice on the same graph yields bit-identical results. Op outputs get
        no ``grad``. Each op's rule returns ``None`` for a parent that needs
        no gradient, so the rules alone decide which parents receive one.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward() requires a scalar loss, got shape {self.shape}"
            )
        order = self._topological_order()
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward_rule is not None:
                for parent, pg in zip(node._parents, node._backward_rule(g)):
                    if pg is None:
                        continue
                    held = grads.get(id(parent))
                    grads[id(parent)] = pg if held is None else held + pg
            elif node.requires_grad:
                np.copyto(node.grad, g)

    def _topological_order(self) -> list["Tensor"]:
        # Iterative post-order walk; parents land before their consumers.
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return order


# --------------------------------------------------------------------- plumbing
def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _from_op(data: np.ndarray, parents: tuple[Tensor, ...], rule) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data if data.dtype == np.float64 else data.astype(np.float64)
    out.grad = None
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_rule = rule
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_rule = None
    return out


def _check_broadcast(op: str, sa: tuple, sb: tuple) -> None:
    try:
        np.broadcast_shapes(sa, sb)
    except ValueError:
        raise DimensionError(f"{op}: shapes {sa} and {sb} are not broadcastable") from None


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient contributions over the axes numpy broadcasting stretched."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ts) in enumerate(zip(g.shape, shape)) if ts == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _normalize_axis(axis: int, ndim: int, op: str) -> int:
    ax = axis + ndim if axis < 0 else axis
    if not 0 <= ax < ndim:
        raise DimensionError(f"{op}: axis {axis} out of range for rank {ndim}")
    return ax


def _reduced_axes(axis, ndim: int, op: str) -> tuple[int, ...]:
    """numpy's ``axis`` argument as normalised axes: None is every axis, () none."""
    if axis is None:
        return tuple(range(ndim))
    return tuple(_normalize_axis(ax, ndim, op) for ax in ((axis,) if isinstance(axis, int) else axis))


def _broadcast_op(op: str, fwd, a, b, grad_a, grad_b) -> Tensor:
    """``fwd(a, b)`` under numpy broadcasting; ``grad_a(g, a, b)`` and ``grad_b(g, a, b)``
    give each input's gradient, summed back to its shape, when it needs one."""
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(op, a.shape, b.shape)

    def rule(g):
        ga = _unbroadcast(grad_a(g, a.data, b.data), a.shape) if a.requires_grad else None
        gb = _unbroadcast(grad_b(g, a.data, b.data), b.shape) if b.requires_grad else None
        return ga, gb

    return _from_op(fwd(a.data, b.data), (a, b), rule)


# ------------------------------------------------------------------ elementwise
def add(a, b) -> Tensor:
    return _broadcast_op("add", np.add, a, b, lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _broadcast_op("sub", np.subtract, a, b, lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _broadcast_op("mul", np.multiply, a, b, lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    return _broadcast_op("div", np.divide, a, b, lambda g, x, y: g / y,
                         lambda g, x, y: -g * x / (y * y))


def scale(a, s: float) -> Tensor:
    a = _as_tensor(a)
    s = float(s)

    def rule(g):
        return (g * s,)

    return _from_op(a.data * s, (a,), rule)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0  # subgradient 0 at the kink

    def rule(g):
        return (g * mask,)

    return _from_op(a.data * mask, (a,), rule)


def square(a) -> Tensor:
    a = _as_tensor(a)

    def rule(g):
        return (g * (2.0 * a.data),)

    return _from_op(a.data * a.data, (a,), rule)


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    out = np.sqrt(a.data)

    def rule(g):
        return (g / (2.0 * out),)

    return _from_op(out, (a,), rule)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)

    def rule(g):
        return (g * out,)

    return _from_op(out, (a,), rule)


def log(a) -> Tensor:
    a = _as_tensor(a)

    def rule(g):
        return (g / a.data,)

    return _from_op(np.log(a.data), (a,), rule)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    # Evaluate through exp(-|x|) so neither branch can overflow.
    t = np.exp(-np.abs(a.data))
    out = np.where(a.data >= 0, 1.0 / (1.0 + t), t / (1.0 + t))

    def rule(g):
        return (g * out * (1.0 - out),)

    return _from_op(out, (a,), rule)


# -------------------------------------------------------------------- contractions
def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul: operands must have rank >= 2, got {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul: inner dimensions disagree for {a.shape} and {b.shape}"
        )
    _check_broadcast("matmul (batch dims)", a.shape[:-2], b.shape[:-2])

    def rule(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape) if a.requires_grad else None
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape) if b.requires_grad else None
        return ga, gb

    return _from_op(np.matmul(a.data, b.data), (a, b), rule)


def softmax(a, axis: int) -> Tensor:
    """Numerically stable softmax along ``axis`` (max-subtracted)."""
    a = _as_tensor(a)
    ax = _normalize_axis(axis, a.ndim, "softmax")
    shifted = a.data - a.data.max(axis=ax, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=ax, keepdims=True)

    def rule(g):
        inner = (g * out).sum(axis=ax, keepdims=True)
        return (out * (g - inner),)

    return _from_op(out, (a,), rule)


def log_softmax(a, axis: int) -> Tensor:
    """Log of softmax along ``axis``, fused so no probability underflows to log(0)."""
    a = _as_tensor(a)
    ax = _normalize_axis(axis, a.ndim, "log_softmax")
    shifted = a.data - a.data.max(axis=ax, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=ax, keepdims=True))

    def rule(g):
        return (g - np.exp(out) * g.sum(axis=ax, keepdims=True),)

    return _from_op(out, (a,), rule)


def vector_norm(a) -> Tensor:
    """Euclidean norm over the last axis, guarded as sqrt(sum(x^2) + NORM_EPS).

    Where the sum of squares overflows (norms past ~1e154), that vector is
    divided by its largest magnitude m first: m * sqrt(sum((x/m)^2) + NORM_EPS/m^2).
    Other vectors use the plain formula.
    """
    a = _as_tensor(a)
    x = a.data
    with np.errstate(over="ignore"):
        out = np.sqrt((x * x).sum(axis=-1) + NORM_EPS)
    big = np.isinf(out)
    if big.any():
        out, rows = np.array(out), x[big]
        m = np.abs(rows).max(axis=-1)
        out[big] = m * np.sqrt(np.square(rows / m[:, None]).sum(axis=-1) + NORM_EPS / m / m)

    def rule(g):
        return ((g / out)[..., None] * a.data,)

    return _from_op(out, (a,), rule)


# --------------------------------------------------------------------- reductions
def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _reduced_axes(axis, a.ndim, "sum")

    def rule(g):
        return (np.broadcast_to(g if keepdims else np.expand_dims(g, axes), a.shape),)

    return _from_op(np.asarray(a.data.sum(axis=axes, keepdims=keepdims)), (a,), rule)


def tensor_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    axes = _reduced_axes(axis, a.ndim, "mean")
    count = math.prod(a.shape[ax] for ax in axes)
    return scale(tensor_sum(a, axis=axes, keepdims=keepdims), 1.0 / count)


# ------------------------------------------------------------------ shape movement
def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.shape
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise DimensionError(f"reshape: cannot view {old} as {tuple(shape)}") from None

    def rule(g):
        return (g.reshape(old),)

    return _from_op(out, (a,), rule)


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    if sorted(axes) != list(range(a.ndim)):
        raise DimensionError(f"transpose: {axes} is not a permutation of rank {a.ndim}")
    inverse = tuple(np.argsort(axes))

    def rule(g):
        return (g.transpose(inverse),)

    return _from_op(a.data.transpose(axes), (a,), rule)


# ------------------------------------------------------------------- convolution
def conv2d(x, w, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation of [B, C_in, H, W] with kernels [C_out, C_in, k, k].

    The patch matrix is gathered one block of images at a time into one reused
    buffer of at most ``_PATCH_BYTES`` (one image if a single image's patches
    are larger), and each block's GEMM reads it while it is still in cache. So
    the op's extra memory is that buffer, not the whole batch's patch matrix.

    The kernel gradient gathers each block again, unless it is still in the
    buffer, and adds each image's ``cols_b.T @ g_b`` into one zeroed
    accumulator in batch order. That is the order of a sum over the batch axis
    of the per-image products, so the result does not depend on the block size.
    The input gradient, built only when ``x`` needs one, adds ``g @ w[:, :, i, j]``
    per kernel offset (i, j) in lexicographic order, as a patch scatter would.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"conv2d: expected rank-4 tensors, got {x.shape} and {w.shape}")
    c_out, c_in, k, kw = w.shape
    if k != kw:
        raise DimensionError(f"conv2d: kernels must be square, got {w.shape}")
    if x.shape[1] != c_in:
        raise DimensionError(f"conv2d: input has {x.shape[1]} channels but kernel expects {c_in}")
    s, p = int(stride), int(padding)
    if s < 1 or p < 0:
        raise ContractError(f"conv2d: need stride >= 1 and padding >= 0, got {stride}, {padding}")
    bsz, _, h, wd = x.shape
    hp, wp = h + 2 * p, wd + 2 * p
    if k > hp or k > wp:
        raise DimensionError(f"conv2d: kernel {k} exceeds padded input {hp}x{wp}")
    ho, wo = (hp - k) // s + 1, (wp - k) // s + 1
    xp = np.pad(x.data, ((0, 0), (0, 0), (p, p), (p, p))) if p else x.data
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
    patches = windows.transpose(0, 2, 3, 1, 4, 5)  # [B, ho, wo, C_in, k, k]
    n_rows, n_cols = ho * wo, c_in * k * k
    per_block = min(bsz, max(1, _PATCH_BYTES // (n_rows * n_cols * 8)))
    blocks = [slice(b, min(b + per_block, bsz)) for b in range(0, bsz, per_block)]
    cols_buf = np.empty((per_block, ho, wo, c_in, k, k))
    held = None  # the block whose patches are in cols_buf

    def gather(blk):
        nonlocal held
        cols = cols_buf[: blk.stop - blk.start]
        if held != blk:
            np.copyto(cols, patches[blk])
            held = blk
        return cols.reshape(-1, n_rows, n_cols)

    flat = w.data.reshape(c_out, n_cols)
    out = np.empty((bsz, n_rows, c_out))
    for blk in blocks:
        np.matmul(gather(blk), flat.T, out=out[blk])

    def rule(g):
        g_rows = g.reshape(bsz, c_out, ho * wo).transpose(0, 2, 1)  # [B, ho*wo, C_out]
        gx = gw = None
        if x.requires_grad:
            if c_in > 1 and ho * wo > 1:
                g2 = np.ascontiguousarray(g_rows).reshape(bsz * ho * wo, c_out)
                wk = np.ascontiguousarray(w.data.transpose(2, 3, 0, 1))  # [k, k, C_out, C_in]
                terms = (np.matmul(g2, wk[ij]) for ij in np.ndindex(k, k))
            else:
                # A one-row or one-column GEMM takes BLAS's matrix-vector path,
                # which sums in another order; keep the k*k-wide product.
                g_cols = np.matmul(g_rows, flat).reshape(bsz * ho * wo, c_in, k * k)
                terms = (g_cols[..., n] for n in range(k * k))
            buf = np.zeros((bsz, hp, wp, c_in))
            for (i, j), term in zip(np.ndindex(k, k), terms):
                buf[:, i : i + s * ho : s, j : j + s * wo : s] += term.reshape(bsz, ho, wo, c_in)
            gx = np.ascontiguousarray(buf.transpose(0, 3, 1, 2))[:, :, p : p + h, p : p + wd]
        if w.requires_grad:
            acc, prod = np.zeros((n_cols, c_out)), np.empty((n_cols, c_out))
            for blk in blocks:
                for cols_b, g_b in zip(gather(blk), g_rows[blk]):
                    acc += np.matmul(cols_b.T, g_b, out=prod)
            gw = acc.T.reshape(w.shape)
        return gx, gw

    return _from_op(out.transpose(0, 2, 1).reshape(bsz, c_out, ho, wo), (x, w), rule)


def maxpool2d(a, kernel: int) -> Tensor:
    """Non-overlapping max pooling with window == stride == ``kernel``.

    Spatial extents must divide evenly; ties route the gradient to the first
    maximal element, which keeps backward deterministic.
    """
    a = _as_tensor(a)
    if a.ndim != 4:
        raise DimensionError(f"maxpool2d: expected rank-4 input, got {a.shape}")
    k = int(kernel)
    bsz, ch, h, w = a.shape
    if k < 1 or h % k or w % k:
        raise DimensionError(
            f"maxpool2d: spatial extents {h}x{w} not divisible by window {k}"
        )
    ho, wo = h // k, w // k
    tiles = a.data.reshape(bsz, ch, ho, k, wo, k).transpose(0, 1, 2, 4, 3, 5)
    tiles = tiles.reshape(bsz, ch, ho, wo, k * k)
    idx = tiles.argmax(axis=-1)
    out = np.take_along_axis(tiles, idx[..., None], axis=-1)[..., 0]

    def rule(g):
        buf = np.zeros((bsz, ch, ho, wo, k * k))
        np.put_along_axis(buf, idx[..., None], g[..., None], axis=-1)
        gx = buf.reshape(bsz, ch, ho, wo, k, k).transpose(0, 1, 2, 4, 3, 5)
        return (gx.reshape(bsz, ch, h, w),)

    return _from_op(np.ascontiguousarray(out), (a,), rule)
