"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is built eagerly: each operation stores its parent tensors and a
backward closure on its output. ``Tensor.backward`` walks the recorded
operations once in reverse topological order and *assigns* ``.grad`` on every
reachable leaf (a tensor created with ``requires_grad=True``), so repeated
calls are idempotent (bit-identical results) rather than accumulating.
Intermediate gradients are dropped as soon as they have been passed on, and op
outputs keep ``.grad`` at None. Leaves start with zero gradients, which means
parameters that never participate in a loss read back as zero.

All arithmetic is performed in float64. Nothing in this module owns global
random state; callers pass ``numpy.random.Generator`` objects where needed.
Graph construction is not thread-safe per tensor, but independent graphs on
separate threads do not interact.
"""

from __future__ import annotations

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
    "tensor_sum",
    "tensor_mean",
    "reshape",
    "transpose",
    "conv2d",
    "maxpool2d",
]

# Global switch consulted at op-recording time; see no_grad().
_GRAD_ENABLED = True


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
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
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

    def zero_grad(self) -> None:
        if self.requires_grad:
            self.grad = np.zeros_like(self.data)

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
        """Set ``grad`` to d(self)/d(leaf) on every leaf ancestor that requires it.

        ``self`` must hold a single element. Gradients are assigned, not
        accumulated across calls, so running backward twice on the same graph
        yields bit-identical results. Op outputs get no ``grad``, and no two
        leaves share a ``grad`` array.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward() requires a scalar loss, got shape {self.shape}"
            )
        order = self._topological_order()
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        handed: set[int] = set()  # ids of the arrays that own each leaf's grad memory
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward_rule is not None:
                for parent, pg in zip(node._parents, node._backward_rule(g)):
                    if pg is None or not parent.requires_grad:
                        continue
                    held = grads.get(id(parent))
                    grads[id(parent)] = pg if held is None else held + pg
            elif node.requires_grad:
                # Densify broadcast/transpose views, and copy an array whose
                # memory another leaf already holds; np.array keeps 0-d shapes
                # where ascontiguousarray would promote them to (1,).
                owner = g if g.base is None else g.base
                if id(owner) in handed or not (g.flags.c_contiguous and g.flags.writeable):
                    g = owner = np.array(g)
                handed.add(id(owner))
                node.grad = g

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


# ------------------------------------------------------------------ elementwise
def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("add", a.shape, b.shape)

    def rule(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _from_op(a.data + b.data, (a, b), rule)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("sub", a.shape, b.shape)

    def rule(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _from_op(a.data - b.data, (a, b), rule)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("mul", a.shape, b.shape)

    def rule(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _from_op(a.data * b.data, (a, b), rule)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast("div", a.shape, b.shape)

    def rule(g):
        ga = _unbroadcast(g / b.data, a.shape)
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _from_op(a.data / b.data, (a, b), rule)


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
        ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape)
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


def vector_norm(a, eps: float = 1e-12) -> Tensor:
    """Euclidean norm over the last axis, guarded as sqrt(sum(x^2) + eps).

    The guard keeps the gradient finite at the zero vector; eps must be
    positive.
    """
    a = _as_tensor(a)
    if not eps > 0:
        raise ContractError(f"vector_norm: eps must be positive, got {eps}")
    out = np.sqrt((a.data * a.data).sum(axis=-1) + eps)

    def rule(g):
        return ((g / out)[..., None] * a.data,)

    return _from_op(out, (a,), rule)


# --------------------------------------------------------------------- reductions
def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    if axis is None:
        axes = tuple(range(a.ndim))
    else:
        raw = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(_normalize_axis(ax, a.ndim, "sum") for ax in raw)
    out = a.data.sum(axis=axes if axes else None, keepdims=keepdims)
    in_shape = a.shape

    def rule(g):
        if not keepdims and axes:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g, in_shape),)

    return _from_op(np.asarray(out, dtype=np.float64), (a,), rule)


def tensor_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    if axis is None:
        count = a.size
    else:
        raw = (axis,) if isinstance(axis, int) else tuple(axis)
        count = 1
        for ax in raw:
            count *= a.shape[_normalize_axis(ax, a.ndim, "mean")]
    return scale(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


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
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(bsz, ho * wo, -1)
    flat = w.data.reshape(c_out, c_in * k * k)
    out = np.matmul(cols, flat.T)  # [B, ho*wo, C_out]

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
            gw = np.matmul(np.swapaxes(cols, -1, -2), g_rows).sum(axis=0).T.reshape(w.shape)
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
